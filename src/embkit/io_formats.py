"""Persistence formats: text embedding files and a binary array container.

The text format follows the common interchange convention: a header line
"<vocab_size> <dim>" then one line per token "token v_1 ... v_dim". The
binary container stores named float arrays with explicit little-endian
layout, so identical runs produce identical bytes.
"""

import contextlib
import json
import struct
from typing import Dict, Optional

import numpy as np

from .errors import DataError

_MAGIC = b"EMBKIT01"
_DTYPES = {"<f4": "<f4", "<f8": "<f8", "<i8": "<i8"}


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; bytes that are not UTF-8 raise
    a DataError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


class EmbeddingTable:
    """Tokens plus their dense vectors, the in-memory form of the text format."""

    def __init__(self, tokens, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        if len(tokens) != vectors.shape[0]:
            raise DataError("token count does not match vector rows")
        if len(tokens) == 0:
            raise DataError("empty embedding table")
        self.tokens = list(tokens)
        self.vectors = vectors
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise DataError("duplicate tokens in embedding table")
        self._unit = None

    def __contains__(self, token) -> bool:
        return token in self.token_to_id

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, token) -> np.ndarray:
        wid = self.token_to_id.get(token)
        if wid is None:
            raise DataError(f"token not in embedding table: {token!r}")
        return self.vectors[wid]

    def unit_vectors(self) -> np.ndarray:
        """Row-normalized copy; zero rows stay zero."""
        if self._unit is None:
            norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
            safe = np.where(norms == 0.0, 1.0, norms)
            self._unit = self.vectors / safe
        return self._unit


def save_embeddings(table: EmbeddingTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.tokens)} {table.dim}\n")
        for tok, row in zip(table.tokens, table.vectors):
            fh.write(tok + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def save_embeddings_binary(table: EmbeddingTable, path) -> None:
    """Binary variant: explicit little-endian 32-bit floats, bit-exact on
    round trip of the file (values are truncated to float32 once)."""
    save_container(path, {"vectors": table.vectors.astype(np.float32)},
                   {"format": "embedding", "tokens": table.tokens})


def load_embeddings(path) -> EmbeddingTable:
    with open(path, "rb") as probe:
        if probe.read(len(_MAGIC)) == _MAGIC:
            arrays, meta = load_container(path)
            if meta.get("format") != "embedding" or "vectors" not in arrays:
                raise DataError(f"{path}: container is not an embedding file")
            return EmbeddingTable(meta["tokens"], arrays["vectors"])
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}:1: expected header '<vocab_size> <dim>'")
        try:
            n, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}:1: bad header {header!r}") from exc
        tokens = []
        vectors = np.empty((n, dim))
        row = 0
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            if row >= n:
                raise DataError(f"{path}:{lineno}: more rows than the header says")
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise DataError(
                    f"{path}:{lineno}: expected 1 token and {dim} values, "
                    f"got {len(parts)} fields")
            tokens.append(parts[0])
            try:
                vectors[row] = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad float") from exc
            row += 1
        if row != n:
            raise DataError(f"{path}: header says {n} rows, found {row}")
    return EmbeddingTable(tokens, vectors)


def save_container(path, arrays: Dict[str, np.ndarray],
                   meta: Optional[dict] = None) -> None:
    """Write named arrays with an explicit little-endian binary layout."""
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            if arr.dtype == np.float32:
                code = "<f4"
            elif arr.dtype == np.int64:
                code = "<i8"
            else:
                arr = arr.astype(np.float64)
                code = "<f8"
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<2sB", code[1:].encode(), arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=np.dtype(code)).tobytes())


def load_container(path):
    """Read a container written by save_container; returns (arrays, meta)."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise DataError(f"{path}: not an embkit container")
        try:
            return _read_container_body(fh, path)
        except (struct.error, ValueError) as exc:  # incl. JSON/UTF-8 decoding
            raise DataError(f"{path}: truncated or corrupt container "
                            f"({exc})") from exc


def _read_container_body(fh, path):
    (meta_len,) = struct.unpack("<I", fh.read(4))
    meta = json.loads(fh.read(meta_len).decode("utf-8"))
    (count,) = struct.unpack("<I", fh.read(4))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", fh.read(2))
        name = fh.read(name_len).decode("utf-8")
        code_b, ndim = struct.unpack("<2sB", fh.read(3))
        code = "<" + code_b.decode()
        if code not in _DTYPES:
            raise DataError(f"{path}: unknown dtype code {code!r}")
        shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
        dtype = np.dtype(code)
        nbytes = int(np.prod(shape)) * dtype.itemsize if ndim else dtype.itemsize
        data = fh.read(nbytes)
        if len(data) != nbytes:
            raise DataError(f"{path}: truncated array {name!r}")
        arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    return arrays, meta
