"""Persistence formats: text embedding files and a binary array container,
and the one reader of line-oriented input files.

The text format follows the common interchange convention: a header line
"<vocab_size> <dim>" then one line per token "token v_1 ... v_dim". The
binary container stores named float arrays with explicit little-endian
layout, so identical runs produce identical bytes.
"""

import contextlib
import json
import logging
import operator
import os
import struct
from typing import Dict, Optional

import numpy as np

from .errors import DataError

_MAGIC = b"EMBKIT01"
_DTYPES = {"<f4": "<f4", "<f8": "<f8", "<i8": "<i8"}

log = logging.getLogger("embkit")


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; bytes that are not UTF-8 raise
    a DataError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


strip_newline = operator.methodcaller("rstrip", "\n")  # keeps other spaces


def numbered_lines(source, strip=str.strip, start=1):
    """Yield `(lineno, strip(line))` for each line of `source` that `strip`
    leaves non-empty, numbering lines from `start`. `source` is the path of
    a UTF-8 text file or an iterable of lines. Every line-oriented loader
    reads through here and names a bad line with `line_error`."""
    with (open_text(source) if isinstance(source, (str, os.PathLike))
          else contextlib.nullcontext(source)) as lines:
        for lineno, line in enumerate(lines, start):
            line = strip(line)
            if line:
                yield lineno, line


def line_error(path, lineno, message) -> DataError:
    """The error for a malformed line: "path:line: message"."""
    return DataError(f"{path}:{lineno}: {message}")


@contextlib.contextmanager
def _atomic_open(path, mode, encoding=None):
    """Open `path` for writing so that it changes only once the write has
    completed: the data goes to a temporary file beside it, which replaces
    `path` on success and is removed on failure. A path that names an
    existing non-regular file, such as /dev/null, is written in place.
    Logs `wrote <path>` once the file is in place."""
    given, path = path, os.path.realpath(path)  # through a symlink, not over it
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
    else:
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            fh = open(tmp, mode, encoding=encoding)
        except OSError as exc:  # named as the path the caller gave, not tmp
            raise OSError(exc.errno, exc.strerror, os.fspath(given)) from None
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):  # the first error is the one to report
                os.remove(tmp)
            raise
    log.info("wrote %s", given)


class EmbeddingTable:
    """Tokens plus their dense vectors, the in-memory form of the text format."""

    def __init__(self, tokens, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        if len(tokens) != vectors.shape[0]:
            raise DataError("token count does not match vector rows")
        if vectors.size == 0:  # no rows, or rows of width 0
            raise DataError("empty embedding table")
        self.tokens = list(tokens)
        self.vectors = vectors
        self.token_to_id = dict(zip(self.tokens, range(len(self.tokens))))
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

    def unit_vectors(self) -> np.ndarray:
        """Row-normalized copy; zero rows stay zero. A nonzero row whose
        norm overflows to inf or underflows to 0 is first scaled by its
        largest absolute value."""
        if self._unit is None:
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(self.vectors, axis=1)
            self._unit = self.vectors / np.where(norms == 0.0, 1.0, norms)[:, None]
            bad = np.isinf(norms) | ((norms == 0.0) & self.vectors.any(axis=1))
            if bad.any():
                rows = self.vectors[bad]
                rows /= np.abs(rows).max(axis=1, keepdims=True)
                self._unit[bad] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        return self._unit


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write the text format. A token must be nonempty and free of
    whitespace (`str.isspace`), since the reader splits lines on spaces."""
    for tok in table.tokens:
        if tok.split() != [tok]:
            raise DataError(f"{path}: token {tok!r} is empty or contains "
                            "whitespace; the text format cannot store it")
    with _atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.tokens)} {table.dim}\n")
        for tok, row in zip(table.tokens, table.vectors):
            fh.write(tok + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def save_embeddings_binary(table: EmbeddingTable, path) -> None:
    """Binary variant: explicit little-endian 32-bit floats, bit-exact on
    round trip of the file (values are truncated to float32 once)."""
    save_container(path, {"vectors": table.vectors.astype(np.float32)},
                   {"format": "embedding", "tokens": table.tokens})


def load_embeddings(path) -> EmbeddingTable:
    """The table of an embedding file; a DataError always names `path`."""
    tokens, vectors = _read_embeddings(path)
    try:
        return EmbeddingTable(tokens, vectors)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_embeddings(path):
    """The tokens and vectors of an embedding file."""
    with open(path, "rb") as probe:
        if probe.read(len(_MAGIC)) == _MAGIC:
            arrays, meta = load_container(path)
            if meta.get("format") != "embedding" or "vectors" not in arrays:
                raise DataError(f"{path}: container is not an embedding file")
            if not np.isfinite(arrays["vectors"]).all():
                raise DataError(f"{path}: non-finite vector value")
            tokens = meta.get("tokens")
            if not (isinstance(tokens, list)
                    and all(isinstance(t, str) for t in tokens)):
                raise DataError(f"{path}: container has no list of tokens")
            return tokens, arrays["vectors"]
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise line_error(path, 1, "expected header '<vocab_size> <dim>'")
        try:
            n, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise line_error(path, 1, f"bad header {header!r}") from exc
        if n < 0 or dim < 0:
            raise line_error(path, 1, f"negative count or dim in header "
                             f"{header!r}")
        tokens, linenos = [], []
        vectors = np.empty((n, dim))
        for lineno, line in numbered_lines(fh, strip_newline, start=2):
            if len(tokens) >= n:
                raise line_error(path, lineno, "more rows than the header says")
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise line_error(path, lineno, f"expected 1 token and {dim} "
                                 f"values, got {len(parts)} fields")
            try:
                vectors[len(tokens)] = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise line_error(path, lineno, "bad float") from exc
            tokens.append(parts[0])
            linenos.append(lineno)
        if len(tokens) != n:
            raise DataError(f"{path}: header says {n} rows, found {len(tokens)}")
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if len(bad):
        raise line_error(path, linenos[bad[0]], "non-finite vector value")
    return tokens, vectors


def save_container(path, arrays: Dict[str, np.ndarray],
                   meta: Optional[dict] = None) -> None:
    """Write named arrays with an explicit little-endian binary layout."""
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    with _atomic_open(path, "wb") as fh:
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


def restore_params(model, arrays: Dict[str, np.ndarray], source) -> None:
    """Copy `arrays`, a model container's or a snapshot's, into
    `model.params()` in place: the one way arrays go back into a model.
    They must name exactly the model's arrays, each with the model's
    shape and finite; otherwise a DataError names `source` and nothing is
    copied."""
    params = model.params()
    missing, extra = params.keys() - arrays.keys(), arrays.keys() - params.keys()
    if missing or extra:
        raise DataError(f"{source}: arrays do not match the model (missing "
                        f"{sorted(missing)}, unexpected {sorted(extra)})")
    for name, value in arrays.items():
        if value.shape != params[name].shape:
            raise DataError(f"{source}: array {name!r} has shape {value.shape}, "
                            f"the model's is {params[name].shape}")
        if not np.isfinite(value).all():
            raise DataError(f"{source}: array {name!r} has a non-finite value")
    for name, value in arrays.items():
        params[name][...] = value


def seed_rows(model, table: EmbeddingTable) -> int:
    """Copy `table`'s row of each of `model.tokens` it holds into the same
    row of `model.e`, as wide as the table; the rows of the other tokens
    keep their values. Returns the number of rows copied."""
    rows = [i for i, t in enumerate(model.tokens) if t in table]
    model.e[rows] = table.vectors[[table.token_to_id[model.tokens[i]]
                                   for i in rows]]
    return len(rows)


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
