"""Corpus ingestion: vocabularies, token normalization, subsampling, windowing.

A corpus is a sequence of documents, each a list of token strings. Documents
are independent training units: windows never cross document boundaries, and
only the order of whole documents may be shuffled.
"""

import math
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError
from .io_formats import open_text

TOKEN_NUMBER = "NUMBER"
TOKEN_WORD = "WORD"
TOKEN_PADDING = "PADDING"
PSEUDO_TOKENS = (TOKEN_NUMBER, TOKEN_WORD, TOKEN_PADDING)

# Character rows in a joint char/word table are keyed by this prefix so a
# single-character word and the character itself stay distinct.
CHAR_PREFIX = "\x01"

NOISE_EXPONENT = 0.75


def subsample_keep_probability(freq: float, t: float, variant: str = "toolkit") -> float:
    """Probability of keeping a token of relative frequency `freq`.

    `variant` selects between the published skip formula ("paper",
    1 - sqrt(t/f)) and the widely used toolkit formula ("toolkit",
    (f-t)/f - sqrt(t/f)). The keep probability is 1 minus the skip
    probability, clamped to [0, 1]; tokens with freq <= t are always kept.
    """
    if t <= 0:
        raise ValueError("subsampling threshold t must be positive")
    if variant == "paper":
        skip = 1.0 - math.sqrt(t / freq)
    elif variant == "toolkit":
        skip = (freq - t) / freq - math.sqrt(t / freq)
    else:
        raise ValueError(f"unknown subsampling variant: {variant!r}")
    return min(1.0, max(0.0, 1.0 - skip))


class Vocabulary:
    """Dense token<->id map with counts, keep-probabilities and noise weights."""

    def __init__(self, tokens: Sequence[str], counts: Sequence[int]):
        if len(tokens) == 0:
            raise DataError("empty vocabulary")
        if len(tokens) != len(counts):
            raise DataError("tokens and counts length mismatch")
        self.tokens = list(tokens)
        self.counts = np.asarray(counts, dtype=np.int64)
        if np.any(self.counts <= 0):
            raise DataError("vocabulary counts must be positive")
        self.token_to_id = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise DataError("duplicate tokens in vocabulary")
        self.total_count = int(self.counts.sum())
        # All-ones until configure_subsampling is called.
        self.keep_prob = np.ones(len(self.tokens))
        self.noise_weights = self.counts.astype(np.float64) ** NOISE_EXPONENT

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> Optional[int]:
        return self.token_to_id.get(token)

    def frequency(self, wid: int) -> float:
        return float(self.counts[wid]) / self.total_count

    def configure_subsampling(self, t: Optional[float], variant: str = "toolkit") -> None:
        """Set per-token keep probabilities; t=None disables subsampling."""
        if t is None:
            self.keep_prob = np.ones(len(self.tokens))
            return
        freqs = self.counts / self.total_count
        self.keep_prob = np.array(
            [subsample_keep_probability(f, t, variant) for f in freqs]
        )

    def encode(self, doc: Sequence[str]) -> np.ndarray:
        """Map a document to an id array, dropping out-of-vocabulary tokens."""
        table = self.token_to_id
        return np.array([table[t] for t in doc if t in table], dtype=np.int64)


def build_vocabulary(
    tokens: Iterable[str],
    min_count: int = 1,
    fixed_vocab: Optional[Iterable[str]] = None,
) -> Vocabulary:
    """Count a finite token stream into a Vocabulary.

    With `fixed_vocab`, only those tokens are counted (a closed vocabulary;
    everything else is ignored) and min_count still applies. Raises DataError
    if nothing survives.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: dict = {}
    allowed = set(fixed_vocab) if fixed_vocab is not None else None
    for tok in tokens:
        if allowed is not None and tok not in allowed:
            continue
        counts[tok] = counts.get(tok, 0) + 1
    kept = [(tok, c) for tok, c in counts.items() if c >= min_count]
    if not kept:
        raise DataError("no token reaches min_count; vocabulary would be empty")
    # Sort by descending count, then token, so ids are deterministic.
    kept.sort(key=lambda item: (-item[1], item[0]))
    return Vocabulary([t for t, _ in kept], [c for _, c in kept])


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok, count in zip(vocab.tokens, vocab.counts):
            fh.write(f"{tok}\t{int(count)}\n")


def load_vocabulary(path) -> Vocabulary:
    tokens, counts = [], []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'token<TAB>count'")
            tokens.append(parts[0])
            try:
                counts.append(int(parts[1]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad count {parts[1]!r}") from exc
    return Vocabulary(tokens, counts)


def normalize_token(raw: str, mode: str = "none") -> str:
    """Collapse digit runs to NUMBER and Latin-letter runs to WORD.

    Only active in segmentation mode. Previously inserted NUMBER/WORD marks
    are treated as atomic so normalization is idempotent.
    """
    if mode == "none":
        return raw
    if mode != "segmentation":
        raise ValueError(f"unknown normalization mode: {mode!r}")
    out = []
    i, n = 0, len(raw)
    while i < n:
        pseudo = _pseudo_at(raw, i)
        if pseudo:
            out.append(pseudo)
            i += len(pseudo)
        elif raw[i].isdigit():
            while i < n and raw[i].isdigit():
                i += 1
            out.append(TOKEN_NUMBER)
        elif _is_latin(raw[i]):
            while i < n and _is_latin(raw[i]) and not _pseudo_at(raw, i):
                i += 1
            out.append(TOKEN_WORD)
        else:
            out.append(raw[i])
            i += 1
    return "".join(out)


def _pseudo_at(raw: str, i: int):
    for pseudo in PSEUDO_TOKENS:
        if raw.startswith(pseudo, i):
            return pseudo
    return None


def _is_latin(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z")


def decompose_word(word: str) -> list:
    """Split a token into its characters; pseudo-tokens stay atomic."""
    if word in PSEUDO_TOKENS:
        return [word]
    return list(word)


class CorpusStream:
    """A list of documents, each a list of token strings."""

    def __init__(self, documents: Sequence[Sequence[str]]):
        self.documents = [list(doc) for doc in documents]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def token_count(self) -> int:
        return sum(len(d) for d in self.documents)

    def all_tokens(self) -> Iterator[str]:
        for doc in self.documents:
            yield from doc

    @classmethod
    def from_text_file(cls, path, blank_line_docs: bool = False) -> "CorpusStream":
        """Read UTF-8 text; one document per line, or blank-line separated."""
        docs = []
        with open_text(path) as fh:
            if not blank_line_docs:
                for line in fh:
                    tokens = line.split()
                    if tokens:
                        docs.append(tokens)
            else:
                current: list = []
                for line in fh:
                    tokens = line.split()
                    if tokens:
                        current.extend(tokens)
                    elif current:
                        docs.append(current)
                        current = []
                if current:
                    docs.append(current)
        if not docs:
            raise DataError(f"{path}: no documents found")
        return cls(docs)


def shuffle_documents(corpus: CorpusStream, seed) -> CorpusStream:
    """Permute document order deterministically; in-document order is kept."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    order = rng.permutation(len(corpus.documents))
    return CorpusStream([corpus.documents[i] for i in order])


class WindowSample(NamedTuple):
    target: int
    context: tuple
    n_left: int  # how many context ids sit left of the target


def subsample_ids(ids: np.ndarray, vocab: Vocabulary, rng: np.random.Generator) -> np.ndarray:
    """Independently drop each token with probability 1 - keep_prob."""
    if len(ids) == 0:
        return ids
    keep = rng.random(len(ids)) < vocab.keep_prob[ids]
    return ids[keep]


def iter_windows(
    corpus: CorpusStream,
    vocab: Vocabulary,
    win: int,
    subsample: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[WindowSample]:
    """Stream (target, context) windows over the corpus.

    OOV tokens are removed first, then (optionally) subsampling, then
    windowing; windows are truncated at document boundaries. Every surviving
    token appears exactly once as a target.
    """
    if win % 2 == 0 or win < 1:
        raise ValueError("window size must be odd and positive")
    if subsample and rng is None:
        raise ValueError("subsampling requires an rng")
    half = (win - 1) // 2
    for doc in corpus.documents:
        ids = vocab.encode(doc)
        if subsample:
            ids = subsample_ids(ids, vocab, rng)
        n = len(ids)
        for i in range(n):
            lo = max(0, i - half)
            hi = min(n, i + half + 1)
            context = tuple(ids[lo:i]) + tuple(ids[i + 1:hi])
            yield WindowSample(int(ids[i]), context, i - lo)


def document_window_arrays(ids: np.ndarray, win: int):
    """Vectorized windowing of one encoded document.

    Returns (targets, context) where context is (n, win-1) with -1 in slots
    that fall outside the document. Column s corresponds to relative offset
    offsets[s] with offsets = [-h..-1, 1..h].
    """
    half = (win - 1) // 2
    n = len(ids)
    targets = ids
    ctx = np.full((n, win - 1), -1, dtype=np.int64)
    col = 0
    for off in range(-half, half + 1):
        if off == 0:
            continue
        if off < 0:
            ctx[-off:, col] = ids[:n + off]
        else:
            ctx[:n - off, col] = ids[off:]
        col += 1
    return targets, ctx
