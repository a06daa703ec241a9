"""Corpus ingestion: vocabularies, subsampling, windowing, and the one
scanner from text to characters.

A corpus is read once into ids: its distinct tokens, an int32 id per token
and the start offset of each document. Documents are independent training
units: windows never cross document boundaries, and only the order of
whole documents may be shuffled.
"""

import copy
import itertools
from array import array
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError, check_sizes, check_window
from .io_formats import (_atomic_open, line_error, numbered_lines, open_text,
                         strip_newline)

TOKEN_NUMBER = "NUMBER"
TOKEN_WORD = "WORD"
TOKEN_PADDING = "PADDING"
PSEUDO_TOKENS = (TOKEN_NUMBER, TOKEN_WORD, TOKEN_PADDING)
UNK_TOKEN = "\x02UNK"  # a model's row for every token outside its vocabulary

# Character rows in a joint char/word table are keyed by this prefix so a
# single-character word and the character itself stay distinct.
CHAR_PREFIX = "\x01"


def subsample_keep_probability(freq, t: float, variant: str = "toolkit"):
    """Probability of keeping a token of relative frequency `freq`, or an
    array of them for an array of frequencies.

    `variant` selects between the published skip formula ("paper",
    1 - sqrt(t/f)) and the widely used toolkit formula ("toolkit",
    (f-t)/f - sqrt(t/f)). The keep probability is 1 minus the skip
    probability, clamped to [0, 1]; tokens with freq <= t are always kept.
    """
    if not t > 0:  # NaN too
        raise ValueError("subsampling threshold t must be positive")
    if variant == "paper":
        skip = 1.0 - np.sqrt(t / freq)
    elif variant == "toolkit":
        skip = (freq - t) / freq - np.sqrt(t / freq)
    else:
        raise ValueError(f"unknown subsampling variant: {variant!r}")
    return np.clip(1.0 - skip, 0.0, 1.0)


class Vocabulary:
    """Dense token<->id map with counts."""

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

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, corpus: "CorpusStream"):
        """`(ids, starts)` of `corpus` in this vocabulary; out-of-vocabulary
        tokens and then empty documents are dropped. One lookup per type."""
        remap = np.array([self.token_to_id.get(t, -1) for t in corpus.types], np.int32)
        ids = remap[corpus.ids]
        dropped = np.flatnonzero(ids < 0)
        starts = np.unique(corpus.starts - np.searchsorted(dropped, corpus.starts))
        return np.delete(ids, dropped), starts[starts < len(ids) - len(dropped)]


def build_vocabulary(
    corpus: "CorpusStream",
    min_count: int = 1,
    fixed_vocab: Optional[Iterable[str]] = None,
) -> Vocabulary:
    """Count a corpus's tokens into a Vocabulary.

    With `fixed_vocab`, only those tokens are counted (a closed vocabulary;
    everything else is ignored) and min_count still applies. Raises DataError
    if nothing survives.
    """
    check_sizes(min_count=min_count)
    types = corpus.types
    counts = np.bincount(corpus.ids, minlength=len(types))
    if fixed_vocab is not None:
        fixed = set(fixed_vocab)
        counts[[t not in fixed for t in types]] = 0
    kept = sorted(np.flatnonzero(counts >= min_count).tolist(), key=types.__getitem__)
    if not kept:
        raise DataError("no token reaches min_count; vocabulary would be empty")
    # By descending count, then token, so ids are deterministic: the sort
    # is stable, so equal counts stay in token order.
    kept.sort(key=counts.tolist().__getitem__, reverse=True)
    return Vocabulary([types[i] for i in kept], counts[kept])


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with _atomic_open(path, "w", encoding="utf-8") as fh:
        for tok, count in zip(vocab.tokens, vocab.counts):
            fh.write(f"{tok}\t{int(count)}\n")


def load_vocabulary(path) -> Vocabulary:
    tokens, counts, seen = [], [], set()
    for lineno, line in numbered_lines(path, strip_newline):
        parts = line.split("\t")
        if len(parts) != 2:
            raise line_error(path, lineno, "expected 'token<TAB>count'")
        try:
            count = int(parts[1])
        except ValueError:
            count = 0
        if count < 1:
            raise line_error(path, lineno, f"count {parts[1]!r} is not "
                             f"a positive integer")
        if parts[0] in seen:
            raise line_error(path, lineno, f"token {parts[0]!r} appears twice")
        seen.add(parts[0])
        tokens.append(parts[0])
        counts.append(count)
    return Vocabulary(tokens, counts)


def line_to_chars(line: str, normalize: bool = True, texts: bool = False):
    """Character sequence of a line or a word: the one scanner from text to
    segmenter characters and to the spelling of char-word vocabularies.
    Spaces are dropped and pseudo-tokens stay atomic; with normalization, a
    digit run is one NUMBER and a Latin run one WORD. With `texts`, returns
    `(chars, texts)`, where texts[k] is the text chars[k] was read from.
    """
    text = line.strip().replace(" ", "")
    chars: List[str] = []
    starts: List[int] = []
    i, n = 0, len(text)
    while i < n:
        starts.append(i)
        char = _pseudo_at(text, i)
        if char:
            i += len(char)
        elif normalize and text[i].isdigit():
            while i < n and text[i].isdigit():
                i += 1
            char = TOKEN_NUMBER
        elif normalize and _is_latin(text[i]):
            while i < n and _is_latin(text[i]) and not _pseudo_at(text, i):
                i += 1
            char = TOKEN_WORD
        else:
            char = text[i]
            i += 1
        chars.append(char)
    if texts:
        return chars, [text[a:b] for a, b in zip(starts, starts[1:] + [n])]
    return chars


_PSEUDO_FIRST = frozenset(p[0] for p in PSEUDO_TOKENS)


def _pseudo_at(text: str, i: int):
    """The pseudo-token that starts at text[i], or None; i < len(text)."""
    if text[i] in _PSEUDO_FIRST:  # skips the scan for almost every character
        for pseudo in PSEUDO_TOKENS:
            if text.startswith(pseudo, i):
                return pseudo
    return None


def _is_latin(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z")


class CorpusStream:
    """A corpus as ids: `types` are its distinct tokens in first-seen order,
    `ids` (int32) the index into `types` of each token, documents one after
    another, and `starts` the offset of each document in `ids`. Built from
    `documents`, token lists that may be empty, in one pass."""

    def __init__(self, documents: Iterable[Sequence[str]]):
        index: dict = {}  # type -> the position where it first occurs
        position = itertools.count()
        first, starts = array("q"), []  # each token's type's first position
        for doc in documents:
            starts.append(len(first))
            first.fromlist(list(map(index.setdefault, doc, position)))  # in C
        self.types = list(index)
        type_at = np.empty(len(first), dtype=np.int32)  # first position -> id
        type_at[list(index.values())] = np.arange(len(index))
        self.ids = type_at[np.frombuffer(first, dtype=np.int64)]
        self.starts = np.array(starts, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.starts)

    @classmethod
    def from_text_file(cls, path, blank_line_docs: bool = False) -> "CorpusStream":
        """Read UTF-8 text; one document per line, or blank-line separated."""
        with open_text(path) as fh:
            docs = (line.split() for line in fh)
            if blank_line_docs:  # runs of lines with tokens; blank runs are empty
                runs = itertools.groupby(docs, bool)
                docs = (list(itertools.chain.from_iterable(run)) for _, run in runs)
            corpus = cls(filter(None, docs))
        if not len(corpus):
            raise DataError(f"{path}: no documents found")
        return corpus


def select_documents(ids: np.ndarray, starts: np.ndarray, which):
    """`(ids, starts)` of the documents `which` (an index into `starts`)."""
    lengths = np.diff(starts, append=len(ids))[which]
    new_starts = np.cumsum(lengths) - lengths
    positions = np.repeat(starts[which] - new_starts, lengths) + np.arange(lengths.sum())
    return ids[positions], new_starts


def shuffle_documents(corpus: CorpusStream, seed) -> CorpusStream:
    """Permute document order deterministically; in-document order is kept."""
    order = np.random.default_rng(seed).permutation(len(corpus))  # seed or Generator
    shuffled = copy.copy(corpus)
    shuffled.ids, shuffled.starts = select_documents(corpus.ids, corpus.starts, order)
    return shuffled


class WindowSample(NamedTuple):
    target: int
    context: tuple
    n_left: int  # how many context ids sit left of the target


def subsample_ids(ids: np.ndarray, keep_prob: np.ndarray, rng: np.random.Generator,
                  starts: Optional[np.ndarray] = None) -> np.ndarray:
    """Independently drop each token id i with probability 1 - keep_prob[i];
    the kept ids. `starts`, document start offsets into `ids`, are moved in
    place to those of the same documents among the kept ids."""
    dropped = np.flatnonzero(rng.random(len(ids)) >= keep_prob[ids])
    if starts is not None:
        starts -= np.searchsorted(dropped, starts)
    return np.delete(ids, dropped)


def iter_windows(
    corpus: CorpusStream,
    vocab: Vocabulary,
    win: int,
    keep_prob: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[WindowSample]:
    """Stream (target, context) windows over the corpus.

    OOV tokens are removed first, then, given the per-id `keep_prob`,
    subsampling with `rng`, then windowing; windows are truncated at
    document boundaries. Every surviving token appears exactly once as a
    target.
    """
    check_window(win)
    if keep_prob is not None and rng is None:
        raise ValueError("subsampling requires an rng")
    half = (win - 1) // 2
    ids, starts = vocab.encode(corpus)
    if keep_prob is not None:
        ids = subsample_ids(ids, keep_prob, rng, starts)
    for row in window_matrix(ids, win, -1, starts).tolist():
        left = [i for i in row[:half] if i >= 0]
        context = left + [i for i in row[half + 1:] if i >= 0]
        yield WindowSample(row[half], tuple(context), len(left))


def document_window_arrays(ids: np.ndarray, win: int):
    """Targets and (n, win-1) context slots of one encoded document, -1 in
    the slots outside it: `window_matrix` without its middle column."""
    return ids, np.delete(window_matrix(ids, win, -1), (win - 1) // 2, 1)


def window_matrix(ids: np.ndarray, win: int, pad: int,
                  starts: Optional[Sequence[int]] = None, lo: int = 0,
                  hi: Optional[int] = None) -> np.ndarray:
    """Windows of the positions lo..hi-1 of `ids`, one row each.

    Row r holds ids[i-h .. i+h] for i = lo + r and h = (win-1)/2. `ids` is
    one sequence, or with `starts` (ascending document start offsets, the
    first 0) the concatenation of several; a slot outside row i's
    document holds `pad`.
    """
    n = len(ids)
    if hi is None:
        hi = n
    half = (win - 1) // 2
    offsets = range(-half, half + 1)
    out = np.full((hi - lo, win), pad, dtype=np.int64)
    # Conditional expressions, not max/min: a one-sentence call is mostly
    # interpreter time.
    for col, off in enumerate(offsets):
        a = lo if lo > -off else -off  # rows i in [a, b) have i + off in [0, n)
        b = hi if hi < n - off else n - off
        if a < b:
            out[a - lo:b - lo, col] = ids[a + off:b + off]
    if starts is None:
        return out
    # Blank the slots that reach across a document start s: rows s..s+|off|-1
    # to its left, rows s-off..s-1 to its right.
    starts = np.asarray(starts)
    first, last = np.searchsorted(starts, (lo - half + 1, hi + half))
    cuts = starts[max(first, 1):last]
    for col, off in enumerate(offsets):
        shift = np.arange(abs(off)) - max(off, 0) - lo
        rows = (cuts[:, None] + shift).ravel()
        out[rows[(rows >= 0) & (rows < hi - lo)], col] = pad
    return out


def padded_blocks(seqs: Iterable[Sequence], limit: int) -> Iterator[list]:
    """Consecutive blocks of `seqs`, read lazily. A block grows while its
    size times its longest length (at least 1) stays within `limit`, the
    padded positions of a batch; a longer sequence is a block alone."""
    block: list = []
    width = 0
    for seq in seqs:
        n = max(len(seq), 1)
        if block and (len(block) + 1) * max(width, n) > limit:
            yield block
            block, width = [], 0
        block.append(seq)
        width = max(width, n)
    if block:
        yield block
