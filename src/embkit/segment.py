"""Character-tagging word segmentation: a three-layer feed-forward scorer
over character windows, Viterbi decoding under hard BMES transition
constraints, and span-based P/R/F scoring.

Tag order is B, M, E, S (ids 0..3). Legal transitions: B->{M,E}, M->{M,E},
E->{B,S}, S->{B,S}; sentences must start in {B,S} and end in {E,S}.

Text becomes characters through the one scanner, `corpus.line_to_chars`,
for gold words and raw lines alike; a decoded word is the text its
characters were read from.
"""

import math
from functools import partial
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .corpus import (TOKEN_PADDING, UNK_TOKEN, line_to_chars, padded_blocks,
                     window_matrix)
from .errors import DataError, check_sizes, check_window
from .io_formats import numbered_lines
from .optim import (EpochRecord, apply_grads, check_optimizer, check_rate,
                    log_softmax, run_epochs, softmax_cross_entropy)
from .seeding import substream

TAGS = "BMES"
TAG_ID = {t: i for i, t in enumerate(TAGS)}
B, M, E, S = range(4)
LEGAL_NEXT = {B: (M, E), M: (M, E), E: (B, S), S: (B, S)}
LEGAL_START = (B, S)
LEGAL_END = (E, S)


class TaggedSentence(NamedTuple):
    chars: Tuple[str, ...]
    tags: str

    def check(self) -> "TaggedSentence":
        if len(self.chars) != len(self.tags):
            raise DataError("character and tag lengths differ")
        if not self.tags:
            raise DataError("empty sentence")
        if TAG_ID[self.tags[0]] not in LEGAL_START or TAG_ID[self.tags[-1]] not in LEGAL_END:
            raise DataError(f"illegal start/end tags in {self.tags!r}")
        for a, b in zip(self.tags, self.tags[1:]):
            if TAG_ID[b] not in LEGAL_NEXT[TAG_ID[a]]:
                raise DataError(f"illegal transition {a}->{b}")
        return self


def tags_from_segmentation(words: Sequence[str]) -> TaggedSentence:
    """S for one-character words, otherwise B (M...) E."""
    if not words:
        raise DataError("empty sentence")
    chars: List[str] = []
    tags: List[str] = []
    for word in words:
        pieces = line_to_chars(word, normalize=False)
        if not pieces:
            raise DataError("empty word in segmentation")
        chars.extend(pieces)
        if len(pieces) == 1:
            tags.append("S")
        else:
            tags.append("B")
            tags.extend("M" * (len(pieces) - 2))
            tags.append("E")
    return TaggedSentence(tuple(chars), "".join(tags))


def _words_from_tags(chars: Sequence[str], tags: str) -> List[str]:
    # a word ends at each E or S; the tags must be legal
    words: List[str] = []
    start = 0
    for i, tag in enumerate(tags):
        if tag in ("E", "S"):
            words.append("".join(chars[start:i + 1]))
            start = i + 1
    return words


def _spans(words: Sequence[str]) -> set:
    spans = set()
    pos = 0
    for w in words:
        spans.add((pos, pos + len(w)))
        pos += len(w)
    return spans


def prf_corpus(pred: Sequence[Sequence[str]], gold: Sequence[Sequence[str]]) -> dict:
    """Micro-averaged P/R/F over a corpus of sentences."""
    hits = n_pred = n_gold = 0
    for k, (p, g) in enumerate(zip(pred, gold), start=1):
        if "".join(p) != "".join(g):
            raise DataError("predicted and gold segmentations cover different "
                            f"text in sentence {k}")
        ps, gs = _spans(p), _spans(g)
        hits += len(ps & gs)
        n_pred += len(ps)
        n_gold += len(gs)
    precision = hits / n_pred if n_pred else 0.0
    recall = hits / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


class SegmenterNet:
    """tanh hidden layer over win concatenated char vectors, 4 output nodes.
    `normalize` records whether its characters were read with digit and
    Latin runs normalized, so that decoding reads text the same way."""

    def __init__(self, chars: Sequence[str], dim: int, hidden: int = 100,
                 win: int = 5, rng: Optional[np.random.Generator] = None,
                 normalize: bool = True):
        check_window(win)
        check_sizes(dim=dim, hidden=hidden)
        if not isinstance(normalize, bool):
            raise TypeError(f"normalize must be true or false, not {normalize!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        base = list(chars) + [s for s in (TOKEN_PADDING, UNK_TOKEN)
                              if s not in chars]
        self.chars = self.tokens = base  # `tokens`, as every model names them
        self.char_to_id = {c: i for i, c in enumerate(base)}
        self.dim = dim
        self.hidden = hidden
        self.win = win
        self.normalize = normalize
        v = len(base)
        fan_in = win * dim
        self.e = rng.uniform(-0.5 / dim, 0.5 / dim, size=(v, dim))
        self.H = rng.uniform(-1, 1, size=(hidden, fan_in)) / math.sqrt(fan_in)
        self.b1 = np.zeros(hidden)
        self.U = rng.uniform(-1, 1, size=(4, hidden)) / math.sqrt(hidden)
        self.b2 = np.zeros(4)

    @property
    def padding_id(self) -> int:
        return self.char_to_id[TOKEN_PADDING]

    def encode(self, chars: Sequence[str]) -> np.ndarray:
        unk = self.char_to_id[UNK_TOKEN]
        return np.array([self.char_to_id.get(c, unk) for c in chars], dtype=np.int64)

    def windows(self, chars: Sequence[str]) -> np.ndarray:
        """(n, win) character-id windows of a sentence, PADDING-filled."""
        return window_matrix(self.encode(chars), self.win, self.padding_id)

    def params(self) -> dict:
        return {"e": self.e, "H": self.H, "b1": self.b1, "U": self.U, "b2": self.b2}

    def meta(self) -> dict:
        """Container metadata: the constructor's arguments. A container
        without `normalize`, written before it was recorded, loads normalized."""
        return {"chars": self.chars, "dim": self.dim, "hidden": self.hidden,
                "win": self.win, "normalize": self.normalize}


def _forward(net: SegmenterNet, windows: np.ndarray):
    """Inputs X, hidden layer h and tag scores of (b, win) character-id
    windows."""
    X = net.e[windows].reshape(len(windows), -1)
    h = np.tanh(net.b1 + X @ net.H.T)
    return X, h, net.b2 + h @ net.U.T


def sentence_log_probs(net: SegmenterNet, chars: Sequence[str]) -> np.ndarray:
    """(n, 4) log-probability lattice for a whole sentence, batched."""
    return log_softmax(_forward(net, net.windows(chars))[2])


def segment_loss_grads(net: SegmenterNet, windows: np.ndarray,
                       golds: np.ndarray):
    """Summed negative log-likelihood of the gold tags of a `(b, win)` batch
    of windows and the gradients of that sum. The `e` gradient is a
    `(windows.ravel(), rows)` pair; `step_rows` adds up repeated ids."""
    X, h, scores = _forward(net, windows)
    loss, dy = softmax_cross_entropy(scores, golds)
    dz = (dy @ net.U) * (1.0 - h * h)
    de = (dz @ net.H).reshape(-1, net.dim)
    return float(loss.sum()), {
        "e": (windows.ravel(), de), "H": dz.T @ X, "b1": dz.sum(axis=0),
        "U": dy.T @ h, "b2": dy.sum(axis=0)}


TRAIN_BATCH = 8  # (character, gold tag) samples per optimizer step


def train_segmenter(net: SegmenterNet, corpus: Sequence[TaggedSentence],
                    lr: float = 0.1, epochs: int = 20, seed: int = 0,
                    optimizer: str = "adagrad") -> List[EpochRecord]:
    """One step per batch of TRAIN_BATCH (character, gold tag) samples,
    taken in random order; the gradient of a batch is its summed loss's.

    Character vectors are parameters and receive updates, including the
    PADDING row when it falls inside a window.
    """
    check_rate(lr)
    check_optimizer(optimizer)
    if not corpus:
        raise DataError("empty training corpus")
    sents = [sent.check() for sent in corpus]
    windows = np.concatenate([net.windows(s.chars) for s in sents])
    golds = np.array([TAG_ID[t] for s in sents for t in s.tags])

    def batches(epoch):
        order = substream(seed, f"segmenter-epoch-{epoch}").permutation(len(golds))
        for lo in range(0, len(order), TRAIN_BATCH):
            batch = order[lo:lo + TRAIN_BATCH]
            yield (*segment_loss_grads(net, windows[batch], golds[batch]),
                   len(batch))

    params = net.params()
    step = partial(apply_grads, params, rates=dict.fromkeys(params, lr),
                   accum={} if optimizer == "adagrad" else None)
    return run_epochs(epochs, lambda e: (len(golds), [batches(e)]), step)


# A block holds the tags as the 2x2 grid [[M, E], [B, S]]: the successors
# of a tag in column c are row c (M and E follow B and M; B and S follow E
# and S), each row lists its smaller tag first, a sentence starts in row 1
# and ends in column 1.
_GRID = np.array([[M, E], [B, S]])
_TAG_BYTES = np.frombuffer(TAGS.encode("ascii"), dtype=np.uint8)
DECODE_BLOCK = 1 << 16  # padded character positions per batched Viterbi


def viterbi_decode_block(lattices: Sequence[np.ndarray]
                         ) -> Tuple[List[str], np.ndarray]:
    """Best legal BMES sequence of each nonempty (n_k, 4) lattice, with one
    backward pass over positions for the whole block.

    The lattices are right-aligned in a -inf-padded array. Ties break toward
    the lexicographically smallest tag sequence under B < M < E < S. Returns
    (tags per lattice, path scores); raises DataError when any lattice has
    no legal tag sequence.
    """
    lengths = np.array([len(lat) for lat in lattices])
    nb, T = len(lattices), int(lengths.max())
    starts = T - lengths
    L = np.full((nb, T, 2, 2), -np.inf)
    for k, lat in enumerate(lattices):
        L[k, starts[k]:] = lat[:, _GRID]
    # C[k, i, r, c]: best score of a legal suffix starting at i with tag
    # _GRID[r, c]; each step adds the best of the successor row
    C = np.empty_like(L)
    C[:, T - 1, :, 0] = -np.inf
    C[:, T - 1, :, 1] = L[:, T - 1, :, 1]
    for i in range(T - 2, -1, -1):
        best = np.maximum(C[:, i + 1, :, 0], C[:, i + 1, :, 1])
        np.add(L[:, i], best[:, None, :], out=C[:, i])
    rows = np.arange(nb)
    totals = np.maximum(C[rows, starts, 1, 0], C[rows, starts, 1, 1])
    if (totals == -np.inf).any():
        raise DataError("no legal tag sequence for this lattice")
    # Walk forward: the row is the previous tag's column, and column 1 is
    # taken only when strictly better, so ties go to the smaller tag.
    # Padding positions take column 1, so every sentence starts in row 1.
    padding = np.arange(T) < starts[:, None]
    col = np.empty((nb, T + 1), dtype=np.intp)
    col[:, 0] = 1
    for i in range(T):
        x = C[rows, i, col[:, i]]
        col[:, i + 1] = (x[:, 1] > x[:, 0]) | padding[:, i]
    chars = _TAG_BYTES[_GRID[col[:, :-1], col[:, 1:]]]
    return ([chars[k, starts[k]:].tobytes().decode("ascii") for k in range(nb)],
            totals)


def viterbi_decode(lattice: np.ndarray) -> Tuple[str, float]:
    """Best legal BMES sequence for an (n, 4) log-probability lattice.

    Ties break toward the lexicographically smallest tag sequence under
    B < M < E < S. Returns (tags, path score).
    """
    lattice = np.asarray(lattice, dtype=np.float64)
    if lattice.ndim != 2 or lattice.shape[1] != 4 or lattice.shape[0] == 0:
        raise DataError("lattice must be a nonempty (n, 4) array")
    tags, totals = viterbi_decode_block([lattice])
    return tags[0], float(totals[0])


def decode_sentences(net: SegmenterNet, sentences: Iterable[Sequence[str]],
                     texts: Optional[Iterable[Sequence[str]]] = None
                     ) -> Iterator[List[str]]:
    """Words of each character sequence, in order; an empty one gives [].
    A word joins its characters, or with `texts` (read in step with
    `sentences`, one per sentence) the texts its characters were read from.

    Reads `sentences` lazily in blocks of at most DECODE_BLOCK padded
    positions: one lattice per sentence, one batched Viterbi per block.
    """
    texts = None if texts is None else iter(texts)
    for block in padded_blocks(sentences, DECODE_BLOCK):
        yield from _decode_block(net, block, None if texts is None
                                 else [next(texts) for _ in block])


def _decode_block(net: SegmenterNet, block: List[Sequence[str]],
                  texts: Optional[List[Sequence[str]]] = None
                  ) -> List[List[str]]:
    full = [(chars, text) for chars, text in zip(block, texts or block)
            if len(chars)]
    tags = viterbi_decode_block([sentence_log_probs(net, chars)
                                 for chars, _ in full])[0] if full else []
    # Viterbi output is legal, so the words skip TaggedSentence.check
    words = (_words_from_tags(text, t) for (_, text), t in zip(full, tags))
    return [next(words) if len(chars) else [] for chars in block]


def decode_sentence(net: SegmenterNet, chars: Sequence[str]) -> List[str]:
    return next(decode_sentences(net, [chars]))


# --- data files ---------------------------------------------------------------

def parse_segmented_line(line: str, normalize: bool = True) -> List[str]:
    """One sentence per line; words separated by '/' or whitespace, each
    spelled by `line_to_chars`. A word with no characters is dropped."""
    words = line.split("/") if "/" in line else line.split()
    return [w for w in ("".join(line_to_chars(w, normalize)) for w in words) if w]


def load_segmented_corpus(path, normalize: bool = True):
    """The sentences of a segmented file, one per line with a word, and the
    line number of each: `(sentences, linenos)`."""
    numbered = [(words, lineno) for lineno, line in numbered_lines(path)
                if (words := parse_segmented_line(line, normalize))]
    if not numbered:
        raise DataError(f"{path}: no sentences found")
    return [w for w, _ in numbered], [n for _, n in numbered]
