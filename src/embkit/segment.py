"""Character-tagging word segmentation: a three-layer feed-forward scorer
over character windows, Viterbi decoding under hard BMES transition
constraints, and span-based P/R/F scoring.

Tag order is B, M, E, S (ids 0..3). Legal transitions: B->{M,E}, M->{M,E},
E->{B,S}, S->{B,S}; sentences must start in {B,S} and end in {E,S}.
"""

import math
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .corpus import (PSEUDO_TOKENS, TOKEN_PADDING, decompose_word,
                     normalize_token)
from .errors import DataError
from .io_formats import EmbeddingTable, open_text
from .optim import log_softmax, step_dense, step_rows
from .seeding import substream

TAGS = "BMES"
TAG_ID = {t: i for i, t in enumerate(TAGS)}
B, M, E, S = range(4)
LEGAL_NEXT = {B: (M, E), M: (M, E), E: (B, S), S: (B, S)}
LEGAL_START = (B, S)
LEGAL_END = (E, S)

UNK_CHAR = "\x02UNK"


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
        pieces = _word_units(word)
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


def _word_units(word: str) -> List[str]:
    # Pseudo-tokens (NUMBER, WORD) act as single characters.
    return decompose_word(word)


def segmentation_from_tags(sentence: TaggedSentence) -> List[str]:
    sentence.check()
    words: List[str] = []
    start = 0
    for i, tag in enumerate(sentence.tags):
        if tag in ("E", "S"):
            words.append("".join(sentence.chars[start:i + 1]))
            start = i + 1
    return words


def prf_score(pred_words: Sequence[str], gold_words: Sequence[str]) -> dict:
    """Span precision/recall/F over (start, end) word spans."""
    if "".join(pred_words) != "".join(gold_words):
        raise DataError("predicted and gold segmentations cover different text")
    pred_spans = _spans(pred_words)
    gold_spans = _spans(gold_words)
    hits = len(pred_spans & gold_spans)
    precision = hits / len(pred_spans) if pred_spans else 0.0
    recall = hits / len(gold_spans) if gold_spans else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


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
    for p, g in zip(pred, gold):
        if "".join(p) != "".join(g):
            raise DataError("predicted and gold segmentations cover different text")
        ps, gs = _spans(p), _spans(g)
        hits += len(ps & gs)
        n_pred += len(ps)
        n_gold += len(gs)
    precision = hits / n_pred if n_pred else 0.0
    recall = hits / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


class SegmenterNet:
    """tanh hidden layer over win concatenated char vectors, 4 output nodes."""

    def __init__(self, chars: Sequence[str], dim: int, hidden: int = 100,
                 win: int = 5, rng: Optional[np.random.Generator] = None):
        if win % 2 == 0 or win < 1:
            raise ValueError("win must be odd")
        rng = rng if rng is not None else np.random.default_rng(0)
        base = list(chars)
        for special in (TOKEN_PADDING, UNK_CHAR):
            if special not in base:
                base.append(special)
        self.chars = base
        self.char_to_id = {c: i for i, c in enumerate(base)}
        self.dim = dim
        self.hidden = hidden
        self.win = win
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

    def load_char_vectors(self, table: EmbeddingTable) -> int:
        """Initialize rows from an embedding table; returns rows loaded."""
        if table.dim != self.dim:
            raise DataError(f"embedding dim {table.dim} != net dim {self.dim}")
        loaded = 0
        for tok, row in zip(table.tokens, table.vectors):
            cid = self.char_to_id.get(tok)
            if cid is not None:
                self.e[cid] = row
                loaded += 1
        return loaded

    def encode(self, chars: Sequence[str]) -> np.ndarray:
        unk = self.char_to_id[UNK_CHAR]
        return np.array([self.char_to_id.get(c, unk) for c in chars], dtype=np.int64)

    def window_ids(self, ids: np.ndarray, i: int) -> np.ndarray:
        half = (self.win - 1) // 2
        pad = self.padding_id
        out = np.full(self.win, pad, dtype=np.int64)
        lo = max(0, i - half)
        hi = min(len(ids), i + half + 1)
        out[lo - (i - half):hi - (i - half)] = ids[lo:hi]
        return out

    def params(self) -> dict:
        return {"e": self.e, "H": self.H, "b1": self.b1, "U": self.U, "b2": self.b2}


def tag_log_probs(net: SegmenterNet, chars: Sequence[str], i: int) -> np.ndarray:
    """Log-probabilities of B, M, E, S for position i of the sentence."""
    ids = net.encode(chars)
    if not (0 <= i < len(ids)):
        raise DataError("position out of range")
    window = net.window_ids(ids, i)
    x = net.e[window].reshape(-1)
    h = np.tanh(net.b1 + net.H @ x)
    y = net.b2 + net.U @ h
    return log_softmax(y)


def sentence_log_probs(net: SegmenterNet, chars: Sequence[str]) -> np.ndarray:
    """(n, 4) log-probability lattice for a whole sentence, batched."""
    ids = net.encode(chars)
    n = len(ids)
    windows = np.stack([net.window_ids(ids, i) for i in range(n)])
    x = net.e[windows].reshape(n, -1)
    h = np.tanh(net.b1 + x @ net.H.T)
    y = net.b2 + h @ net.U.T
    return log_softmax(y)


def segment_loss_grads(net: SegmenterNet, window: np.ndarray, gold: int):
    """Negative log-likelihood of the gold tag and gradients of that loss."""
    x = net.e[window].reshape(-1)
    z = net.b1 + net.H @ x
    h = np.tanh(z)
    y = net.b2 + net.U @ h
    lsm = log_softmax(y)
    loss = -float(lsm[gold])
    dy = np.exp(lsm)
    dy[gold] -= 1.0
    dU = np.outer(dy, h)
    db2 = dy
    dh = net.U.T @ dy
    dz = dh * (1.0 - h * h)
    db1 = dz
    dH = np.outer(dz, x)
    dx = net.H.T @ dz
    de = dx.reshape(net.win, net.dim)
    return loss, {"e": (window, de), "H": dH, "b1": db1, "U": dU, "b2": db2}


def train_segmenter(net: SegmenterNet, corpus: Sequence[TaggedSentence],
                    lr: float = 0.1, epochs: int = 20, seed: int = 0,
                    optimizer: str = "adagrad", log_fn=None) -> List[dict]:
    """SGD over randomly ordered (character, gold tag) samples.

    Character vectors are parameters and receive updates, including the
    PADDING row when it falls inside a window.
    """
    if not corpus:
        raise DataError("empty training corpus")
    sents = [(net.encode(s.chars), np.array([TAG_ID[t] for t in s.tags]))
             for s in (sent.check() for sent in corpus)]
    samples = [(si, i) for si, (ids, _) in enumerate(sents) for i in range(len(ids))]
    accum = {k: np.zeros_like(v) for k, v in net.params().items()} \
        if optimizer == "adagrad" else None
    history = []
    for epoch in range(epochs):
        rng = substream(seed, f"segmenter-epoch-{epoch}")
        order = rng.permutation(len(samples))
        total, t0 = 0.0, time.perf_counter()
        for n in order:
            si, i = samples[n]
            ids, tags = sents[si]
            window = net.window_ids(ids, i)
            loss, grads = segment_loss_grads(net, window, int(tags[i]))
            total += loss
            _segment_apply(net, grads, lr, accum)
        history.append({"epoch": epoch, "mean_loss": total / len(samples),
                        "seconds": time.perf_counter() - t0})
        if log_fn is not None:
            log_fn(f"epoch={epoch} mean_loss={history[-1]['mean_loss']:.6f}")
    return history


def _segment_apply(net: SegmenterNet, grads: dict, lr: float, accum) -> None:
    """Descent step: the optimizer steps ascend, so they get -grad."""
    for name, g in grads.items():
        acc = accum[name] if accum is not None else None
        if name == "e":
            window, de = g
            step_rows(net.e, window, -de, lr, acc)
        else:
            step_dense(getattr(net, name), -g, lr, acc)


def viterbi_decode(lattice: np.ndarray) -> Tuple[str, float]:
    """Best legal BMES sequence for an (n, 4) log-probability lattice.

    Ties break toward the lexicographically smallest tag sequence under
    B < M < E < S. Returns (tags, path score).
    """
    lattice = np.asarray(lattice, dtype=np.float64)
    if lattice.ndim != 2 or lattice.shape[1] != 4 or lattice.shape[0] == 0:
        raise DataError("lattice must be a nonempty (n, 4) array")
    n = lattice.shape[0]
    # completion[i][t]: best score of a legal suffix starting at i with tag t
    completion = np.full((n, 4), -np.inf)
    for t in LEGAL_END:
        completion[n - 1][t] = lattice[n - 1][t]
    for i in range(n - 2, -1, -1):
        for t in range(4):
            succ = LEGAL_NEXT[t]
            best = max(completion[i + 1][u] for u in succ)
            completion[i][t] = lattice[i][t] + best
    start_scores = [completion[0][t] if t in LEGAL_START else -np.inf for t in range(4)]
    total = max(start_scores)
    if total == -np.inf:
        raise DataError("no legal tag sequence for this lattice")
    # walk forward greedily: smallest tag whose completion attains the max
    tags = []
    t = min(t for t in LEGAL_START if completion[0][t] == total)
    tags.append(t)
    for i in range(1, n):
        succ = LEGAL_NEXT[tags[-1]]
        best = max(completion[i][u] for u in succ)
        tags.append(min(u for u in succ if completion[i][u] == best))
    return "".join(TAGS[t] for t in tags), float(total)


def decode_sentence(net: SegmenterNet, chars: Sequence[str]) -> List[str]:
    lattice = sentence_log_probs(net, chars)
    tags, _ = viterbi_decode(lattice)
    return segmentation_from_tags(TaggedSentence(tuple(chars), tags))


# --- data files ---------------------------------------------------------------

def line_to_chars(line: str, normalize: bool = True) -> List[str]:
    """Character sequence of a raw, unsegmented line.

    With normalization, digit and Latin runs become single NUMBER/WORD
    pseudo-characters, which stay atomic here.
    """
    text = line.strip().replace(" ", "")
    if normalize:
        text = normalize_token(text, "segmentation")
    chars: List[str] = []
    i = 0
    while i < len(text):
        for pseudo in PSEUDO_TOKENS:
            if text.startswith(pseudo, i):
                chars.append(pseudo)
                i += len(pseudo)
                break
        else:
            chars.append(text[i])
            i += 1
    return chars


def parse_segmented_line(line: str, normalize: bool = True) -> List[str]:
    """One sentence per line; words separated by '/' or whitespace."""
    line = line.strip()
    if not line:
        return []
    raw = [w for w in (line.split("/") if "/" in line else line.split()) if w]
    if normalize:
        raw = [normalize_token(w, "segmentation") for w in raw]
    return raw


def load_segmented_corpus(path, normalize: bool = True) -> List[List[str]]:
    sentences = []
    with open_text(path) as fh:
        for line in fh:
            words = parse_segmented_line(line, normalize)
            if words:
                sentences.append(words)
    if not sentences:
        raise DataError(f"{path}: no sentences found")
    return sentences
