"""Six embedding architectures under one pluggable design.

Kinds differ in context representation and target scoring:

  skipgram   one context word vector; dot product with a target vector
  cbow       mean of context vectors; dot product
  order      position-ordered concatenation; dot product with a long target row
  lbl        concatenation -> linear hidden layer -> dot product, per-word bias
  nnlm       as lbl with a tanh on the hidden layer
  cw         joint window scoring: target in the input layer, hinge loss

All predictive kinds (everything but cw) train with negative sampling by
default; full softmax is available for skipgram only (the matrix-equivalence
harness needs it and it scales with vocabulary size).

There are three objectives, each with one batched forward/backward:
negative sampling (`_window_batch_predictive`), full softmax
(`_pair_batch_full_softmax`) and the cw hinge (`_window_batch_cw`). A
skipgram or char-word (input row -> target) pair is a one-slot window, so
all five predictive kinds share the negative-sampling function and its
batch loop. Each function takes its pre-drawn negatives or corrupt words,
writes nothing, and returns the batch loss and its gradients: `(ids, rows)`
for a row-sparse table (e, e_prime, b2), a dense array for H, b1, U and the
full-softmax e_prime. `train_epochs` draws the samples per batch and hands
the batches to `optim.run_epochs`; the gradient checks run these same
functions.
"""

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from .corpus import (CHAR_PREFIX, CorpusStream, Vocabulary, line_to_chars,
                     select_documents, subsample_ids,
                     subsample_keep_probability, window_matrix)
from .errors import DataError, check_sizes, check_window
from .io_formats import EmbeddingTable, save_embeddings
from .optim import (EpochRecord, NoiseSampler, apply_grads, check_optimizer,
                    check_rate, log_sigmoid, run_epochs, sigmoid,
                    softmax_cross_entropy)
from .seeding import substream

KINDS = ("skipgram", "cbow", "order", "lbl", "nnlm", "cw")


@dataclass
class TrainConfig:
    negatives: int = 5
    lr: float = 0.1
    optimizer: str = "adagrad"  # or "sgd"
    epochs: int = 5
    subsample_t: Optional[float] = None
    subsample_variant: str = "toolkit"
    beta: float = 0.0  # char/word mixing weight for joint training
    char_context: bool = False
    seed: int = 0
    workers: int = 1
    batch_size: int = 512
    full_softmax: bool = False
    precision: str = "float64"  # training storage; float32 halves memory traffic

    def validate(self, kind: str) -> None:
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        check_optimizer(self.optimizer)
        check_rate(self.lr)
        if self.full_softmax and kind != "skipgram":
            raise ValueError("full softmax is only supported for skipgram")
        if self.precision not in ("float64", "float32"):
            raise ValueError(f"unknown precision {self.precision!r}")
        check_sizes(workers=self.workers, batch_size=self.batch_size, negatives=(
            None if self.full_softmax or kind == "cw" else self.negatives))


class EmbeddingModel:
    """Vector tables plus per-kind extra weights, and beside them the AdaGrad
    accumulators of those that have stepped. See module docstring."""

    def __init__(self, kind: str, vocab: Vocabulary, dim: int, win: int,
                 hidden: int, tokens: Optional[List[str]] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        hidden = hidden if kind in ("lbl", "nnlm", "cw") else None
        check_window(win, 3)
        check_sizes(dim=dim, hidden=hidden)
        self.kind = kind
        self.vocab = vocab
        self.dim = dim
        self.win = win
        self.hidden = hidden or 0
        self.tokens = list(tokens) if tokens is not None else list(vocab.tokens)
        self.n_rows = len(self.tokens)
        self._params: Dict[str, np.ndarray] = {}
        self.accum: Dict[str, np.ndarray] = {}

    @classmethod
    def create(cls, kind: str, vocab: Vocabulary, dim: int, win: int = 5,
               hidden: int = 100, rng: Optional[np.random.Generator] = None,
               tokens: Optional[List[str]] = None) -> "EmbeddingModel":
        """Initialize: e uniform in [-0.5/dim, 0.5/dim], hidden matrices
        uniform within 1/sqrt(fan-in), target table and biases zero."""
        model = cls(kind, vocab, dim, win, hidden, tokens)
        rng = rng if rng is not None else np.random.default_rng(0)
        V = model.n_rows
        p = model._params
        p["e"] = rng.uniform(-0.5 / dim, 0.5 / dim, size=(V, dim))
        ctx_slots = win - 1
        if kind in ("skipgram", "cbow"):
            p["e_prime"] = np.zeros((V, dim))
        elif kind == "order":
            p["e_prime"] = np.zeros((V, ctx_slots * dim))
        elif kind in ("lbl", "nnlm"):
            h = model.hidden
            fan_in = ctx_slots * dim
            p["H"] = rng.uniform(-1, 1, size=(h, fan_in)) / math.sqrt(fan_in)
            p["b1"] = np.zeros(h)
            p["e_prime"] = np.zeros((V, h))
            p["b2"] = np.zeros(V)
        elif kind == "cw":
            h = model.hidden
            fan_in = win * dim
            p["H"] = rng.uniform(-1, 1, size=(h, fan_in)) / math.sqrt(fan_in)
            p["b1"] = np.zeros(h)
            p["U"] = rng.uniform(-1, 1, size=h) / math.sqrt(h)
        return model

    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    def meta(self) -> dict:
        """Container metadata: the arguments of `rebuild`."""
        return {"kind": self.kind, "dim": self.dim, "win": self.win,
                "hidden": self.hidden, "tokens": self.tokens,
                "vocab_tokens": self.vocab.tokens,
                "vocab_counts": [int(c) for c in self.vocab.counts]}

    @classmethod
    def rebuild(cls, vocab_tokens, vocab_counts, **args) -> "EmbeddingModel":
        """`create` from the metadata that `meta` writes."""
        return cls.create(vocab=Vocabulary(vocab_tokens, vocab_counts), **args)

    @property
    def e(self) -> np.ndarray:
        return self._params["e"]

    @property
    def e_prime(self) -> np.ndarray:
        return self._params["e_prime"]


class CharWordSpace:
    """Joint id space for words plus their characters, sharing one table.

    Rows [0, n_words) are the word vocabulary; character rows follow, named
    with a reserved prefix so a one-character word and the character itself
    stay distinct. A word is spelled by the segmenter's scanner,
    `line_to_chars` without normalization, so a pseudo-token inside it is
    one character. `(char_flat, char_starts)` spell each word as a document
    of character rows.
    """

    def __init__(self, word_vocab: Vocabulary):
        self.n_words = len(word_vocab)
        spelled = CorpusStream(line_to_chars(word, normalize=False)
                               for word in word_vocab.tokens)
        chars = sorted(spelled.types)
        self.char_tokens = chars
        self.tokens = list(word_vocab.tokens) + [CHAR_PREFIX + c for c in chars]
        row = {c: self.n_words + i for i, c in enumerate(chars)}
        self.char_flat = np.array([row[c] for c in spelled.types],
                                  dtype=np.int64)[spelled.ids]
        self.char_starts = spelled.starts


def build_charword_space(word_vocab: Vocabulary) -> CharWordSpace:
    return CharWordSpace(word_vocab)


# ---------------------------------------------------------------------------
# batched forward/backward: one function per objective
# ---------------------------------------------------------------------------

def _slot_rows(e: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """(b, n, dim) rows of `e` for (b, n) slot ids; empty slots (-1) are zero.
    One plain gather, then zeros: a boolean-mask scatter of the rows costs
    over ten times as much."""
    S = e[np.maximum(ids, 0)]
    S[ids < 0] = 0.0
    return S


def _context_inputs(model: EmbeddingModel, ctx: np.ndarray) -> np.ndarray:
    """Context representation x of each window: the mean of the context
    vectors for cbow, their position-ordered concatenation otherwise."""
    S = _slot_rows(model.e, ctx)
    if model.kind == "cbow":
        return S.sum(axis=1) / (ctx >= 0).sum(axis=1, dtype=S.dtype)[:, None]
    return S.reshape(len(ctx), -1)


def _ns_scores(model: EmbeddingModel, X: np.ndarray, tids: np.ndarray):
    """Energies of the target ids `tids` (b, m) against inputs X.

    Returns (scores, A, R): A is what the target rows R score against, X
    itself or the hidden layer of lbl (linear) and nnlm (tanh).
    """
    p = model._params
    R = p["e_prime"][tids]
    if model.kind not in ("lbl", "nnlm"):
        return np.einsum("bmd,bd->bm", R, X), X, R
    Z = X @ p["H"].T + p["b1"]
    A = np.tanh(Z) if model.kind == "nnlm" else Z
    return np.einsum("bmh,bh->bm", R, A) + p["b2"][tids], A, R


def _ns_loss(s: np.ndarray):
    """Per-row negative-sampling loss (column 0 is the positive target) and
    its gradient d loss/ds."""
    loss = -(log_sigmoid(s[:, 0]) + log_sigmoid(-s[:, 1:]).sum(axis=1))
    g = np.empty_like(s)
    g[:, 0] = -sigmoid(-s[:, 0])
    g[:, 1:] = sigmoid(s[:, 1:])
    return loss, g


def _pair_batch_full_softmax(model, ctx, tgt, wgt):
    """Exact softmax over the vocabulary; meant for small vocabularies."""
    X = model.e[ctx]
    ep = model.e_prime
    loss, G = softmax_cross_entropy(X @ ep.T, tgt)
    G *= wgt[:, None]
    return float((loss * wgt).sum()), {"e_prime": G.T @ X, "e": (ctx, G @ ep)}


def _window_batch_predictive(model, tgt, ctx, wgt, negs):
    """Weighted negative sampling for every predictive kind.

    `ctx` is (b, slots) with -1 in empty slots; every window needs at least
    one context word. A skipgram or char-word (input row -> target) pair is
    a one-slot window, `ctx = rows[:, None]`; `wgt` is each window's weight.
    """
    p = model._params
    X = _context_inputs(model, ctx)
    tids = np.concatenate([tgt[:, None], negs], axis=1)
    s, A, R = _ns_scores(model, X, tids)
    loss, g = _ns_loss(s)
    g *= wgt[:, None]
    dR = g[:, :, None] * A[:, None, :]
    dX = np.einsum("bm,bmh->bh", g, R)
    grads = {"e_prime": (tids.ravel(), dR.reshape(-1, dR.shape[-1]))}
    if model.kind in ("lbl", "nnlm"):
        dZ = dX * (1.0 - A * A) if model.kind == "nnlm" else dX
        grads["b2"] = (tids.ravel(), g.ravel())
        grads["H"] = dZ.T @ X
        grads["b1"] = dZ.sum(axis=0)
        dX = dZ @ p["H"]
    mask = ctx >= 0
    if model.kind == "cbow":
        rows = (dX / mask.sum(axis=1, dtype=dX.dtype)[:, None])[np.nonzero(mask)[0]]
    else:
        rows = dX.reshape(*ctx.shape, model.dim)[mask]
    grads["e"] = (ctx[mask], rows)
    return float((loss * wgt).sum()), grads


def _cw_scores(model: EmbeddingModel, X: np.ndarray):
    """Hidden layer A and C&W score A @ U of flattened windows X."""
    p = model._params
    A = np.tanh(X @ p["H"].T + p["b1"])
    return A, A @ p["U"]


def _window_batch_cw(model, windows, neg):
    """Hinge loss max(0, 1 - s(window) + s(window with `neg` in the middle)).

    `windows` is (b, win) with -1 padding. Only margin-violating windows
    have a gradient; with none, the grads are empty.
    """
    p = model._params
    b, win = windows.shape
    d = model.dim
    mid = (win - 1) // 2
    S = _slot_rows(model.e, windows)
    Xp = S.reshape(b, win * d)
    Sn = S.copy()
    Sn[:, mid, :] = model.e[neg]
    Xn = Sn.reshape(b, win * d)
    Ap, sp = _cw_scores(model, Xp)
    An, sn = _cw_scores(model, Xn)
    margins = 1.0 - sp + sn
    loss = float(np.maximum(margins, 0.0).sum())
    idx = np.nonzero(margins > 0.0)[0]
    if not len(idx):
        return loss, {}
    dH = np.zeros_like(p["H"])
    db1 = np.zeros_like(p["b1"])
    dU = np.zeros_like(p["U"])
    row_ids, row_grads = [], []
    # on violating windows d hinge/d s_pos = -1 and d hinge/d s_neg = +1
    for X, A, gs, mid_ids in ((Xp[idx], Ap[idx], -1.0, windows[idx, mid]),
                              (Xn[idx], An[idx], 1.0, neg[idx])):
        dU += gs * A.sum(axis=0)
        dZ = gs * (p["U"][None, :] * (1.0 - A * A))
        dH += dZ.T @ X
        db1 += dZ.sum(axis=0)
        dX = (dZ @ p["H"]).reshape(len(idx), win, d)
        w_ids = windows[idx]
        w_ids[:, mid] = mid_ids
        m = w_ids >= 0
        row_ids.append(w_ids[m])
        row_grads.append(dX[m])
    return loss, {"H": dH, "b1": db1, "U": dU,
                  "e": (np.concatenate(row_ids), np.concatenate(row_grads))}


# ---------------------------------------------------------------------------
# epoch training
# ---------------------------------------------------------------------------

def _expand_charword_arrays(space: CharWordSpace, tgt, ctx, beta, char_context):
    """Weighted (input_row, target, weight) arrays for a chunk of windows.

    With beta=0 and no char context this is exactly the plain skipgram pair
    stream. Otherwise word pairs, character pairs and the optional plain
    character-context pairs are emitted as deterministic blocks.
    """
    mask = ctx >= 0
    win_idx, slot_idx = np.nonzero(mask)
    words = ctx[win_idx, slot_idx]
    targets = tgt[win_idx]
    if beta == 0.0 and not char_context:
        return words, targets, np.ones(len(words))

    char_rows, char_starts = select_documents(space.char_flat,
                                              space.char_starts, words)
    nch = np.diff(char_starts, append=len(char_rows))
    char_tgt = np.repeat(targets, nch)

    rows, tgts, wgts = [], [], []
    if beta < 1.0:
        rows.append(words)
        tgts.append(targets)
        wgts.append(np.full(len(words), 1.0 - beta))
    if beta > 0.0:
        rows.append(char_rows)
        tgts.append(char_tgt)
        wgts.append(np.repeat(beta / np.maximum(nch, 1), nch))
    if char_context:
        rows.append(char_rows)
        tgts.append(char_tgt)
        wgts.append(np.ones(len(char_rows)))
    return np.concatenate(rows), np.concatenate(tgts), np.concatenate(wgts)


def train_epochs(model: EmbeddingModel, corpus: CorpusStream, cfg: TrainConfig,
                 space: Optional[CharWordSpace] = None,
                 checkpoint_dir=None) -> List[EpochRecord]:
    """Run full corpus passes with per-epoch records and checkpoints.

    Deterministic for workers=1 under a fixed seed. With workers > 1,
    document shards train concurrently and update shared tables without
    locking (the usual lock-free contract); results then vary run to run.
    """
    cfg.validate(model.kind)
    vocab = model.vocab
    freq = vocab.counts / vocab.total_count
    keep_prob = (None if cfg.subsample_t is None else
                 subsample_keep_probability(freq, cfg.subsample_t, cfg.subsample_variant))
    ids, starts = vocab.encode(corpus)
    shards = [select_documents(ids, starts, slice(w, None, cfg.workers))
              for w in range(cfg.workers)]
    if len(vocab) < 2 and not cfg.full_softmax:  # no noise word to draw
        raise DataError("noise words need a vocabulary of at least 2 words")
    sampler = None if cfg.full_softmax or model.kind == "cw" else NoiseSampler(vocab.counts)
    charword = space is not None and (cfg.beta > 0.0 or cfg.char_context)
    if charword and model.kind != "skipgram":
        raise DataError("joint char-word training extends skipgram")
    if cfg.precision == "float32":
        _convert_params(model, np.float32)

    def epoch_shards(epoch):
        passes = [_train_one_pass(model, *shard, keep_prob, cfg, sampler, space,
                                  substream(cfg.seed, f"subsample-{epoch}-w{w}"),
                                  substream(cfg.seed, f"negatives-{epoch}-w{w}"))
                  for w, shard in enumerate(shards)]
        return sum(n for n, _ in passes), [batches for _, batches in passes]

    def checkpoint(record):
        path = os.path.join(str(checkpoint_dir), f"checkpoint-ep{record.epoch}.vec")
        save_embeddings(EmbeddingTable(model.tokens, model.e), path)

    params = model.params()
    step = partial(apply_grads, params, rates=dict.fromkeys(params, cfg.lr),
                   accum=model.accum if cfg.optimizer == "adagrad" else None)
    records = run_epochs(cfg.epochs, epoch_shards, step,
                         checkpoint if checkpoint_dir is not None else None)
    if cfg.precision == "float32":
        _convert_params(model, np.float64)
    return records


def _convert_params(model, dtype) -> None:
    for arrays in (model._params, model.accum):
        for name, value in arrays.items():
            arrays[name] = value.astype(dtype)


def _train_one_pass(model, ids, starts, keep_prob, cfg, sampler, space, srng,
                    nrng):
    """Subsample the documents `(ids, starts)` by `keep_prob`, if given; the
    pass's token count and its lazy (loss, grads, units) batches, one chunk
    of windows at a time."""
    if keep_prob is not None:
        starts = starts.copy()
        ids = subsample_ids(ids, keep_prob, srng, starts)

    def batches():
        for lo, hi in _chunk_bounds(starts, len(ids), max(cfg.batch_size * 8, 4096)):
            windows = window_matrix(ids, model.win, -1, starts, lo, hi)
            yield from _process_chunk(model, cfg, sampler, space, nrng, windows)

    return len(ids), batches()


_MAX_SEGMENT = 131072


def _chunk_bounds(starts, n, size):
    """[lo, hi) position ranges of a pass's chunks, so a very long document
    never materializes all its windows at once. A chunk closes at the first
    document end, or end of a _MAX_SEGMENT-position piece of a longer
    document, that brings it to at least `size` windows."""
    ends = starts + np.diff(starts, append=n)
    long = ends - starts > _MAX_SEGMENT
    pieces = np.sort(np.concatenate(
        [ends] + [np.arange(s + _MAX_SEGMENT, e, _MAX_SEGMENT)
                  for s, e in zip(starts[long], ends[long])]))
    lo = 0
    while lo < n:
        hi = int(pieces[min(np.searchsorted(pieces, lo + size), len(pieces) - 1)])
        yield lo, hi
        lo = hi


def _process_chunk(model, cfg, sampler, space, nrng, windows):
    """Yield (loss, grads, units) per batch of a chunk, drawing each batch's
    negatives or corrupt words just before its forward pass. `windows` is
    (n, win) with -1 in the slots outside the document."""
    B = cfg.batch_size
    mid = (model.win - 1) // 2
    if model.kind == "cw":
        for lo in range(0, len(windows), B):
            w = windows[lo:lo + B]
            neg = _corrupt_words(w[:, mid], len(model.vocab), nrng)
            yield (*_window_batch_cw(model, w, neg), len(w))
        return
    tgt, ctx = windows[:, mid], np.delete(windows, mid, 1)
    if model.kind == "skipgram":  # (row -> target) pairs as one-slot windows
        beta, char_ctx = ((cfg.beta, cfg.char_context) if space is not None
                          else (0.0, False))
        rows, tgt, wgt = _expand_charword_arrays(space, tgt, ctx, beta, char_ctx)
        ctx = rows[:, None]
    else:
        keep = (ctx >= 0).any(axis=1)  # predictive window kinds need context
        tgt, ctx = tgt[keep], ctx[keep]
        wgt = np.ones(len(tgt))
    for lo in range(0, len(tgt), B):
        t, c, w = tgt[lo:lo + B], ctx[lo:lo + B], wgt[lo:lo + B]
        yield (*_predictive_batch(model, cfg, sampler, nrng, t, c, w), len(t))


def _predictive_batch(model, cfg, sampler, nrng, tgt, ctx, wgt):
    """(loss, grads) of one batch. A call of its own, so that no local of
    the suspended batch loop keeps the grads alive while they are stepped."""
    if cfg.full_softmax:
        return _pair_batch_full_softmax(model, ctx[:, 0], tgt, wgt)
    negs = sampler.sample_matrix((len(tgt), cfg.negatives), tgt, nrng)
    return _window_batch_predictive(model, tgt, ctx, wgt, negs)


def _corrupt_words(tgt, n_words, rng) -> np.ndarray:
    """One uniformly drawn word per window, redrawn until it differs from
    the window's target."""
    neg = rng.integers(n_words, size=len(tgt))
    while True:
        clash = neg == tgt
        if not clash.any():
            return neg
        neg[clash] = rng.integers(n_words, size=int(clash.sum()))
