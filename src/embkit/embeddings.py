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

Per-sample functions below return the loss and gradients OF THE LOSS;
training applies ascent steps on the negated gradients. The batched epoch
trainer computes ascent gradients directly and is the fast path behind
`train_epochs`.
"""

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import fastpath
from .corpus import (CHAR_PREFIX, CorpusStream, Vocabulary, WindowSample,
                     decompose_word, document_window_arrays, subsample_ids)
from .errors import DataError, NumericError
from .optim import (ADAGRAD_EPS, NoiseSampler, Param, log_sigmoid,
                    log_softmax, sigmoid)
from .seeding import substream

KINDS = ("skipgram", "cbow", "order", "lbl", "nnlm", "cw")
PREDICTIVE_KINDS = ("skipgram", "cbow", "order", "lbl", "nnlm")


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
        if kind in PREDICTIVE_KINDS and self.negatives < 1 and not self.full_softmax:
            raise ValueError("predictive kinds need at least one negative")
        if self.optimizer not in ("sgd", "adagrad"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.full_softmax and kind != "skipgram":
            raise ValueError("full softmax is only supported for skipgram")
        if self.precision not in ("float64", "float32"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.epochs < 0 or self.workers < 1 or self.batch_size < 1:
            raise ValueError("epochs, workers and batch_size must be sensible")


class EmbeddingModel:
    """Vector tables plus per-kind extra weights. See module docstring."""

    def __init__(self, kind: str, vocab: Vocabulary, dim: int, win: int,
                 hidden: int, tokens: Optional[List[str]] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if win % 2 == 0 or win < 3:
            raise ValueError("win must be odd and >= 3")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.kind = kind
        self.vocab = vocab
        self.dim = dim
        self.win = win
        self.hidden = hidden if kind in ("lbl", "nnlm", "cw") else 0
        self.tokens = list(tokens) if tokens is not None else list(vocab.tokens)
        self.n_rows = len(self.tokens)
        self._params: Dict[str, Param] = {}

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
        p["e"] = Param(rng.uniform(-0.5 / dim, 0.5 / dim, size=(V, dim)))
        ctx_slots = win - 1
        if kind in ("skipgram", "cbow"):
            p["e_prime"] = Param(np.zeros((V, dim)))
        elif kind == "order":
            p["e_prime"] = Param(np.zeros((V, ctx_slots * dim)))
        elif kind in ("lbl", "nnlm"):
            h = model.hidden
            fan_in = ctx_slots * dim
            p["H"] = Param(rng.uniform(-1, 1, size=(h, fan_in)) / math.sqrt(fan_in))
            p["b1"] = Param(np.zeros(h))
            p["e_prime"] = Param(np.zeros((V, h)))
            p["b2"] = Param(np.zeros(V))
        elif kind == "cw":
            h = model.hidden
            fan_in = win * dim
            p["H"] = Param(rng.uniform(-1, 1, size=(h, fan_in)) / math.sqrt(fan_in))
            p["b1"] = Param(np.zeros(h))
            p["U"] = Param(rng.uniform(-1, 1, size=h) / math.sqrt(h))
        return model

    def params(self) -> Dict[str, Param]:
        return self._params

    @property
    def e(self) -> np.ndarray:
        return self._params["e"].value

    @property
    def e_prime(self) -> np.ndarray:
        return self._params["e_prime"].value

    def copy(self) -> "EmbeddingModel":
        other = EmbeddingModel(self.kind, self.vocab, self.dim, self.win,
                               self.hidden, self.tokens)
        other._params = {k: p.copy() for k, p in self._params.items()}
        return other


class CharWordSpace:
    """Joint id space for words plus their characters, sharing one table.

    Rows [0, n_words) are the word vocabulary; character rows follow, named
    with a reserved prefix so a one-character word and the character itself
    stay distinct. `char_rows(word_id)` gives the character rows of a word.
    """

    def __init__(self, word_vocab: Vocabulary):
        self.word_vocab = word_vocab
        self.n_words = len(word_vocab)
        chars = sorted({ch for w in word_vocab.tokens for ch in decompose_word(w)})
        self.char_tokens = chars
        self.tokens = list(word_vocab.tokens) + [CHAR_PREFIX + c for c in chars]
        char_id = {c: self.n_words + i for i, c in enumerate(chars)}
        flat, offsets = [], [0]
        for w in word_vocab.tokens:
            flat.extend(char_id[c] for c in decompose_word(w))
            offsets.append(len(flat))
        self.char_flat = np.asarray(flat, dtype=np.int64)
        self.char_offsets = np.asarray(offsets, dtype=np.int64)

    def char_rows(self, word_id: int) -> np.ndarray:
        return self.char_flat[self.char_offsets[word_id]:self.char_offsets[word_id + 1]]


def build_charword_space(word_vocab: Vocabulary) -> CharWordSpace:
    return CharWordSpace(word_vocab)


# ---------------------------------------------------------------------------
# context representation and target scoring (per-sample reference path)
# ---------------------------------------------------------------------------

def context_representation(model: EmbeddingModel, context: Sequence[int],
                           n_left: Optional[int] = None) -> np.ndarray:
    """Build the kind's context vector x from context word ids.

    skipgram consumes exactly one context word per call. For the ordered
    kinds, `n_left` says how many of the ids sit left of the target so words
    land in their true slots; missing boundary slots stay zero.
    """
    kind = model.kind
    e = model.e
    ids = np.asarray(context, dtype=np.int64)
    if kind == "skipgram":
        if len(ids) != 1:
            raise DataError("skipgram consumes one context word per call")
        return e[ids[0]].copy()
    if len(ids) == 0:
        raise DataError("empty context")
    if kind == "cbow":
        return e[ids].mean(axis=0)
    if kind in ("order", "lbl", "nnlm"):
        slots = _context_slots(model.win, ids, n_left)
        x = np.zeros((model.win - 1) * model.dim)
        for s, wid in enumerate(slots):
            if wid >= 0:
                x[s * model.dim:(s + 1) * model.dim] = e[wid]
        return x
    raise DataError("cw has no standalone context representation")


def _context_slots(win: int, ids: np.ndarray, n_left: Optional[int]) -> np.ndarray:
    """Map context ids to the win-1 position slots; -1 marks an empty slot."""
    if n_left is None:
        if len(ids) != win - 1:
            raise DataError("n_left required for truncated windows")
        n_left = (win - 1) // 2
    half = (win - 1) // 2
    n_right = len(ids) - n_left
    if n_left > half or n_right > half:
        raise DataError("context does not fit the window")
    slots = np.full(win - 1, -1, dtype=np.int64)
    slots[half - n_left:half] = ids[:n_left]
    slots[half:half + n_right] = ids[n_left:]
    return slots


def score_target(model: EmbeddingModel, x: np.ndarray, w: int) -> float:
    """Energy E(w; x) of target id w against a context representation."""
    if not (0 <= w < model.n_rows):
        raise DataError(f"unknown word id {w}")
    kind = model.kind
    if kind in ("skipgram", "cbow", "order"):
        return float(model.e_prime[w] @ x)
    p = model._params
    if kind == "lbl":
        z = p["b1"].value + p["H"].value @ x
        return float(p["b2"].value[w] + model.e_prime[w] @ z)
    if kind == "nnlm":
        a = np.tanh(p["b1"].value + p["H"].value @ x)
        return float(p["b2"].value[w] + model.e_prime[w] @ a)
    raise DataError("cw scores whole windows; see cw_window_score")


def cw_window_score(model: EmbeddingModel, window_ids: Sequence[int]) -> float:
    """C&W score of a full window (target in the middle, -1 for empty slots)."""
    if model.kind != "cw":
        raise DataError("cw_window_score requires a cw model")
    if len(window_ids) != model.win:
        raise DataError("window length must equal win")
    x = _cw_input(model, window_ids)
    p = model._params
    a = np.tanh(p["b1"].value + p["H"].value @ x)
    return float(p["U"].value @ a)


def _cw_input(model: EmbeddingModel, window_ids: Sequence[int]) -> np.ndarray:
    x = np.zeros(model.win * model.dim)
    for s, wid in enumerate(window_ids):
        if wid >= 0:
            x[s * model.dim:(s + 1) * model.dim] = model.e[wid]
    return x


def sample_to_window(sample: WindowSample, win: int) -> List[int]:
    """Arrange a WindowSample as win slots with -1 padding, target centered."""
    half = (win - 1) // 2
    ids = list(sample.context)
    n_left = sample.n_left
    left = [-1] * (half - n_left) + ids[:n_left]
    right = ids[n_left:] + [-1] * (half - (len(ids) - n_left))
    out = left + [sample.target] + right
    if len(out) != win:
        raise DataError("context does not fit the window")
    return out


# ---------------------------------------------------------------------------
# per-sample losses and gradients (gradients of the LOSS)
# ---------------------------------------------------------------------------

def _zero_grads(model: EmbeddingModel) -> Dict[str, np.ndarray]:
    return {name: np.zeros_like(p.value) for name, p in model._params.items()}


def _ns_loss_and_score_grads(scores: np.ndarray) -> tuple:
    """Negative-sampling loss and d(loss)/d(scores); scores[0] is positive."""
    loss = -(log_sigmoid(scores[0]) + log_sigmoid(-scores[1:]).sum())
    ds = np.empty_like(scores)
    ds[0] = sigmoid(scores[0]) - 1.0
    ds[1:] = sigmoid(scores[1:])
    return float(loss), ds


def _score_rows_backprop(model, x, ids, ds, weight, grads):
    """Push score gradients into target-side params; return d(loss)/dx."""
    p = model._params
    kind = model.kind
    ep = model.e_prime
    if kind in ("skipgram", "cbow", "order"):
        np.add.at(grads["e_prime"], ids, weight * ds[:, None] * x[None, :])
        return weight * (ds @ ep[ids])
    if kind == "lbl":
        z = p["b1"].value + p["H"].value @ x
        np.add.at(grads["e_prime"], ids, weight * ds[:, None] * z[None, :])
        np.add.at(grads["b2"], ids, weight * ds)
        dz = weight * (ds @ ep[ids])
        grads["b1"] += dz
        grads["H"] += np.outer(dz, x)
        return p["H"].value.T @ dz
    if kind == "nnlm":
        a = np.tanh(p["b1"].value + p["H"].value @ x)
        np.add.at(grads["e_prime"], ids, weight * ds[:, None] * a[None, :])
        np.add.at(grads["b2"], ids, weight * ds)
        da = weight * (ds @ ep[ids])
        dz = da * (1.0 - a * a)
        grads["b1"] += dz
        grads["H"] += np.outer(dz, x)
        return p["H"].value.T @ dz
    raise DataError(f"no score path for kind {kind!r}")


def predictive_loss_grads(model: EmbeddingModel, sample: WindowSample,
                          negatives: List[np.ndarray],
                          grads: Optional[Dict[str, np.ndarray]] = None):
    """Negative-sampling loss of one window and gradients of that loss.

    `negatives` holds one id array per scored unit: one per context word for
    skipgram, a single array for the other kinds. Deterministic given the
    negatives, which is what the gradient checker needs.
    """
    if model.kind == "cw":
        raise DataError("use cw_loss_grads for the cw kind")
    if grads is None:
        grads = _zero_grads(model)
    loss = 0.0
    if model.kind == "skipgram":
        if len(negatives) != len(sample.context):
            raise DataError("skipgram wants one negative set per context word")
        for cid, negs in zip(sample.context, negatives):
            loss += _pair_loss_into(model, int(cid), sample.target,
                                    np.asarray(negs), 1.0, grads)
        return loss, grads
    if len(negatives) != 1:
        raise DataError("window kinds score one positive per sample")
    x = context_representation(model, sample.context, sample.n_left)
    ids = np.concatenate(([sample.target], np.asarray(negatives[0])))
    scores = np.array([score_target(model, x, int(i)) for i in ids])
    loss, ds = _ns_loss_and_score_grads(scores)
    dx = _score_rows_backprop(model, x, ids, ds, 1.0, grads)
    _context_backprop(model, sample, dx, grads)
    return loss, grads


def _pair_loss_into(model, input_row, target, negs, weight, grads):
    """One (input unit -> target) negative-sampling term; skipgram head."""
    x = model.e[input_row]
    ids = np.concatenate(([target], negs))
    scores = model.e_prime[ids] @ x
    loss, ds = _ns_loss_and_score_grads(scores)
    np.add.at(grads["e_prime"], ids, weight * ds[:, None] * x[None, :])
    grads["e"][input_row] += weight * (ds @ model.e_prime[ids])
    return weight * loss


def _context_backprop(model, sample, dx, grads):
    ids = np.asarray(sample.context, dtype=np.int64)
    if model.kind == "cbow":
        share = dx / len(ids)
        np.add.at(grads["e"], ids, np.repeat(share[None, :], len(ids), axis=0))
        return
    slots = _context_slots(model.win, ids, sample.n_left)
    d = model.dim
    for s, wid in enumerate(slots):
        if wid >= 0:
            grads["e"][wid] += dx[s * d:(s + 1) * d]


def cw_loss_grads(model: EmbeddingModel, window_ids: Sequence[int], neg_id: int,
                  grads: Optional[Dict[str, np.ndarray]] = None):
    """Hinge loss max(0, 1 - s(pos) + s(neg)) and its gradients.

    The negative window replaces the middle word with `neg_id`. No gradient
    flows when the margin is satisfied.
    """
    if model.kind != "cw":
        raise DataError("cw_loss_grads requires a cw model")
    if len(window_ids) != model.win:
        raise DataError("window length must equal win")
    if grads is None:
        grads = _zero_grads(model)
    mid = (model.win - 1) // 2
    neg_window = list(window_ids)
    neg_window[mid] = neg_id
    s_pos = cw_window_score(model, window_ids)
    s_neg = cw_window_score(model, neg_window)
    loss = max(0.0, 1.0 - s_pos + s_neg)
    if loss > 0.0:
        _cw_backprop(model, window_ids, -1.0, grads)
        _cw_backprop(model, neg_window, +1.0, grads)
    return loss, grads


def _cw_backprop(model, window_ids, dscore, grads):
    p = model._params
    x = _cw_input(model, window_ids)
    a = np.tanh(p["b1"].value + p["H"].value @ x)
    grads["U"] += dscore * a
    dz = dscore * p["U"].value * (1.0 - a * a)
    grads["b1"] += dz
    grads["H"] += np.outer(dz, x)
    dx = p["H"].value.T @ dz
    d = model.dim
    for s, wid in enumerate(window_ids):
        if wid >= 0:
            grads["e"][wid] += dx[s * d:(s + 1) * d]


def charword_pairs(space: CharWordSpace, sample: WindowSample, beta: float,
                   char_context: bool = False) -> List[tuple]:
    """Expand one window into weighted (input_row, target, weight) pairs.

    Each context word contributes a word->target pair with weight 1-beta and
    one char->target pair per character with weight beta/|word|. With
    `char_context`, every character additionally joins the context as a plain
    unit (weight 1). Zero-weight pairs are dropped so beta=0 reproduces the
    plain skipgram pair stream exactly.
    """
    pairs = []
    for cid in sample.context:
        cid = int(cid)
        if beta < 1.0:
            pairs.append((cid, sample.target, 1.0 - beta))
        rows = space.char_rows(cid)
        if beta > 0.0 and len(rows):
            w = beta / len(rows)
            pairs.extend((int(r), sample.target, w) for r in rows)
        if char_context:
            pairs.extend((int(r), sample.target, 1.0) for r in rows)
    return pairs


def charword_loss_grads(model: EmbeddingModel, space: CharWordSpace,
                        sample: WindowSample, beta: float,
                        negatives: List[np.ndarray], char_context: bool = False,
                        grads: Optional[Dict[str, np.ndarray]] = None):
    """Joint char-word objective for one window; one negative set per pair."""
    if model.kind != "skipgram":
        raise DataError("the joint char-word objective extends skipgram")
    if grads is None:
        grads = _zero_grads(model)
    pairs = charword_pairs(space, sample, beta, char_context)
    if len(negatives) != len(pairs):
        raise DataError("need one negative set per expanded pair")
    loss = 0.0
    for (row, tgt, w), negs in zip(pairs, negatives):
        loss += _pair_loss_into(model, row, tgt, np.asarray(negs), w, grads)
    return loss, grads


# ---------------------------------------------------------------------------
# per-sample training ops
# ---------------------------------------------------------------------------

def _apply_loss_grads(model: EmbeddingModel, grads: Dict[str, np.ndarray],
                      cfg: TrainConfig) -> None:
    """One optimizer step per parameter, ascending on -grad(loss)."""
    for name, g in grads.items():
        param = model._params[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
        step = -g
        if cfg.optimizer == "adagrad":
            accum = param.ensure_accum()
            accum += step * step
            param.value += cfg.lr * step / (np.sqrt(accum) + ADAGRAD_EPS)
        else:
            param.value += cfg.lr * step


def train_sample_predictive(model: EmbeddingModel, sample: WindowSample,
                            cfg: TrainConfig, sampler: NoiseSampler,
                            rng: np.random.Generator) -> float:
    """Score, backpropagate and apply one optimizer step for one window."""
    cfg.validate(model.kind)
    if model.kind == "skipgram":
        negatives = [sampler.sample(cfg.negatives, sample.target, rng)
                     for _ in sample.context]
    else:
        negatives = [sampler.sample(cfg.negatives, sample.target, rng)]
    loss, grads = predictive_loss_grads(model, sample, negatives)
    if not math.isfinite(loss):
        raise NumericError("non-finite loss")
    _apply_loss_grads(model, grads, cfg)
    return loss


def train_sample_cw(model: EmbeddingModel, window_ids: Sequence[int],
                    rng: np.random.Generator, cfg: Optional[TrainConfig] = None) -> float:
    """One hinge update; the corrupt middle word is drawn uniformly."""
    cfg = cfg if cfg is not None else TrainConfig(lr=0.1, optimizer="sgd")
    mid = (model.win - 1) // 2
    target = int(window_ids[mid])
    n_words = len(model.vocab)
    neg = target
    while neg == target:
        neg = int(rng.integers(n_words))
    loss, grads = cw_loss_grads(model, window_ids, neg)
    if loss > 0.0:
        _apply_loss_grads(model, grads, cfg)
    return loss


def train_sample_charword(model: EmbeddingModel, space: CharWordSpace,
                          sample: WindowSample, cfg: TrainConfig,
                          sampler: NoiseSampler, rng: np.random.Generator,
                          char_context: bool = False) -> float:
    """One window of the joint char-word objective (Eq-style convex mix)."""
    cfg.validate(model.kind)
    pairs = charword_pairs(space, sample, cfg.beta, char_context)
    negatives = [sampler.sample(cfg.negatives, tgt, rng) for _, tgt, _ in pairs]
    loss, grads = charword_loss_grads(model, space, sample, cfg.beta,
                                      negatives, char_context)
    if not math.isfinite(loss):
        raise NumericError("non-finite loss")
    _apply_loss_grads(model, grads, cfg)
    return loss


def charword_with_char_context(model, space, sample, cfg, sampler, rng) -> float:
    return train_sample_charword(model, space, sample, cfg, sampler, rng,
                                 char_context=True)


# ---------------------------------------------------------------------------
# batched epoch training (fast path)
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    tokens_per_sec: float
    n_units: int
    seconds: float


def _aggregate_rows(ids: np.ndarray, grads: np.ndarray):
    # one bincount over (row, column) cells: np.add.at is far too slow, and
    # sort + reduceat pays per segment when most rows occur once per batch
    uids, inv = np.unique(ids, return_inverse=True)
    d = math.prod(grads.shape[1:])  # 1 for a bias vector such as b2
    cells = (inv[:, None] * d + np.arange(d)).ravel()
    summed = np.bincount(cells, grads.ravel(), minlength=len(uids) * d)
    return uids, summed.reshape(len(uids), *grads.shape[1:])


def _apply_rows_ascent(param: Param, ids: np.ndarray, grads: np.ndarray,
                       cfg: TrainConfig) -> None:
    """Row-sparse ascent step: one gather/compute/scatter per table."""
    uids, g = _aggregate_rows(ids, grads)
    g = g.astype(param.value.dtype, copy=False)
    if cfg.optimizer == "adagrad":
        accum = param.ensure_accum()
        a = accum[uids]
        a += g * g
        accum[uids] = a
        np.sqrt(a, out=a)
        a += ADAGRAD_EPS
        g /= a
    g *= cfg.lr
    param.value[uids] = _finite(param.value[uids] + g, "parameter update")


def _finite(x, what: str):
    """Pass `x` through, or stop a diverging run before it is written."""
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite {what}; lower the learning rate")
    return x


def _apply_dense_ascent(param: Param, grad: np.ndarray, cfg: TrainConfig) -> None:
    if cfg.optimizer == "adagrad":
        accum = param.ensure_accum()
        accum += grad * grad
        step = cfg.lr * grad / (np.sqrt(accum) + ADAGRAD_EPS)
    else:
        step = cfg.lr * grad
    param.value[...] = _finite(param.value + step, "parameter update")


def _pair_batch_ns(model, cfg, sampler, rng, ctx, tgt, wgt) -> float:
    """Negative-sampling update for a batch of (input row -> target) pairs."""
    e, ep = model._params["e"], model._params["e_prime"]
    X = e.value[ctx]
    negs = sampler.sample_matrix((len(tgt), cfg.negatives), tgt, rng)
    tids = np.concatenate([tgt[:, None], negs], axis=1)
    R = ep.value[tids]
    s = np.einsum("bmd,bd->bm", R, X)
    loss = -(log_sigmoid(s[:, 0]) + log_sigmoid(-s[:, 1:]).sum(axis=1))
    g = np.empty_like(s)  # ascent gradient d(-loss)/ds
    g[:, 0] = sigmoid(-s[:, 0])
    g[:, 1:] = -sigmoid(s[:, 1:])
    g *= wgt[:, None]
    total = float(_finite((loss * wgt).sum(), "training loss"))
    dR = g[:, :, None] * X[:, None, :]
    dX = np.einsum("bm,bmd->bd", g, R)
    _apply_rows_ascent(ep, tids.ravel(), dR.reshape(-1, dR.shape[-1]), cfg)
    _apply_rows_ascent(e, ctx, dX, cfg)
    return total


def _pair_batch_full_softmax(model, cfg, ctx, tgt, wgt) -> float:
    """Exact softmax update for a pair batch; meant for small vocabularies."""
    e, ep = model._params["e"], model._params["e_prime"]
    X = e.value[ctx]
    logits = X @ ep.value.T
    lsm = log_softmax(logits)
    rows = np.arange(len(tgt))
    loss = -lsm[rows, tgt]
    G = -np.exp(lsm)
    G[rows, tgt] += 1.0
    G *= wgt[:, None]
    total = float(_finite((loss * wgt).sum(), "training loss"))
    dEp = G.T @ X
    dX = G @ ep.value
    _apply_dense_ascent(ep, dEp, cfg)
    _apply_rows_ascent(e, ctx, dX, cfg)
    return total


def _window_batch_predictive(model, cfg, sampler, rng, tgt, ctx) -> float:
    """One batched update for cbow/order/lbl/nnlm windows.

    `ctx` is (b, win-1) with -1 in empty slots; rows with no context at all
    must be filtered out by the caller.
    """
    p = model._params
    e, ep = p["e"], p["e_prime"]
    b, slots = ctx.shape
    d = model.dim
    mask = ctx >= 0
    cnt = mask.sum(axis=1)
    S = np.zeros((b, slots, d))
    S[mask] = e.value[ctx[mask]]
    if model.kind == "cbow":
        X = S.sum(axis=1) / cnt[:, None]
    else:
        X = S.reshape(b, slots * d)

    negs = sampler.sample_matrix((b, cfg.negatives), tgt, rng)
    tids = np.concatenate([tgt[:, None], negs], axis=1)

    if model.kind in ("cbow", "order"):
        R = ep.value[tids]
        s = np.einsum("bmd,bd->bm", R, X)
    else:
        Z = X @ p["H"].value.T + p["b1"].value
        A = np.tanh(Z) if model.kind == "nnlm" else Z
        R = ep.value[tids]
        s = np.einsum("bmh,bh->bm", R, A) + p["b2"].value[tids]

    loss = -(log_sigmoid(s[:, 0]) + log_sigmoid(-s[:, 1:]).sum(axis=1))
    total = float(_finite(loss.sum(), "training loss"))
    g = np.empty_like(s)
    g[:, 0] = sigmoid(-s[:, 0])
    g[:, 1:] = -sigmoid(s[:, 1:])

    if model.kind in ("cbow", "order"):
        dR = g[:, :, None] * X[:, None, :]
        dX = np.einsum("bm,bmd->bd", g, R)
        _apply_rows_ascent(ep, tids.ravel(), dR.reshape(-1, dR.shape[-1]), cfg)
    else:
        dR = g[:, :, None] * A[:, None, :]
        db2 = g
        dA = np.einsum("bm,bmh->bh", g, R)
        dZ = dA * (1.0 - A * A) if model.kind == "nnlm" else dA
        dX = dZ @ p["H"].value
        _apply_rows_ascent(ep, tids.ravel(), dR.reshape(-1, dR.shape[-1]), cfg)
        _apply_rows_ascent(p["b2"], tids.ravel(), db2.ravel(), cfg)
        _apply_dense_ascent(p["H"], dZ.T @ X, cfg)
        _apply_dense_ascent(p["b1"], dZ.sum(axis=0), cfg)

    if model.kind == "cbow":
        per_word = dX / cnt[:, None]
        rows_idx = np.nonzero(mask)[0]
        _apply_rows_ascent(e, ctx[mask], per_word[rows_idx], cfg)
    else:
        dS = dX.reshape(b, slots, d)
        _apply_rows_ascent(e, ctx[mask], dS[mask], cfg)
    return total


def _window_batch_cw(model, cfg, rng, windows) -> float:
    """Batched hinge updates; `windows` is (b, win) with -1 padding."""
    p = model._params
    e = p["e"]
    b, win = windows.shape
    d = model.dim
    mid = (win - 1) // 2
    n_words = len(model.vocab)
    tgt = windows[:, mid]
    neg = rng.integers(n_words, size=b)
    while True:
        clash = neg == tgt
        if not clash.any():
            break
        neg[clash] = rng.integers(n_words, size=int(clash.sum()))

    mask = windows >= 0
    S = np.zeros((b, win, d))
    S[mask] = e.value[windows[mask]]
    Xp = S.reshape(b, win * d)
    Sn = S.copy()
    Sn[:, mid, :] = e.value[neg]
    Xn = Sn.reshape(b, win * d)

    def forward(X):
        A = np.tanh(X @ p["H"].value.T + p["b1"].value)
        return A, A @ p["U"].value

    Ap, sp = forward(Xp)
    An, sn = forward(Xn)
    margins = 1.0 - sp + sn
    viol = margins > 0.0
    loss = float(_finite(np.maximum(margins, 0.0).sum(), "training loss"))
    if not viol.any():
        return loss

    idx = np.nonzero(viol)[0]
    dH = np.zeros_like(p["H"].value)
    db1 = np.zeros_like(p["b1"].value)
    dU = np.zeros_like(p["U"].value)
    row_ids, row_grads = [], []
    # ascent on -hinge: d/ds_pos = +1, d/ds_neg = -1 on violating windows
    for X, A, gs, win_ids, mid_ids in (
            (Xp[idx], Ap[idx], 1.0, windows[idx], tgt[idx]),
            (Xn[idx], An[idx], -1.0, windows[idx], neg[idx])):
        dU += gs * A.sum(axis=0)
        dZ = gs * (p["U"].value[None, :] * (1.0 - A * A))
        dH += dZ.T @ X
        db1 += dZ.sum(axis=0)
        dX = (dZ @ p["H"].value).reshape(len(idx), win, d)
        w_ids = win_ids.copy()
        w_ids[:, mid] = mid_ids
        m = w_ids >= 0
        row_ids.append(w_ids[m])
        row_grads.append(dX[m])
    _apply_dense_ascent(p["H"], dH, cfg)
    _apply_dense_ascent(p["b1"], db1, cfg)
    _apply_dense_ascent(p["U"], dU, cfg)
    _apply_rows_ascent(e, np.concatenate(row_ids), np.concatenate(row_grads), cfg)
    return loss


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

    offs = space.char_offsets
    nch = (offs[words + 1] - offs[words]).astype(np.int64)
    total = int(nch.sum())
    starts = np.repeat(offs[words], nch)
    within = np.arange(total) - np.repeat(np.cumsum(nch) - nch, nch)
    char_rows = space.char_flat[starts + within]
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
        wgts.append(np.ones(total))
    return np.concatenate(rows), np.concatenate(tgts), np.concatenate(wgts)


def _shard_documents(docs: List[np.ndarray], workers: int) -> List[List[np.ndarray]]:
    return [docs[i::workers] for i in range(workers)]


def train_epochs(model: EmbeddingModel, corpus: CorpusStream, cfg: TrainConfig,
                 space: Optional[CharWordSpace] = None,
                 checkpoint_dir=None, log_fn=None) -> List[EpochStats]:
    """Run full corpus passes with per-epoch stats and checkpoints.

    Deterministic for workers=1 under a fixed seed. With workers > 1,
    document shards train concurrently and update shared tables without
    locking (the usual lock-free contract); results then vary run to run.
    """
    cfg.validate(model.kind)
    vocab = model.vocab
    vocab.configure_subsampling(cfg.subsample_t, cfg.subsample_variant)
    docs = [ids for ids in (vocab.encode(doc) for doc in corpus.documents)
            if len(ids) > 0]
    sampler = NoiseSampler(vocab.counts) if not cfg.full_softmax else None
    charword = space is not None and (cfg.beta > 0.0 or cfg.char_context)
    if charword and model.kind != "skipgram":
        raise DataError("joint char-word training extends skipgram")
    if cfg.precision == "float32":
        _convert_params(model, np.float32)

    stats: List[EpochStats] = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        totals = [0.0, 0, 0]  # loss, units, tokens

        def run_shard(shard_docs, worker_id):
            srng = substream(cfg.seed, f"subsample-{epoch}-w{worker_id}")
            nrng = substream(cfg.seed, f"negatives-{epoch}-w{worker_id}")
            loss, units, tokens = _train_one_pass(
                model, shard_docs, cfg, sampler, space, srng, nrng)
            totals[0] += loss
            totals[1] += units
            totals[2] += tokens

        if cfg.workers == 1:
            run_shard(docs, 0)
        else:
            threads = [threading.Thread(target=run_shard, args=(shard, i))
                       for i, shard in enumerate(_shard_documents(docs, cfg.workers))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        seconds = time.perf_counter() - t0
        mean_loss = totals[0] / max(totals[1], 1)
        st = EpochStats(epoch=epoch, mean_loss=mean_loss,
                        tokens_per_sec=totals[2] / max(seconds, 1e-9),
                        n_units=totals[1], seconds=seconds)
        stats.append(st)
        if log_fn is not None:
            log_fn(f"epoch={epoch} mean_loss={mean_loss:.6f} "
                   f"tokens_per_sec={st.tokens_per_sec:.0f}")
        if checkpoint_dir is not None:
            from .io_formats import EmbeddingTable, save_embeddings
            path = os.path.join(str(checkpoint_dir), f"checkpoint-ep{epoch}.vec")
            save_embeddings(EmbeddingTable(model.tokens, model.e), path)
    if cfg.precision == "float32":
        _convert_params(model, np.float64)
    return stats


def _convert_params(model, dtype) -> None:
    for p in model._params.values():
        p.value = p.value.astype(dtype)
        if p.accum is not None:
            p.accum = p.accum.astype(dtype)


def _train_one_pass(model, docs, cfg, sampler, space, srng, nrng):
    """One pass over `docs`; returns (loss sum, unit count, token count)."""
    win = model.win
    chunk_windows = max(cfg.batch_size * 8, 4096)
    tgt_buf: List[np.ndarray] = []
    ctx_buf: List[np.ndarray] = []
    buffered = 0
    loss_sum, units, tokens = 0.0, 0, 0
    subsample = cfg.subsample_t is not None

    def flush():
        nonlocal loss_sum, units, buffered
        if not tgt_buf:
            return
        tgt = np.concatenate(tgt_buf)
        ctx = np.concatenate(ctx_buf, axis=0)
        tgt_buf.clear()
        ctx_buf.clear()
        buffered = 0
        loss_sum_, units_ = _process_chunk(model, cfg, sampler, space, nrng, tgt, ctx)
        loss_sum += loss_sum_
        units += units_

    for ids in docs:
        if subsample:
            ids = subsample_ids(ids, model.vocab, srng)
        if len(ids) == 0:
            continue
        tokens += len(ids)
        for t, c in _document_windows_segmented(ids, win):
            tgt_buf.append(t)
            ctx_buf.append(c)
            buffered += len(t)
            if buffered >= chunk_windows:
                flush()
    flush()
    return loss_sum, units, tokens


_MAX_SEGMENT = 131072


def _document_windows_segmented(ids, win):
    """Window arrays for one document, split with a correct halo so very
    long documents never materialize all their windows at once."""
    n = len(ids)
    if n <= _MAX_SEGMENT:
        yield document_window_arrays(ids, win)
        return
    half = (win - 1) // 2
    for start in range(0, n, _MAX_SEGMENT):
        end = min(n, start + _MAX_SEGMENT)
        lo = max(0, start - half)
        hi = min(n, end + half)
        t, c = document_window_arrays(ids[lo:hi], win)
        yield t[start - lo:end - lo], c[start - lo:end - lo]


_DUMMY_ACCUM = np.zeros((1, 1))


def _kernel_buffers(model, cfg):
    e, ep = model._params["e"], model._params["e_prime"]
    adagrad = cfg.optimizer == "adagrad"
    acc_e = e.ensure_accum() if adagrad else _DUMMY_ACCUM
    acc_ep = ep.ensure_accum() if adagrad else _DUMMY_ACCUM
    return e.value, ep.value, acc_e, acc_ep, adagrad


def _process_chunk(model, cfg, sampler, space, nrng, tgt, ctx) -> tuple:
    kind = model.kind
    B = cfg.batch_size
    loss_sum, units = 0.0, 0
    if kind == "skipgram":
        charword = space is not None and (cfg.beta > 0.0 or cfg.char_context)
        if charword:
            rows, tgts, wgts = _expand_charword_arrays(
                space, tgt, ctx, cfg.beta, cfg.char_context)
        else:
            mask = ctx >= 0
            win_idx, slot_idx = np.nonzero(mask)
            rows = ctx[win_idx, slot_idx]
            tgts = tgt[win_idx]
            wgts = np.ones(len(rows))
        if cfg.full_softmax:
            for lo in range(0, len(rows), B):
                sl = slice(lo, lo + B)
                loss_sum += _pair_batch_full_softmax(model, cfg, rows[sl],
                                                     tgts[sl], wgts[sl])
        elif fastpath.HAVE_NUMBA and len(rows):
            negs = sampler.sample_matrix((len(rows), cfg.negatives), tgts, nrng)
            ev, epv, acc_e, acc_ep, adagrad = _kernel_buffers(model, cfg)
            loss_sum += _finite(fastpath.pairs_kernel(
                ev, epv, acc_e, acc_ep, rows, tgts, wgts, negs,
                cfg.lr, ADAGRAD_EPS, adagrad), "training loss")
        else:
            for lo in range(0, len(rows), B):
                sl = slice(lo, lo + B)
                loss_sum += _pair_batch_ns(model, cfg, sampler, nrng,
                                           rows[sl], tgts[sl], wgts[sl])
        units += len(rows)
        return loss_sum, units
    if kind == "cw":
        windows = _assemble_cw_windows(model.win, tgt, ctx)
        for lo in range(0, len(windows), B):
            loss_sum += _window_batch_cw(model, cfg, nrng, windows[lo:lo + B])
        units += len(windows)
        return loss_sum, units
    keep = (ctx >= 0).any(axis=1)  # predictive window kinds need context
    tgt, ctx = tgt[keep], ctx[keep]
    if kind == "cbow" and fastpath.HAVE_NUMBA and len(tgt):
        negs = sampler.sample_matrix((len(tgt), cfg.negatives), tgt, nrng)
        ev, epv, acc_e, acc_ep, adagrad = _kernel_buffers(model, cfg)
        loss_sum += _finite(fastpath.cbow_kernel(
            ev, epv, acc_e, acc_ep, tgt, ctx, np.ones(len(tgt)), negs,
            cfg.lr, ADAGRAD_EPS, adagrad), "training loss")
        return loss_sum, len(tgt)
    for lo in range(0, len(tgt), B):
        sl = slice(lo, lo + B)
        loss_sum += _window_batch_predictive(model, cfg, sampler, nrng,
                                             tgt[sl], ctx[sl])
    units += len(tgt)
    return loss_sum, units


def _assemble_cw_windows(win, tgt, ctx) -> np.ndarray:
    """Insert the target column into the middle of the context slots."""
    half = (win - 1) // 2
    b = len(tgt)
    out = np.empty((b, win), dtype=np.int64)
    out[:, :half] = ctx[:, :half]
    out[:, half] = tgt
    out[:, half + 1:] = ctx[:, half:]
    return out
