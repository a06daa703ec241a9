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

Each objective has one batched forward/backward, `_pair_batch_ns`,
`_pair_batch_full_softmax`, `_window_batch_predictive` or
`_window_batch_cw`. It takes pre-drawn negatives or corrupt words, writes
nothing, and returns the batch loss and the ASCENT gradients d(-loss):
`(ids, rows)` for a row-sparse table (e, e_prime, b2), a dense array for
H, b1, U and the full-softmax e_prime. `train_epochs` draws the samples
per batch, checks the loss and hands the gradients to `optim.step_rows`
and `optim.step_dense`; the gradient checks run these same functions.
"""

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .corpus import (CHAR_PREFIX, CorpusStream, Vocabulary, decompose_word,
                     document_window_arrays, subsample_ids)
from .errors import DataError
from .optim import (NoiseSampler, Param, check_finite, log_sigmoid,
                    log_softmax, sigmoid, step_dense, step_rows)
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
        if kind in ("lbl", "nnlm", "cw") and hidden < 1:
            raise ValueError(f"hidden must be >= 1 for {kind}")
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
# batched forward/backward: one function per objective
# ---------------------------------------------------------------------------

def _slot_rows(e: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """(b, n, dim) rows of `e` for (b, n) slot ids; empty slots (-1) stay zero."""
    mask = ids >= 0
    S = np.zeros((*ids.shape, e.shape[1]))
    S[mask] = e[ids[mask]]
    return S


def _context_inputs(model: EmbeddingModel, ctx: np.ndarray) -> np.ndarray:
    """Context representation x of each window: the mean of the context
    vectors for cbow, their position-ordered concatenation otherwise."""
    S = _slot_rows(model.e, ctx)
    if model.kind == "cbow":
        return S.sum(axis=1) / (ctx >= 0).sum(axis=1)[:, None]
    return S.reshape(len(ctx), -1)


def _ns_scores(model: EmbeddingModel, X: np.ndarray, tids: np.ndarray):
    """Energies of the target ids `tids` (b, m) against inputs X.

    Returns (scores, A, R): A is what the target rows R score against, X
    itself or the hidden layer of lbl (linear) and nnlm (tanh).
    """
    p = model._params
    R = p["e_prime"].value[tids]
    if model.kind not in ("lbl", "nnlm"):
        return np.einsum("bmd,bd->bm", R, X), X, R
    Z = X @ p["H"].value.T + p["b1"].value
    A = np.tanh(Z) if model.kind == "nnlm" else Z
    return np.einsum("bmh,bh->bm", R, A) + p["b2"].value[tids], A, R


def _ns_loss(s: np.ndarray):
    """Per-row negative-sampling loss (column 0 is the positive target) and
    its ascent gradient d(-loss)/ds."""
    loss = -(log_sigmoid(s[:, 0]) + log_sigmoid(-s[:, 1:]).sum(axis=1))
    g = np.empty_like(s)
    g[:, 0] = sigmoid(-s[:, 0])
    g[:, 1:] = -sigmoid(s[:, 1:])
    return loss, g


def _pair_batch_ns(model, ctx, tgt, wgt, negs):
    """Weighted negative sampling over (input row -> target) pairs."""
    X = model.e[ctx]
    tids = np.concatenate([tgt[:, None], negs], axis=1)
    s, _, R = _ns_scores(model, X, tids)
    loss, g = _ns_loss(s)
    g *= wgt[:, None]
    dR = g[:, :, None] * X[:, None, :]
    dX = np.einsum("bm,bmd->bd", g, R)
    return float((loss * wgt).sum()), {
        "e_prime": (tids.ravel(), dR.reshape(-1, dR.shape[-1])), "e": (ctx, dX)}


def _pair_batch_full_softmax(model, ctx, tgt, wgt):
    """Exact softmax over the vocabulary; meant for small vocabularies."""
    X = model.e[ctx]
    ep = model.e_prime
    lsm = log_softmax(X @ ep.T)
    rows = np.arange(len(tgt))
    G = -np.exp(lsm)
    G[rows, tgt] += 1.0
    G *= wgt[:, None]
    return float((-lsm[rows, tgt] * wgt).sum()), {"e_prime": G.T @ X,
                                                  "e": (ctx, G @ ep)}


def _window_batch_predictive(model, tgt, ctx, negs):
    """Negative sampling for cbow/order/lbl/nnlm windows.

    `ctx` is (b, win-1) with -1 in empty slots; every window needs at least
    one context word.
    """
    p = model._params
    X = _context_inputs(model, ctx)
    tids = np.concatenate([tgt[:, None], negs], axis=1)
    s, A, R = _ns_scores(model, X, tids)
    loss, g = _ns_loss(s)
    dR = g[:, :, None] * A[:, None, :]
    dX = np.einsum("bm,bmh->bh", g, R)
    grads = {"e_prime": (tids.ravel(), dR.reshape(-1, dR.shape[-1]))}
    if model.kind in ("lbl", "nnlm"):
        dZ = dX * (1.0 - A * A) if model.kind == "nnlm" else dX
        grads["b2"] = (tids.ravel(), g.ravel())
        grads["H"] = dZ.T @ X
        grads["b1"] = dZ.sum(axis=0)
        dX = dZ @ p["H"].value
    mask = ctx >= 0
    if model.kind == "cbow":
        rows = (dX / mask.sum(axis=1)[:, None])[np.nonzero(mask)[0]]
    else:
        rows = dX.reshape(*ctx.shape, model.dim)[mask]
    grads["e"] = (ctx[mask], rows)
    return float(loss.sum()), grads


def _cw_scores(model: EmbeddingModel, X: np.ndarray):
    """Hidden layer A and C&W score A @ U of flattened windows X."""
    p = model._params
    A = np.tanh(X @ p["H"].value.T + p["b1"].value)
    return A, A @ p["U"].value


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
    dH = np.zeros_like(p["H"].value)
    db1 = np.zeros_like(p["b1"].value)
    dU = np.zeros_like(p["U"].value)
    row_ids, row_grads = [], []
    # ascent on -hinge: d/ds_pos = +1, d/ds_neg = -1 on violating windows
    for X, A, gs, mid_ids in ((Xp[idx], Ap[idx], 1.0, windows[idx, mid]),
                              (Xn[idx], An[idx], -1.0, neg[idx])):
        dU += gs * A.sum(axis=0)
        dZ = gs * (p["U"].value[None, :] * (1.0 - A * A))
        dH += dZ.T @ X
        db1 += dZ.sum(axis=0)
        dX = (dZ @ p["H"].value).reshape(len(idx), win, d)
        w_ids = windows[idx]
        w_ids[:, mid] = mid_ids
        m = w_ids >= 0
        row_ids.append(w_ids[m])
        row_grads.append(dX[m])
    return loss, {"H": dH, "b1": db1, "U": dU,
                  "e": (np.concatenate(row_ids), np.concatenate(row_grads))}


def _apply_step(model: EmbeddingModel, cfg: TrainConfig, loss: float,
                grads: dict) -> float:
    """Check a batch's loss, then take one optimizer step per parameter."""
    check_finite(loss, "training loss")
    adagrad = cfg.optimizer == "adagrad"
    for name, g in grads.items():
        param = model._params[name]
        accum = param.ensure_accum() if adagrad else None
        if isinstance(g, tuple):
            step_rows(param.value, *g, cfg.lr, accum)
        else:
            step_dense(param.value, g, cfg.lr, accum)
    return loss


# ---------------------------------------------------------------------------
# epoch training
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    tokens_per_sec: float
    n_units: int
    seconds: float


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


def _process_chunk(model, cfg, sampler, space, nrng, tgt, ctx) -> tuple:
    """Draw each batch's negatives or corrupt words, then take one step per
    batch; returns (loss sum, unit count)."""
    B = cfg.batch_size
    loss_sum = 0.0
    if model.kind == "skipgram":
        beta, char_ctx = ((cfg.beta, cfg.char_context) if space is not None
                           else (0.0, False))
        rows, tgts, wgts = _expand_charword_arrays(space, tgt, ctx, beta, char_ctx)
        for lo in range(0, len(rows), B):
            r, t, w = rows[lo:lo + B], tgts[lo:lo + B], wgts[lo:lo + B]
            if cfg.full_softmax:
                out = _pair_batch_full_softmax(model, r, t, w)
            else:
                negs = sampler.sample_matrix((len(t), cfg.negatives), t, nrng)
                out = _pair_batch_ns(model, r, t, w, negs)
            loss_sum += _apply_step(model, cfg, *out)
        return loss_sum, len(rows)
    if model.kind == "cw":
        windows = _assemble_cw_windows(model.win, tgt, ctx)
        mid = (model.win - 1) // 2
        for lo in range(0, len(windows), B):
            w = windows[lo:lo + B]
            neg = _corrupt_words(w[:, mid], len(model.vocab), nrng)
            loss_sum += _apply_step(model, cfg, *_window_batch_cw(model, w, neg))
        return loss_sum, len(windows)
    keep = (ctx >= 0).any(axis=1)  # predictive window kinds need context
    tgt, ctx = tgt[keep], ctx[keep]
    for lo in range(0, len(tgt), B):
        t, c = tgt[lo:lo + B], ctx[lo:lo + B]
        negs = sampler.sample_matrix((len(t), cfg.negatives), t, nrng)
        loss_sum += _apply_step(model, cfg,
                                *_window_batch_predictive(model, t, c, negs))
    return loss_sum, len(tgt)


def _corrupt_words(tgt, n_words, rng) -> np.ndarray:
    """One uniformly drawn word per window, redrawn until it differs from
    the window's target."""
    neg = rng.integers(n_words, size=len(tgt))
    while True:
        clash = neg == tgt
        if not clash.any():
            return neg
        neg[clash] = rng.integers(n_words, size=int(clash.sum()))


def _assemble_cw_windows(win, tgt, ctx) -> np.ndarray:
    """Insert the target column into the middle of the context slots."""
    half = (win - 1) // 2
    b = len(tgt)
    out = np.empty((b, win), dtype=np.int64)
    out[:, :half] = ctx[:, :half]
    out[:, half] = tgt
    out[:, half + 1:] = ctx[:, half:]
    return out
