"""Shared fixtures and the finite-difference harness used across tests.

The harness flattens a model's parameters into one vector and adapts each
loss, per sample or per batch, to the (loss, flat gradient) signature the
checker expects.
Random configurations are redrawn when they are numerically unsuitable for
central differences in double precision: a loss sitting on a hinge kink or
pooling tie, or a gradient coordinate inside the band (1e-12, 1e-6) where
the finite-difference signal drops below float64 rounding noise. Real
gradient bugs produce wrongly scaled coordinates and still fail loudly.
"""

import numpy as np
import pytest

from embkit.corpus import CorpusStream, Vocabulary, build_vocabulary
from embkit.embeddings import (_assemble_cw_windows, _expand_charword_arrays,
                               _pair_batch_ns, _window_batch_cw,
                               _window_batch_predictive)
from embkit.optim import Param


def arrays_of(params):
    return {k: (p.value if isinstance(p, Param) else p) for k, p in params.items()}


def pack(arrs):
    return np.concatenate([np.asarray(a).ravel() for a in arrs.values()])


def unpack(theta, arrs):
    pos = 0
    for a in arrs.values():
        a[...] = theta[pos:pos + a.size].reshape(a.shape)
        pos += a.size


def flat_checker(params, loss_fn):
    """Build f(theta) -> (loss, flat grad) over the given parameter dict.

    `loss_fn` must return (loss, grads) with grads keyed like params.
    """
    arrs = arrays_of(params)
    names = list(arrs)

    def f(theta):
        unpack(theta, arrs)
        loss, grads = loss_fn()
        flat = np.concatenate([np.asarray(grads[k]).ravel() for k in names])
        return loss, flat

    return f, pack(arrs)


def in_noise_band(flat_grad, hi=1e-6):
    """True when some coordinate is nonzero but too small for central
    differences to resolve. Exactly-zero coordinates are safe: the bumped
    value never enters the computation, so both loss evaluations are
    bitwise identical. Tiny nonzero residues come from float cancellation,
    and the same cancellation makes the finite difference pure noise."""
    mag = np.abs(flat_grad)
    return bool(np.any((mag > 0.0) & (mag < hi)))


def ascent_checker(params, forward_backward):
    """flat_checker for a batched forward/backward of the embedding trainer.

    `forward_backward()` returns (loss, ascent grads) with `(ids, rows)` for
    row-sparse tables; rows are densified with np.add.at, negated into
    gradients of the loss, and a parameter without an entry gets zeros.
    """
    arrs = arrays_of(params)

    def loss_fn():
        loss, grads = forward_backward()
        dense = {}
        for name, value in arrs.items():
            g = grads.get(name)
            if isinstance(g, tuple):
                rows = np.zeros(value.shape)
                np.add.at(rows, g[0], g[1])
                g = rows
            dense[name] = -g if g is not None else np.zeros(value.shape)
        return loss, dense

    return flat_checker(params, loss_fn)


def random_windows(rng, n_words, n_windows, win=5):
    """Targets and (n_windows, win-1) context slots of random windows.

    Each window keeps 1..win-1 context words, filled outward from the
    target as near a document boundary; -1 marks the empty slots.
    """
    half = (win - 1) // 2
    tgt = rng.integers(0, n_words, n_windows)
    ctx = np.full((n_windows, win - 1), -1, dtype=np.int64)
    for row in ctx:
        n_ctx = int(rng.integers(1, win))
        n_left = min(n_ctx, half)
        row[half - n_left:half + n_ctx - n_left] = rng.integers(0, n_words, n_ctx)
    return tgt, ctx


def predictive_batch(model, rng, n_words, k=3):
    """Forward/backward closure over 1-3 random windows with k random
    negatives per scored unit: the pair batch (one pair per context word)
    for skipgram, the window batch for cbow, order, lbl and nnlm."""
    tgt, ctx = random_windows(rng, n_words, int(rng.integers(1, 4)), model.win)
    if model.kind == "skipgram":
        rows, tgts, wgts = _expand_charword_arrays(None, tgt, ctx, 0.0, False)
        negs = rng.integers(0, n_words, (len(rows), k))
        return lambda: _pair_batch_ns(model, rows, tgts, wgts, negs)
    negs = rng.integers(0, n_words, (len(tgt), k))
    return lambda: _window_batch_predictive(model, tgt, ctx, negs)


def cw_batch(model, rng, n_words):
    """Forward/backward closure over 1-3 random windows with corrupt middle
    words, or None unless every window violates its margin by more than
    0.02, which keeps central differences clear of the hinge kink."""
    tgt, ctx = random_windows(rng, n_words, int(rng.integers(1, 4)), model.win)
    windows = _assemble_cw_windows(model.win, tgt, ctx)
    neg = rng.integers(0, n_words, len(tgt))
    if (neg == tgt).any():
        return None
    losses = [_window_batch_cw(model, windows[i:i + 1], neg[i:i + 1])[0]
              for i in range(len(tgt))]
    if min(losses) <= 0.02:
        return None
    return lambda: _window_batch_cw(model, windows, neg)


def charword_batch(model, space, rng, n_words, beta, char_context=False):
    """Forward/backward closure over the weighted pairs of 1-3 random
    windows of the joint char-word objective, two negatives per pair."""
    tgt, ctx = random_windows(rng, n_words, int(rng.integers(1, 4)), model.win)
    rows, tgts, wgts = _expand_charword_arrays(space, tgt, ctx, beta,
                                               char_context)
    negs = rng.integers(0, n_words, (len(rows), 2))
    return lambda: _pair_batch_ns(model, rows, tgts, wgts, negs)


def densify_row_grads(shape, grads):
    """Convert _e_rows/_e_ids sparse gradients into a dense 'e' entry."""
    out = {k: v for k, v in grads.items() if not k.startswith("_")}
    e = np.zeros(shape)
    np.add.at(e, grads["_e_ids"], grads["_e_rows"])
    out["e"] = e
    return out


@pytest.fixture
def small_vocab():
    tokens = [f"w{i}" for i in range(6)]
    return Vocabulary(tokens, [8, 5, 4, 3, 2, 2])


@pytest.fixture
def toy_corpus():
    rng = np.random.default_rng(123)
    zipf = np.array([1.0 / (r + 1) for r in range(8)])
    zipf /= zipf.sum()
    docs = [[f"w{rng.choice(8, p=zipf)}" for _ in range(40)] for _ in range(60)]
    return CorpusStream(docs)


@pytest.fixture
def toy_vocab(toy_corpus):
    return build_vocabulary(toy_corpus.all_tokens(), min_count=1)

