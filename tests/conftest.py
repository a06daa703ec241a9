"""Shared fixtures and the finite-difference harness used across tests.

The harness flattens a model's parameters into one vector and adapts each
loss, per sample or per batch, to the (loss, flat gradient) signature the
checker, `gradient_check`, expects.
Random configurations are redrawn when they are numerically unsuitable for
central differences in double precision: a loss sitting on a hinge kink or
pooling tie, or a gradient coordinate inside the band (1e-12, 1e-6) where
the finite-difference signal drops below float64 rounding noise. Real
gradient bugs produce wrongly scaled coordinates and still fail loudly.
"""

from collections import Counter

import numpy as np
import pytest

from embkit.corpus import CorpusStream, Vocabulary, build_vocabulary
from embkit.embeddings import (_expand_charword_arrays, _window_batch_cw,
                               _window_batch_predictive)


def pack(arrs):
    return np.concatenate([np.asarray(a).ravel() for a in arrs.values()])


def unpack(theta, arrs):
    pos = 0
    for a in arrs.values():
        a[...] = theta[pos:pos + a.size].reshape(a.shape)
        pos += a.size


def dense_grads(params, grads):
    """`grads` as dense arrays keyed like `params`: an `(ids, rows)` pair is
    summed into zeros with np.add.at, and a missing entry is zeros."""
    dense = {}
    for name, value in params.items():
        g = grads.get(name)
        if isinstance(g, tuple):
            g = np.zeros(value.shape)
            np.add.at(g, *grads[name])
        dense[name] = np.zeros(value.shape) if g is None else g
    return dense


def gradient_check(loss_and_grad, point, eps=1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_and_grad` maps a flat parameter vector to (loss, flat gradient).
    Per coordinate the error is |a - n| / max(|a|, |n|, 1e-8).
    """
    point = np.asarray(point, dtype=np.float64)
    _, analytic = loss_and_grad(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.empty_like(analytic)
    for i in range(point.size):
        bumped = point.copy()
        bumped[i] = point[i] + eps
        up, _ = loss_and_grad(bumped)
        bumped[i] = point[i] - eps
        down, _ = loss_and_grad(bumped)
        numeric[i] = (up - down) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def flat_checker(params, loss_fn):
    """Build f(theta) -> (loss, flat grad) over the given parameter dict.

    `loss_fn` must return (loss, grads of the loss) in the trainers' form:
    an array or an `(ids, rows)` pair per parameter (see `dense_grads`).
    """
    def f(theta):
        unpack(theta, params)
        loss, grads = loss_fn()
        dense = dense_grads(params, grads)
        return loss, np.concatenate([np.ravel(dense[k]) for k in params])

    return f, pack(params)


def in_noise_band(flat_grad, hi=1e-6):
    """True when some coordinate is nonzero but too small for central
    differences to resolve. Exactly-zero coordinates are safe: the bumped
    value never enters the computation, so both loss evaluations are
    bitwise identical. Tiny nonzero residues come from float cancellation,
    and the same cancellation makes the finite difference pure noise."""
    mag = np.abs(flat_grad)
    return bool(np.any((mag > 0.0) & (mag < hi)))


def score_matrix(model):
    """The |V| x |V| scores P Q^T (+ bias1[i] + bias2[j]) of a matrixfact
    FactorModel: the oracle its fits are checked against."""
    s = model.P @ model.Q.T
    if model.bias1 is not None:
        s = s + model.bias1[:, None] + model.bias2[None, :]
    return s


def dense_counts(matrix):
    """The |V| x |V| counts of a matrixfact CooccurrenceMatrix, zero
    outside its cells: the oracle its cell arithmetic is checked against."""
    dense = np.zeros((len(matrix.vocab),) * 2)
    dense[matrix.rows, matrix.cols] = matrix.vals
    return dense


def cosine(u, v) -> float:
    """u . v / (|u| |v|) in float64 for nonzero u and v: the oracle of the
    evaluation's unit-row scores."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def documents(corpus):
    """The documents of a CorpusStream as token lists, ids decoded."""
    return [[corpus.types[i] for i in corpus.ids[lo:lo + n]] for lo, n in
            zip(corpus.starts, np.diff(corpus.starts, append=len(corpus.ids)))]


# The string path that CorpusStream replaced, kept as its oracle: documents
# as token lists, a Counter vocabulary, one encode per document, a list
# shuffle and worker shards cut from the list of non-empty documents.

def oracle_documents(lines, blank_line_docs=False):
    """Token lists of the documents of text `lines`: each line with a
    token, or with `blank_line_docs` each run of lines between blank ones."""
    docs, current = [], []
    for line in lines:
        tokens = line.split()
        if not blank_line_docs:
            if tokens:
                docs.append(tokens)
        elif tokens:
            current.extend(tokens)
        elif current:
            docs.append(current)
            current = []
    if current:
        docs.append(current)
    return docs


def oracle_vocabulary(docs, min_count=1, fixed_vocab=None):
    """(tokens, counts) by descending count, then token; empty lists if
    nothing reaches min_count."""
    tokens = (t for doc in docs for t in doc)
    if fixed_vocab is not None:
        tokens = filter(set(fixed_vocab).__contains__, tokens)
    counts = Counter(tokens)
    kept = sorted(tok for tok, c in counts.items() if c >= min_count)
    kept.sort(key=counts.__getitem__, reverse=True)
    return kept, [counts[tok] for tok in kept]


def oracle_encode(doc, vocab):
    """The ids of one document, out-of-vocabulary tokens dropped."""
    table = vocab.token_to_id
    return np.array([table[t] for t in doc if t in table], dtype=np.int64)


def oracle_shuffle(docs, seed):
    order = np.random.default_rng(seed).permutation(len(docs))
    return [docs[i] for i in order]


def oracle_concatenate(docs):
    """`(ids, starts)` of a list of id arrays, one start per array."""
    ids = np.concatenate([np.empty(0, dtype=np.int64), *docs])
    return ids, np.cumsum([0] + [len(d) for d in docs[:-1]])[:len(docs)]


def oracle_shards(encoded, workers):
    """`(ids, starts)` of each worker's shard of the encoded documents."""
    docs = [ids for ids in encoded if len(ids) > 0]
    return [oracle_concatenate(docs[w::workers]) for w in range(workers)]


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


def slotwise_windows(ids, win, pad):
    """Oracle: row i holds ids[i + off] for off in -h..h, pad outside."""
    half = (win - 1) // 2
    return [[int(ids[i + off]) if 0 <= i + off < len(ids) else pad
             for off in range(-half, half + 1)] for i in range(len(ids))]


def predictive_batch(model, rng, n_words, k=3):
    """Forward/backward closure over 1-3 random windows with k random
    negatives per scored unit: a one-slot window per context word for
    skipgram, the windows themselves for cbow, order, lbl and nnlm."""
    tgt, ctx = random_windows(rng, n_words, int(rng.integers(1, 4)), model.win)
    if model.kind == "skipgram":
        rows, tgt, wgt = _expand_charword_arrays(None, tgt, ctx, 0.0, False)
        ctx = rows[:, None]
    else:
        wgt = np.ones(len(tgt))
    negs = rng.integers(0, n_words, (len(tgt), k))
    return lambda: _window_batch_predictive(model, tgt, ctx, wgt, negs)


def cw_batch(model, rng, n_words):
    """Forward/backward closure over 1-3 random windows with corrupt middle
    words, or None unless every window violates its margin by more than
    0.02, which keeps central differences clear of the hinge kink."""
    tgt, ctx = random_windows(rng, n_words, int(rng.integers(1, 4)), model.win)
    windows = np.insert(ctx, (model.win - 1) // 2, tgt, axis=1)
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
    windows of the joint char-word objective, as one-slot windows, two
    negatives per pair."""
    tgt, ctx = random_windows(rng, n_words, int(rng.integers(1, 4)), model.win)
    rows, tgts, wgts = _expand_charword_arrays(space, tgt, ctx, beta,
                                               char_context)
    negs = rng.integers(0, n_words, (len(rows), 2))
    return lambda: _window_batch_predictive(model, tgts, rows[:, None], wgts,
                                            negs)


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
    return build_vocabulary(toy_corpus, min_count=1)

