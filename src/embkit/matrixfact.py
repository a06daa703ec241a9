"""Word-word co-occurrence counting and factorization counterparts.

Includes the weighted squared-log objective, plain log-count and conditional
log-count factorization, and the report comparing a full-softmax skipgram
model's conditionals against the empirical co-occurrence conditionals.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .corpus import CorpusStream, Vocabulary
from .errors import DataError
from .io_formats import open_text
from .optim import ADAGRAD_EPS, check_finite, softmax

GLOVE_X_MAX = 100.0
GLOVE_ALPHA = 0.75


class CooccurrenceMatrix:
    """Sparse (target, context) counts over windows, no subsampling."""

    def __init__(self, vocab: Vocabulary, win: int,
                 entries: Optional[Dict[Tuple[int, int], float]] = None):
        self.vocab = vocab
        self.win = win
        self.entries = entries if entries is not None else {}

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, i: int, j: int) -> float:
        return self.entries.get((i, j), 0.0)

    def total_mass(self) -> float:
        return sum(self.entries.values())

    def column_sums(self) -> np.ndarray:
        _, cols, vals = self.nonzero_arrays()
        return np.bincount(cols, vals, minlength=len(self.vocab))

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self.nonzero_arrays()
        dense = np.zeros((len(self.vocab), len(self.vocab)))
        dense[rows, cols] = vals
        return dense

    def nonzero_arrays(self):
        """(rows, cols, values) arrays in (row, col) order."""
        n = len(self.entries)
        ij = np.fromiter(itertools.chain.from_iterable(self.entries),
                         dtype=np.int64, count=2 * n).reshape(n, 2)
        vals = np.fromiter(self.entries.values(), dtype=np.float64, count=n)
        order = np.lexsort((ij[:, 1], ij[:, 0]))
        return ij[order, 0], ij[order, 1], vals[order]

    def save(self, path) -> None:
        # 17 significant digits round-trip any float; integers print as such
        rows, cols, vals = self.nonzero_arrays()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines("%d\t%d\t%.17g\n" % cell for cell in
                          zip(rows.tolist(), cols.tolist(), vals.tolist()))

    @classmethod
    def load(cls, path, vocab: Vocabulary, win: int) -> "CooccurrenceMatrix":
        """Read `i<TAB>j<TAB>x` lines: ids in [0, |V|), x finite and > 0,
        each (i, j) cell at most once."""
        v = len(vocab)
        entries: Dict[Tuple[int, int], float] = {}
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: expected 'i<TAB>j<TAB>x'")
                try:
                    i, j, x = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: expected integer ids "
                                    f"and a numeric count") from exc
                if not (0 <= i < v and 0 <= j < v):
                    raise DataError(f"{path}:{lineno}: index outside the "
                                    f"vocabulary of {v} words")
                if not (math.isfinite(x) and x > 0):
                    raise DataError(f"{path}:{lineno}: count {parts[2]!r} is "
                                    f"not finite and positive")
                if (i, j) in entries:
                    raise DataError(f"{path}:{lineno}: cell ({i}, {j}) "
                                    f"appears twice")
                entries[(i, j)] = x
        return cls(vocab, win, entries)


def count_cooccurrences(corpus: CorpusStream, vocab: Vocabulary,
                        win: int) -> CooccurrenceMatrix:
    """x_ij = number of windows in which j appears in the context of i.

    Windows are those of `iter_windows` without subsampling: OOV tokens are
    dropped first and windows stop at document boundaries.
    """
    if win % 2 == 0 or win < 1:
        raise ValueError("window size must be odd and positive")
    v = len(vocab)
    encoded = [vocab.encode(doc) for doc in corpus.documents]
    ids = np.concatenate([np.empty(0, dtype=np.int64), *encoded])
    doc = np.repeat(np.arange(len(encoded)), [len(e) for e in encoded])
    keys = [np.empty(0, dtype=np.int64)]
    for off in range(1, (win - 1) // 2 + 1):
        same = doc[off:] == doc[:-off]
        left, right = ids[:-off][same], ids[off:][same]
        keys += [left * v + right, right * v + left]
    cells, counts = np.unique(np.concatenate(keys), return_counts=True)
    entries = dict(zip(zip((cells // v).tolist(), (cells % v).tolist()),
                       counts.astype(np.float64).tolist()))
    return CooccurrenceMatrix(vocab, win, entries)


def glove_weight(x, x_max: float = GLOVE_X_MAX, alpha: float = GLOVE_ALPHA):
    """Low-count damping weight: (x/x_max)**alpha below x_max, else 1.

    Accepts a count or an array of counts."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0):
        raise DataError("weighting is defined for positive counts only")
    w = np.where(x >= x_max, 1.0, (x / x_max) ** alpha)
    return float(w) if w.ndim == 0 else w


@dataclass
class FactorModel:
    P: np.ndarray  # target-side vectors, |V| x d
    Q: np.ndarray  # context-side vectors, |V| x d
    bias1: Optional[np.ndarray] = None  # per-word target bias
    bias2: Optional[np.ndarray] = None  # per-word context bias

    def score(self, i: int, j: int) -> float:
        s = float(self.P[i] @ self.Q[j])
        if self.bias1 is not None:
            s += float(self.bias1[i]) + float(self.bias2[j])
        return s

    def score_matrix(self) -> np.ndarray:
        s = self.P @ self.Q.T
        if self.bias1 is not None:
            s = s + self.bias1[:, None] + self.bias2[None, :]
        return s


def _init_factors(v: int, d: int, rng: np.random.Generator, biases: bool) -> FactorModel:
    scale = 0.5 / d
    model = FactorModel(P=rng.uniform(-scale, scale, size=(v, d)),
                        Q=rng.uniform(-scale, scale, size=(v, d)))
    if biases:
        model.bias1 = np.zeros(v)
        model.bias2 = np.zeros(v)
    return model


def train_glove(matrix: CooccurrenceMatrix, d: int, epochs: int,
                lr: float = 0.05, x_max: float = GLOVE_X_MAX,
                alpha: float = GLOVE_ALPHA, seed: int = 0):
    """Minimize sum f(x_ij) (p_i.q_j + b_i + b_j - log x_ij)^2 by AdaGrad
    over shuffled nonzero cells. Returns (model, final objective)."""
    if len(matrix) == 0:
        raise DataError("empty co-occurrence matrix")
    rows, cols, vals = matrix.nonzero_arrays()
    weights = glove_weight(vals, x_max, alpha)
    rng = np.random.default_rng(seed)
    model = _init_factors(len(matrix.vocab), d, rng, biases=True)
    objective = _fit_cells(model, rows, cols, np.log(vals), weights,
                           epochs, lr, rng)
    return model, objective


def factorize_log_counts(matrix: CooccurrenceMatrix, d: int,
                         mode: str = "raw_log", epochs: int = 200,
                         lr: float = 0.1, seed: int = 0):
    """Unweighted squared-error factorization of log counts.

    raw_log fits log(x_ij); conditional_log fits log(x_ij / column_sum_j).
    Zero-count cells are excluded. Returns (model, final objective).
    """
    if mode not in ("raw_log", "conditional_log"):
        raise ValueError(f"unknown factorization mode {mode!r}")
    rows, cols, vals = matrix.nonzero_arrays()
    if len(vals) == 0:
        raise DataError("no nonzero cells to factorize")
    if not np.all(vals > 0):
        raise DataError("counts must be positive where present")
    if mode == "raw_log":
        targets = np.log(vals)
    else:
        targets = np.log(vals / matrix.column_sums()[cols])
    rng = np.random.default_rng(seed)
    model = _init_factors(len(matrix.vocab), d, rng, biases=False)
    objective = _fit_cells(model, rows, cols, targets, np.ones(len(vals)),
                           epochs, lr, rng)
    return model, objective


def _fit_cells(model: FactorModel, rows, cols, targets, weights, epochs: int,
               lr: float, rng: np.random.Generator) -> float:
    """AdaGrad descent on sum_n w_n (fit(i_n, j_n) - t_n)^2, one cell at a
    time in a fresh shuffled order per epoch. Returns the final objective.

    Each order is cut into maximal runs in which no row and no column
    repeats. The cells of a run read and write disjoint rows of P, Q and
    the biases, so one gather/compute/scatter per run does what the
    cell-by-cell loop does, up to the rounding of the dot products. P over
    Q, with the biases as a last column, form one table whose views the
    model keeps, so a run moves all its rows at once. A run whose new rows
    are not all finite raises NumericError before anything is written.
    """
    v, d = model.P.shape
    biased = model.bias1 is not None
    table = np.concatenate([model.P, model.Q])
    if biased:
        table = np.column_stack(
            [table, np.concatenate([model.bias1, model.bias2])])
        model.bias1, model.bias2 = table[:v, d], table[v:, d]
    model.P, model.Q = table[:v, :d], table[v:, :d]
    accum = np.zeros_like(table)
    # overflow is caught by the finite check on each run's new rows
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(len(rows))
            i, j = rows[order], cols[order] + v
            t, w2 = targets[order], 2.0 * weights[order]
            bounds = _conflict_free_runs(i, j)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                _fit_run(table, accum, np.concatenate((i[lo:hi], j[lo:hi])),
                         t[lo:hi], w2[lo:hi], lr, d)
    return _glove_objective(model, rows, cols, targets, weights)


def _fit_run(table, accum, ids, targets, w2, lr: float, d: int) -> None:
    """One AdaGrad step for n cells with distinct rows: ids[:n] are their
    P rows and ids[n:] their Q rows in `table`, whose column d, if present,
    holds the biases. `w2` is twice the cell weights."""
    n = len(targets)
    old = table[ids]
    p, q = old[:n], old[n:]
    fit = np.einsum("nd,nd->n", p[:, :d], q[:, :d])
    biased = table.shape[1] > d
    if biased:
        fit = fit + p[:, d] + q[:, d]
    err = w2 * (fit - targets)  # d loss / d fit
    # p_i's gradient is err * q_j, q_j's is err * p_i and a bias's is err
    g = old.reshape(2, n, -1)[::-1] * err[:, None]
    if biased:
        g[:, :, d] = err
    g = g.reshape(2 * n, -1)
    a = accum[ids]
    a += g * g
    step = lr * g
    step /= np.sqrt(a) + ADAGRAD_EPS
    new = check_finite(old - step, "factorization update")
    accum[ids] = a
    table[ids] = new


def _conflict_free_runs(rows: np.ndarray, cols: np.ndarray) -> list:
    """Bounds [0, ..., len] of the greedy maximal runs of the sequence of
    (row, col) cells in which no row and no column occurs twice."""
    last = np.maximum(_previous_occurrence(rows), _previous_occurrence(cols))
    bounds = [0]
    for k, prev in enumerate(last.tolist()):
        if prev >= bounds[-1]:
            bounds.append(k)
    bounds.append(len(rows))
    return bounds


def _previous_occurrence(x: np.ndarray) -> np.ndarray:
    """Position of the previous equal element of `x`, or -1."""
    order = np.argsort(x, kind="stable")
    same = x[order[1:]] == x[order[:-1]]
    prev = np.full(len(x), -1)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _glove_objective(model, rows, cols, targets, weights) -> float:
    fit = np.einsum("nd,nd->n", model.P[rows], model.Q[cols])
    if model.bias1 is not None:
        fit = fit + model.bias1[rows] + model.bias2[cols]
    return float((weights * (fit - targets) ** 2).sum())


def skipgram_equivalence_report(matrix: CooccurrenceMatrix, model) -> dict:
    """KL(empirical || model) per context column for a full-softmax skipgram.

    The model conditional of column j is softmax_i(e'(v_i) . e(v_j)); the
    empirical conditional is x_ij / sum_k x_kj. Columns with no mass are
    skipped and reported.
    """
    e = model.e
    e_prime = model.e_prime
    v = len(matrix.vocab)
    if e.shape[0] < v:
        raise DataError("model vocabulary smaller than matrix vocabulary")
    dense = matrix.to_dense()
    col_sums = dense.sum(axis=0)
    scores = e_prime[:v] @ e[:v].T  # scores[i, j]
    model_cond = softmax(scores.T).T  # softmax over i per column j
    kls = []
    skipped = []
    for j in range(v):
        if col_sums[j] <= 0:
            skipped.append(j)
            continue
        emp = dense[:, j] / col_sums[j]
        nz = emp > 0
        kls.append(float(np.sum(emp[nz] * np.log(emp[nz] / model_cond[nz, j]))))
    if not kls:
        raise DataError("no nonzero columns to compare")
    return {
        "mean_kl": float(np.mean(kls)),
        "max_kl": float(np.max(kls)),
        "columns": len(kls),
        "skipped_columns": skipped,
    }
