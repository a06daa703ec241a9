"""Word-word co-occurrence counting and factorization counterparts.

Includes the weighted squared-log objective, plain log-count and conditional
log-count factorization, and the report comparing a full-softmax skipgram
model's conditionals against the empirical co-occurrence conditionals.
"""

import math

import numpy as np

from .corpus import CorpusStream, Vocabulary, window_matrix
from .errors import DataError, check_sizes, check_window
from .evaluate import _block_rows
from .io_formats import _atomic_open, line_error, numbered_lines
from .optim import DistinctRows, log_softmax, run_epochs


class CooccurrenceMatrix:
    """Sparse (target, context) counts over windows, no subsampling.

    The nonzero cells are three arrays in (row, col) order, each cell once:
    `rows`, `cols` and `vals`.
    """

    def __init__(self, vocab: Vocabulary, rows=(), cols=(), vals=()):
        self.vocab = vocab
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.vals)

    def column_sums(self) -> np.ndarray:
        return np.bincount(self.cols, self.vals, minlength=len(self.vocab))

    def nonzero_arrays(self):
        """(rows, cols, values) arrays in (row, col) order."""
        return self.rows, self.cols, self.vals

    def save(self, path) -> None:
        # 17 significant digits round-trip any float; integers print as such
        with _atomic_open(path, "w", encoding="utf-8") as fh:
            fh.writelines("%d\t%d\t%.17g\n" % cell for cell in
                          zip(self.rows.tolist(), self.cols.tolist(),
                              self.vals.tolist()))

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "CooccurrenceMatrix":
        """Read `i<TAB>j<TAB>x` lines: ids in [0, |V|), x finite and > 0,
        each (i, j) cell at most once. A malformed line, an id outside the
        vocabulary, a count that is not finite and positive or a repeated
        cell is a DataError naming the first such `path:line`."""
        v = len(vocab)
        rows, cols, vals = [], [], []
        seen = set()
        for lineno, line in numbered_lines(path):
            parts = line.split("\t")
            if len(parts) != 3:
                raise line_error(path, lineno, "expected 'i<TAB>j<TAB>x'")
            try:
                i, j, x = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise line_error(path, lineno, "expected integer ids "
                                 "and a numeric count") from exc
            if not (0 <= i < v and 0 <= j < v):
                raise line_error(path, lineno, f"index outside the "
                                 f"vocabulary of {v} words")
            if not (math.isfinite(x) and x > 0):
                raise line_error(path, lineno, f"count {parts[2]!r} is "
                                 f"not finite and positive")
            key = i * v + j
            if key in seen:
                raise line_error(path, lineno, f"cell ({i}, {j}) appears twice")
            seen.add(key)
            rows.append(i)
            cols.append(j)
            vals.append(x)
        rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
        order = np.lexsort((cols, rows))
        return cls(vocab, rows[order], cols[order],
                   np.array(vals, dtype=np.float64)[order])


_COUNT_BLOCK = 1 << 20  # positions windowed at once by count_cooccurrences


def count_cooccurrences(corpus: CorpusStream, vocab: Vocabulary,
                        win: int) -> CooccurrenceMatrix:
    """x_ij = number of windows in which j appears in the context of i.

    Windows are those of `iter_windows` without subsampling: OOV tokens are
    dropped first and windows stop at document boundaries.
    """
    check_window(win)
    v = len(vocab)
    ids, starts = vocab.encode(corpus)
    half = (win - 1) // 2
    keys = [np.empty(0, dtype=np.int64)]
    # windows a block at a time: only the pair keys span the whole corpus
    for lo in range(0, len(ids), _COUNT_BLOCK):
        windows = window_matrix(ids, win, -1, starts, lo,
                                min(lo + _COUNT_BLOCK, len(ids)))
        ctx = np.delete(windows, half, 1)
        keys.append((windows[:, half:half + 1] * v + ctx)[ctx >= 0])
    cells, counts = np.unique(np.concatenate(keys), return_counts=True)
    return CooccurrenceMatrix(vocab, cells // v, cells % v,
                              counts.astype(np.float64))


def glove_weight(x, x_max: float = 100.0, alpha: float = 0.75):
    """Low-count damping weight: (x/x_max)**alpha below x_max, else 1.

    Accepts a count or an array of counts."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0):
        raise DataError("weighting is defined for positive counts only")
    w = np.where(x >= x_max, 1.0, (x / x_max) ** alpha)
    return float(w) if w.ndim == 0 else w


class FactorModel:
    """One (2|V|, d) table, target-side rows P over context-side rows Q,
    with a last column of per-word biases (bias1 over bias2) if biased.
    P, Q, bias1 and bias2 are views of it; the biases are None if not."""

    def __init__(self, table: np.ndarray, d: int):
        v = len(table) // 2
        self.table = table
        self.P, self.Q = table[:v, :d], table[v:, :d]
        self.bias1, self.bias2 = ((table[:v, d], table[v:, d])
                                  if table.shape[1] > d else (None, None))


def _init_factors(v: int, d: int, rng: np.random.Generator, biases: bool) -> FactorModel:
    check_sizes(dim=d)
    table = np.zeros((2 * v, d + biases))
    table[:, :d] = rng.uniform(-0.5 / d, 0.5 / d, size=(2 * v, d))
    return FactorModel(table, d)


def train_glove(matrix: CooccurrenceMatrix, d: int, epochs: int,
                lr: float = 0.05, seed: int = 0):
    """Minimize sum f(x_ij) (p_i.q_j + b_i + b_j - log x_ij)^2, f being
    `glove_weight`, by AdaGrad over shuffled nonzero cells. Returns
    (model, final objective)."""
    if len(matrix) == 0:
        raise DataError("empty co-occurrence matrix")
    rows, cols, vals = matrix.nonzero_arrays()
    weights = glove_weight(vals)
    rng = np.random.default_rng(seed)
    model = _init_factors(len(matrix.vocab), d, rng, biases=True)
    return model, _fit_cells(model, rows, cols, np.log(vals), weights, epochs,
                             lr, rng)


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
    return model, _fit_cells(model, rows, cols, targets, np.ones(len(vals)),
                             epochs, lr, rng)


def _fit_cells(model: FactorModel, rows, cols, targets, weights, epochs: int,
               lr: float, rng: np.random.Generator) -> float:
    """AdaGrad descent on sum_n w_n (fit(i_n, j_n) - t_n)^2, one cell at a
    time in a fresh shuffled order per epoch. Returns the final objective;
    each epoch's record holds its running objective, every cell's cost
    taken just before its step, per cell.

    Each order is scheduled by dependency level (`_levels`): the cells of a
    level read and write disjoint rows of P, Q and the biases, and every
    row meets its cells in shuffled order, so one gather/compute/scatter
    per level does what the cell-by-cell loop does, up to the rounding of
    the dot products. The steps move rows of the model's one table, so a
    level moves all its rows at once. A level whose new rows are not all
    finite raises NumericError before they are written.
    """
    v, d = model.P.shape

    def levels(epoch):
        order = rng.permutation(len(rows))
        level = _levels(rows[order], cols[order] + v, 2 * v)
        order = order[np.argsort(level, kind="stable")]
        i, j = rows[order], cols[order] + v
        t, w2 = targets[order], 2.0 * weights[order]
        bounds = np.cumsum(np.bincount(level)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield (*_fit_run(model.table, np.concatenate((i[lo:hi], j[lo:hi])),
                             t[lo:hi], w2[lo:hi], d), hi - lo)

    run_epochs(epochs, lambda epoch: (len(rows), [levels(epoch)]),
               {"table": model.table}, {"table": lr}, {})
    return _glove_objective(model, rows, cols, targets, weights)


def _levels(i: np.ndarray, j: np.ndarray, size: int) -> np.ndarray:
    """Dependency level of each cell of the sequence of (i, j) table rows:
    1 + the highest level of the earlier cells that share its i or its j.

    No two cells of a level share a row, and a row's cells have rising
    levels in sequence order."""
    top = [0] * size  # highest level so far that touches each table row
    level = []
    for a, b in zip(i.tolist(), j.tolist()):
        x, y = top[a], top[b]
        top[a] = top[b] = x = (x if x > y else y) + 1
        level.append(x)
    return np.array(level, dtype=np.int64)


def _fit_run(table, ids, targets, w2, d: int):
    """Weighted squared error of n cells with distinct rows, and its
    gradient as `{"table": DistinctRows(ids, rows)}`: ids[:n] are their P
    rows and ids[n:] their Q rows in `table`, whose column d, if present,
    holds the biases. `w2` is twice the cell weights."""
    n = len(targets)
    old = table[ids]
    p, q = old[:n], old[n:]
    fit = np.einsum("nd,nd->n", p[:, :d], q[:, :d])
    biased = table.shape[1] > d
    if biased:
        fit = fit + p[:, d] + q[:, d]
    res = fit - targets
    err = w2 * res  # d loss / d fit
    # p_i's gradient is err * q_j, q_j's is err * p_i and a bias's is err
    g = old.reshape(2, n, -1)[::-1] * err[:, None]
    if biased:
        g[:, :, d] = err
    return float(0.5 * err @ res), {"table": DistinctRows(ids, g.reshape(2 * n, -1))}


def _glove_objective(model, rows, cols, targets, weights) -> float:
    # a block of cells at a time, within the analogy blocks' budget of scores
    step = _block_rows(model.P.shape[1])
    fit = np.concatenate([np.einsum("nd,nd->n", model.P[rows[lo:lo + step]],
                                    model.Q[cols[lo:lo + step]])
                          for lo in range(0, len(rows), step)])
    if model.bias1 is not None:
        fit = fit + model.bias1[rows] + model.bias2[cols]
    return float((weights * (fit - targets) ** 2).sum())


def skipgram_equivalence_report(matrix: CooccurrenceMatrix, model,
                                source="model") -> dict:
    """KL(empirical || model) per context column for a full-softmax skipgram.

    The model conditional of column j is softmax_i(e'(v_i) . e(v_j)) over
    the matrix vocabulary, whose tokens pick the model's rows (a token the
    model lacks is a DataError naming `source`); the empirical one is
    x_ij / sum_k x_kj. The KL is summed in log space over the nonzero cells,
    and log Z_j is taken a block of columns at a time, so no |V| x |V| array
    is formed. Columns with no mass are skipped and reported.
    """
    try:
        ids = [model.vocab.token_to_id[t] for t in matrix.vocab.tokens]
    except KeyError as exc:
        raise DataError(f"{source}: no row for the matrix token "
                        f"{exc.args[0]!r}") from None
    e, e_prime = model.e[ids], model.e_prime[ids]
    rows, cols, vals = matrix.nonzero_arrays()
    log_p = np.empty(len(vals))  # log p_ij of each cell
    order = np.argsort(cols, kind="stable")
    step = _block_rows(len(ids))
    starts = range(0, len(ids), step)
    bounds = np.searchsorted(cols[order], [*starts, len(ids)]).tolist()
    for lo, a, b in zip(starts, bounds, bounds[1:]):
        cells = order[a:b]  # those of columns lo..lo + step - 1
        block = log_softmax(e[lo:lo + step] @ e_prime.T)
        log_p[cells] = block[cols[cells] - lo, rows[cells]]
    col_sums = matrix.column_sums()
    emp = vals / col_sums[cols]
    kls = np.bincount(cols, emp * (np.log(emp) - log_p),
                      minlength=len(ids))[col_sums > 0]
    if len(kls) == 0:
        raise DataError("no nonzero columns to compare")
    return {
        "mean_kl": float(np.mean(kls)),
        "max_kl": float(np.max(kls)),
        "columns": len(kls),
        "skipped_columns": np.flatnonzero(col_sums <= 0).tolist(),
    }
