"""Evaluation battery over embedding tables: word similarity, synonym
choice, analogy, nearest neighbors, average-vector document classification
and the Performance Gain Ratio.

Similarity, choice, analogy and neighbors score by cosine, the dot product
of unit rows (`EmbeddingTable.unit_vectors`): a zero row has cosine 0 with
every row. OOV policy, per task: similarity pairs with an OOV word are
skipped and reported via coverage; OOV choice options score -inf, and a
choice question whose query is OOV or zero, or whose options are all OOV,
is wrong; analogy questions with any OOV word or a zero query are skipped;
an OOV or zero nearest-neighbor query is a DataError. Ties break toward the
lowest index; in analogy, among equal float64 block scores, and identical
rows may not score equal.
"""

import math
from itertools import chain, repeat
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DataError
from .io_formats import EmbeddingTable, line_error, numbered_lines
from .optim import (blas_idle_threads, map_threads, run_epochs,
                    softmax_cross_entropy)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise DataError("pearson needs two equal-length sequences of >= 2 values")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise DataError("pearson undefined for zero-variance input")
    return float(xc @ yc / (sx * sy))


# --- datasets ---------------------------------------------------------------

class SimilarityPair(NamedTuple):
    word_a: str
    word_b: str
    score: float


class ChoiceQuestion(NamedTuple):
    query: str
    options: Tuple[str, str, str, str]
    answer_index: int


class AnalogyQuestion(NamedTuple):
    a: str
    b: str
    c: str
    expected: str
    category: str = ""


def load_similarity(path) -> List[SimilarityPair]:
    pairs = []
    for lineno, line in numbered_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            parts = line.split()
        if len(parts) < 3:
            raise line_error(path, lineno, "expected 'a<TAB>b<TAB>score'")
        try:
            score = float(parts[2])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise line_error(path, lineno, f"score {parts[2]!r} is not "
                             f"a finite number")
        pairs.append(SimilarityPair(parts[0], parts[1], score))
    return pairs


def load_choice(path) -> List[ChoiceQuestion]:
    questions = []
    for lineno, line in numbered_lines(path):
        parts = line.split("\t")
        if len(parts) != 6:
            raise line_error(path, lineno, "expected "
                             "'query<TAB>opt1..opt4<TAB>answer_index'")
        if parts[5] not in ("0", "1", "2", "3"):
            raise line_error(path, lineno, f"answer index {parts[5]!r} "
                             f"is not one of 0..3")
        questions.append(ChoiceQuestion(parts[0], tuple(parts[1:5]), int(parts[5])))
    return questions


def load_analogies(path) -> List[AnalogyQuestion]:
    """Question lines "a b c expected" grouped under ": category" headers."""
    questions = []
    category = ""
    for lineno, line in numbered_lines(path):
        if line.startswith(":"):
            category = line[1:].strip()
            continue
        parts = line.split()
        if len(parts) != 4:
            raise line_error(path, lineno, "expected 4 words per question")
        parts.append(category)
        questions.append(AnalogyQuestion._make(parts))
    return questions


# --- tasks ------------------------------------------------------------------

def _row_ids(table: EmbeddingTable, words, shape) -> np.ndarray:
    """The row id in `table` of each of `words`, -1 for an OOV word, as an
    int64 array of `shape`: the one word lookup of every task."""
    return np.fromiter(map(table.token_to_id.get, words, repeat(-1)),
                       dtype=np.int64, count=math.prod(shape)).reshape(shape)


def eval_similarity(table: EmbeddingTable, pairs: Sequence[SimilarityPair]) -> dict:
    ids = _row_ids(table, chain.from_iterable(p[:2] for p in pairs),
                   (len(pairs), 2))
    covered = (ids >= 0).all(axis=1)
    if covered.sum() < 2:
        raise DataError(
            f"need at least 2 covered pairs, got {covered.sum()} of {len(pairs)}")
    unit = table.unit_vectors()
    a, b = ids[covered].T
    human = np.array([p.score for p in pairs])[covered]
    return {
        "pearson": pearson(human, np.einsum("nd,nd->n", unit[a], unit[b])),
        "covered_pairs": len(human),
        "total_pairs": len(pairs),
    }


def eval_choice(table: EmbeddingTable, questions: Sequence[ChoiceQuestion]) -> float:
    if not questions:
        raise DataError("no choice questions")
    words = chain.from_iterable((q.query, *q.options) for q in questions)
    ids = _row_ids(table, words, (len(questions), 5))
    unit = table.unit_vectors()
    query, options = unit[ids[:, 0]], ids[:, 1:]
    scores = np.einsum("nd,nkd->nk", query, unit[options])
    scores[options < 0] = -np.inf
    answerable = (ids[:, 0] >= 0) & query.any(axis=1) & (options >= 0).any(axis=1)
    best = np.argmax(scores, axis=1)  # first max wins the tie
    answers = np.array([q.answer_index for q in questions])
    return int((answerable & (best == answers)).sum()) / len(questions)


# Query rows are scored a block at a time, `_block_rows` rows of at most
# 2**20 scores: an efficient matrix product, and memory does not grow with
# the number of questions.
_BLOCK_SCORES = 2 ** 20


def _block_rows(n_vocab: int) -> int:
    return max(1, _BLOCK_SCORES // n_vocab)


def _cosine_blocks(unit: np.ndarray, unit_queries: np.ndarray, out: np.ndarray,
                   blocks):
    """Yield (rows, scores) for each block number in `blocks`, a block being
    `_block_rows` unit-norm query rows: scores[i, j] is the cosine of query
    rows.start + i with row j of the unit-norm table `unit` (a zero row
    scores 0). One matrix product per block, in the dtype of its inputs,
    written into the leading rows of `out`, which has a block's rows and is
    overwritten by the next."""
    step = _block_rows(len(unit))
    for b in blocks:
        rows = slice(b * step, (b + 1) * step)
        q = unit_queries[rows]
        yield rows, np.matmul(q, unit.T, out=out[:len(q)])


# The float32 screen, and why its guesses are those of the float64 blocks.
#
# Let u and q be unit-norm float64 rows of width d, S = sum_i |u_i q_i|
# <= |u| |q| (1 up to float64 rounding of the norms), and
# gamma_d(r) = d r / (1 - d r) for a unit roundoff r (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., sec. 3.1). The float64 block
# score s64 is within gamma_d(2**-53) S of the exact u . q, in any
# summation order. The float32 score s32 is the product of fl32(u) and
# fl32(q): rounding the inputs moves the exact product by at most
# (2 * 2**-24 + 2**-48) S, and their float32 sum, in any order and with or
# without FMA, adds at most gamma_d(2**-24) (1 + 2**-24)**2 S. Underflow
# adds at most 2**-150 per input rounding and per product. For
# d <= 2**17, 1 / (1 - d 2**-24) < 1.008, so in all
#     |s32 - s64| <= eps = 1.01 (d + 2) 2**-24 + d 2**-125.
# Wider tables take eps = 2, more than any two scores can differ, so that
# every row is settled in float64.
#
# Each row, with its a, b and c masked to -inf, is decided in three steps:
# 1. Screen: top is the float32 argmax, best its score and second the
#    largest other. If best > second + 2 eps, then for every other j,
#    s64[top] >= best - eps > second + eps >= s64[j]: top is the unique
#    float64 maximum.
# 2. Candidates: otherwise the float64 argmax j* has
#    s32[j*] >= s64[j*] - eps >= s64[top] - eps >= best - 2 eps, so it lies
#    in C = {j : s32[j] >= best - 2 eps}. C is scored in float64 as
#    unit[C] @ q, whose scores are within 2 gamma_d(2**-53) S
#    < 2 (d + 2) 2**-53 of the block's. A winner that leads every other
#    candidate by more than twice that is the block's argmax.
# 3. Block: otherwise (exact ties, twin rows, every entry masked) the
#    row's own float64 block is computed by `_cosine_blocks`, the same
#    rows in the same product, and its argmax, lowest id first, is taken.
# Every threshold is compared in float64.

def _candidate_winner(unit, query, cand, masked, tol) -> int:
    """Step 2: the id in `cand` whose float64 score leads every other
    candidate's by more than `tol`, with the ids in `masked` excluded; or
    -1 if none does."""
    if not len(cand):
        return -1
    s = unit[cand] @ query
    s[np.isin(cand, masked)] = -np.inf
    w = np.argmax(s)
    lead = s[w]
    s[w] = -np.inf
    return int(cand[w]) if lead > s.max() + tol else -1


def _analogy_guesses(unit: np.ndarray, unit_queries: np.ndarray,
                     masked: np.ndarray) -> np.ndarray:
    """For each unit-norm query row i, the argmax over table rows j of the
    float64 block score unit[j] . unit_queries[i], with the ids masked[i]
    excluded and ties going to the lowest id. Blocks are screened in float32
    on the cores BLAS leaves idle, thread k taking blocks k, k + T, ...; the
    rows the screen cannot decide are settled in float64 on this thread."""
    n, d = unit_queries.shape
    eps = 1.01 * (d + 2) * 2.0 ** -24 + d * 2.0 ** -125 if d <= 2 ** 17 else 2.0
    step = _block_rows(len(unit))
    n_blocks = -(-n // step)
    threads = min(blas_idle_threads(), n_blocks)
    # every buffer is allocated on this thread: large arrays allocated on
    # pool threads stay resident in glibc's per-thread arenas after they
    # are freed
    unit32 = unit.astype(np.float32)
    queries32 = unit_queries.astype(np.float32)
    bufs = [np.empty((min(step, n), len(unit)), dtype=np.float32)
            for _ in range(threads)]
    guesses = np.empty(n, dtype=np.int64)
    unsure = [[] for _ in range(threads)]  # (row, C) per thread

    def screen(k):
        for rows, scores in _cosine_blocks(unit32, queries32, bufs[k],
                                           range(k, n_blocks, threads)):
            r = np.arange(len(scores))
            scores[r[:, None], masked[rows]] = -np.inf
            top = np.argmax(scores, axis=1)
            best = scores[r, top].astype(np.float64)
            scores[r, top] = -np.inf
            second = scores.max(axis=1).astype(np.float64)
            guesses[rows] = top
            for i in np.flatnonzero(~(best > second + 2 * eps)):
                scores[i, top[i]] = best[i]
                unsure[k].append((rows.start + i,
                                  np.flatnonzero(scores[i] >= best[i] - 2 * eps)))

    map_threads(screen, range(threads), threads)
    tol = 4 * (d + 2) * 2.0 ** -53
    left = []
    for row, cand in chain.from_iterable(unsure):
        guesses[row] = _candidate_winner(unit, unit_queries[row], cand,
                                         masked[row], tol)
        if guesses[row] < 0:
            left.append(row)
    if left:
        left = np.array(left)
        buf = np.empty((min(step, n), len(unit)))
        for rows, scores in _cosine_blocks(unit, unit_queries, buf,
                                           np.unique(left // step)):
            for row in left[(left >= rows.start) & (left < rows.stop)]:
                s = scores[row - rows.start]
                s[masked[row]] = -np.inf
                guesses[row] = np.argmax(s)  # first max: lowest id
    return guesses


def eval_analogy(table: EmbeddingTable, questions: Sequence[AnalogyQuestion]) -> dict:
    """3CosAdd: argmax cosine(v, e(b) - e(a) + e(c)) excluding {a, b, c}.

    Questions with an OOV word or a zero query vector are skipped; the
    others are answered by `_analogy_guesses`, and a tie goes to the lowest
    id. Every guess is the argmax of the float64 block scores, whatever the
    thread count."""
    ids = _row_ids(table, chain.from_iterable(q[:4] for q in questions),
                   (len(questions), 4))
    keep = (ids >= 0).all(axis=1)  # no OOV word
    v = table.vectors
    queries = v[ids[keep, 1]] - v[ids[keep, 0]] + v[ids[keep, 2]]
    norms = np.linalg.norm(queries, axis=1)
    nonzero = norms != 0.0
    keep[keep] = nonzero
    ids = ids[keep]
    unit_queries = queries[nonzero] / norms[nonzero, None]
    guesses = _analogy_guesses(table.unit_vectors(), unit_queries, ids[:, :3])
    categories = [q.category for q, k in zip(questions, keep.tolist()) if k]
    hits = (guesses == ids[:, 3]).tolist()
    per_category: dict = {}
    for cat, hit in zip(categories, hits):
        counts = per_category.setdefault(cat, [0, 0])
        counts[0] += hit
        counts[1] += 1
    answered = len(hits)
    return {
        "accuracy": sum(hits) / answered if answered else 0.0,
        "answered": answered,
        "skipped": len(questions) - answered,
        "per_category": {k: c / n for k, (c, n) in per_category.items()},
    }


def nearest_neighbors(table: EmbeddingTable, word: str, k: int) -> List[Tuple[str, float]]:
    if word not in table:
        raise DataError(f"word not in vocabulary: {word!r}")
    if k == 0:
        return []
    wid = table.token_to_id[word]
    query = table.vectors[wid]
    norm = np.linalg.norm(query)
    if norm == 0.0:
        raise DataError("query vector is zero")
    sims = ((query / norm)[np.newaxis] @ table.unit_vectors().T)[0]
    order = np.lexsort((np.arange(len(sims)), -sims))  # cosine desc, id asc
    order = order[order != wid][:k]  # at most the other rows
    return [(table.tokens[i], float(sims[i])) for i in order]


def avg_document_vector(table: EmbeddingTable, tokens: Sequence[str]) -> np.ndarray:
    """Frequency-weighted mean of in-vocabulary word vectors."""
    ids = [table.token_to_id[t] for t in tokens if t in table]
    if not ids:
        raise DataError("document has no in-vocabulary token")
    return table.vectors[np.asarray(ids)].mean(axis=0)


# --- logistic regression on fixed features ----------------------------------

class LogisticClassifier:
    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = weights  # classes x dim
        self.bias = bias

    def accuracy(self, xs: np.ndarray, ys: Sequence[int]) -> float:
        pred = np.argmax(np.asarray(xs) @ self.weights.T + self.bias, axis=1)
        return float(np.mean(pred == np.asarray(ys)))


def logistic_loss_grads(weights, bias, x, y, l2):
    """Softmax log-loss with L2 on the weights only; returns the loss and
    the gradients of `W` and `b` by name."""
    (loss,), (dlogits,) = softmax_cross_entropy((weights @ x + bias)[None], [y])
    loss += 0.5 * l2 * float((weights * weights).sum())
    return float(loss), {"W": np.outer(dlogits, x) + l2 * weights, "b": dlogits}


def train_logistic_classifier(features, labels, l2: float = 0.0,
                              epochs: int = 50, lr: float = 0.1,
                              seed: int = 0) -> LogisticClassifier:
    """Plain SGD on regularized log-loss, deterministic under the seed."""
    if not 0.0 <= l2 < math.inf:  # NaN too
        raise ValueError("l2 must be finite and >= 0")
    xs = np.asarray(features, dtype=np.float64)
    ys = np.asarray(labels, dtype=np.int64)
    classes = int(ys.max()) + 1
    if len(np.unique(ys)) < 2:
        raise DataError("need at least two classes to train a classifier")
    rng = np.random.default_rng(seed)
    W = np.zeros((classes, xs.shape[1]))
    b = np.zeros(classes)

    def batches():
        for n in rng.permutation(len(xs)):
            yield (*logistic_loss_grads(W, b, xs[n], int(ys[n]), l2), 1)

    run_epochs(epochs, lambda epoch: (len(xs), [batches()]),
               {"W": W, "b": b}, {"W": lr, "b": lr})
    return LogisticClassifier(W, b)


# --- performance gain ratio ---------------------------------------------------

def pgr(p_a: float, p_rand: float, p_best: float) -> float:
    """(p_a - p_rand) / (p_best - p_rand); may be negative."""
    denom = p_best - p_rand
    if denom == 0.0:
        raise DataError("PGR undefined when the best equals the random baseline")
    return (p_a - p_rand) / denom


def pgr_percent(value: float) -> int:
    """Integer percent, rounding half away from zero."""
    scaled = value * 100.0
    return int(math.floor(scaled + 0.5)) if scaled >= 0 else int(math.ceil(scaled - 0.5))
