"""Evaluation battery over embedding tables: word similarity, synonym
choice, analogy, nearest neighbors, average-vector document classification
and the Performance Gain Ratio.

OOV policy, per task: similarity pairs with an OOV word are skipped and
reported via coverage; OOV choice options score -inf and an OOV query is
wrong; analogy questions with any OOV word are skipped. Ties always break
toward the lowest token id.
"""

import math
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DataError
from .io_formats import EmbeddingTable, open_text
from .optim import log_softmax, step_dense


def cosine(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DataError("cosine of a zero vector is undefined")
    return float(u @ v / (nu * nv))


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
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                parts = line.split()
            if len(parts) < 3:
                raise DataError(f"{path}:{lineno}: expected 'a<TAB>b<TAB>score'")
            pairs.append(SimilarityPair(parts[0], parts[1], float(parts[2])))
    return pairs


def load_choice(path) -> List[ChoiceQuestion]:
    questions = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise DataError(
                    f"{path}:{lineno}: expected 'query<TAB>opt1..opt4<TAB>answer_index'")
            questions.append(ChoiceQuestion(parts[0], tuple(parts[1:5]), int(parts[5])))
    return questions


def load_analogies(path) -> List[AnalogyQuestion]:
    """Question lines "a b c expected" grouped under ": category" headers."""
    questions = []
    category = ""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(":"):
                category = line[1:].strip()
                continue
            parts = line.split()
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 words per question")
            questions.append(AnalogyQuestion(*parts, category=category))
    return questions


# --- tasks ------------------------------------------------------------------

def eval_similarity(table: EmbeddingTable, pairs: Sequence[SimilarityPair]) -> dict:
    human, model = [], []
    for pair in pairs:
        if pair.word_a in table and pair.word_b in table:
            human.append(pair.score)
            model.append(cosine(table.vector(pair.word_a), table.vector(pair.word_b)))
    if len(human) < 2:
        raise DataError(
            f"need at least 2 covered pairs, got {len(human)} of {len(pairs)}")
    return {
        "pearson": pearson(human, model),
        "covered_pairs": len(human),
        "total_pairs": len(pairs),
    }


def eval_choice(table: EmbeddingTable, questions: Sequence[ChoiceQuestion]) -> float:
    if not questions:
        raise DataError("no choice questions")
    correct = 0
    for q in questions:
        if q.query not in table:
            continue  # counts as wrong
        scores = []
        for opt in q.options:
            if opt in table:
                scores.append(cosine(table.vector(q.query), table.vector(opt)))
            else:
                scores.append(-np.inf)
        best = int(np.argmax(scores))  # first max wins the tie
        if best == q.answer_index:
            correct += 1
    return correct / len(questions)


def eval_analogy(table: EmbeddingTable, questions: Sequence[AnalogyQuestion]) -> dict:
    """3CosAdd: argmax cosine(v, e(b) - e(a) + e(c)) excluding {a, b, c}."""
    unit = table.unit_vectors()
    answered = 0
    correct = 0
    per_category: dict = {}
    skipped = 0
    for q in questions:
        ids = [table.token_to_id.get(w) for w in (q.a, q.b, q.c, q.expected)]
        if any(i is None for i in ids):
            skipped += 1
            continue
        ia, ib, ic, expected = ids
        query = table.vectors[ib] - table.vectors[ia] + table.vectors[ic]
        norm = np.linalg.norm(query)
        if norm == 0.0:
            skipped += 1
            continue
        sims = unit @ (query / norm)
        sims[[ia, ib, ic]] = -np.inf
        guess = int(np.argmax(sims))
        answered += 1
        hit = guess == expected
        correct += int(hit)
        cat = per_category.setdefault(q.category, [0, 0])
        cat[0] += int(hit)
        cat[1] += 1
    return {
        "accuracy": correct / answered if answered else 0.0,
        "answered": answered,
        "skipped": skipped,
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
    sims = table.unit_vectors() @ (query / norm)
    sims[wid] = -np.inf
    order = np.lexsort((np.arange(len(sims)), -sims))  # cosine desc, id asc
    return [(table.tokens[i], float(sims[i])) for i in order[:k]]


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

    def logits(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights.T + self.bias

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self.logits(np.asarray(x))))

    def accuracy(self, xs: np.ndarray, ys: Sequence[int]) -> float:
        pred = np.argmax(np.asarray(xs) @ self.weights.T + self.bias, axis=1)
        return float(np.mean(pred == np.asarray(ys)))


def logistic_loss_grads(weights, bias, x, y, l2):
    """Softmax log-loss with L2 on the weights only; returns loss and grads."""
    logits = weights @ x + bias
    lsm = log_softmax(logits)
    loss = -lsm[y] + 0.5 * l2 * float((weights * weights).sum())
    p = np.exp(lsm)
    dlogits = p.copy()
    dlogits[y] -= 1.0
    dW = np.outer(dlogits, x) + l2 * weights
    db = dlogits
    return float(loss), dW, db


def train_logistic_classifier(features, labels, l2: float = 0.0,
                              epochs: int = 50, lr: float = 0.1,
                              seed: int = 0) -> LogisticClassifier:
    """Plain SGD on regularized log-loss, deterministic under the seed."""
    xs = np.asarray(features, dtype=np.float64)
    ys = np.asarray(labels, dtype=np.int64)
    classes = int(ys.max()) + 1
    if len(np.unique(ys)) < 2:
        raise DataError("need at least two classes to train a classifier")
    rng = np.random.default_rng(seed)
    W = np.zeros((classes, xs.shape[1]))
    b = np.zeros(classes)
    for _ in range(epochs):
        for n in rng.permutation(len(xs)):
            _, dW, db = logistic_loss_grads(W, b, xs[n], int(ys[n]), l2)
            step_dense(W, -dW, lr)
            step_dense(b, -db, lr)
    return LogisticClassifier(W, b)


def classify(classifier: LogisticClassifier, vector) -> int:
    return classifier.predict(vector)


# --- performance gain ratio ---------------------------------------------------

class PgrInput(NamedTuple):
    p_a: float
    p_rand: float
    p_best: float


def pgr(inp: PgrInput) -> float:
    """(p_a - p_rand) / (p_best - p_rand); may be negative."""
    denom = inp.p_best - inp.p_rand
    if denom == 0.0:
        raise DataError("PGR undefined when the best equals the random baseline")
    return (inp.p_a - inp.p_rand) / denom


def pgr_percent(value: float) -> int:
    """Integer percent, rounding half away from zero."""
    scaled = value * 100.0
    return int(math.floor(scaled + 0.5)) if scaled >= 0 else int(math.ceil(scaled - 0.5))
