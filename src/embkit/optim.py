"""Parameter storage, activations, SGD/AdaGrad steps, noise sampling,
and a finite-difference gradient checker.

Update steps follow the ascent convention (theta += lr * grad of the
objective being maximized); callers training a loss pass the negated
gradient. `step_rows` updates the rows a batch touched, `step_dense` a
whole array; with `accum=None` either is plain SGD, otherwise AdaGrad.
Both write nothing unless every new value is finite.
"""

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NumericError

ADAGRAD_EPS = 1e-8


class Param:
    """A dense float64 parameter with a lazily allocated AdaGrad accumulator."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.accum: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.value.shape

    def ensure_accum(self) -> np.ndarray:
        if self.accum is None:
            self.accum = np.zeros_like(self.value)
        return self.accum

    def copy(self) -> "Param":
        p = Param(self.value.copy())
        if self.accum is not None:
            p.accum = self.accum.copy()
        return p


def softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sigmoid(x):
    # Branch on sign to avoid overflow in exp.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def check_finite(x, what: str):
    """Pass `x` through, or stop a diverging run before it is written."""
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite {what}; lower the learning rate")
    return x


def _aggregate_rows(ids: np.ndarray, grads: np.ndarray):
    # one bincount over (row, column) cells: np.add.at is far too slow, and
    # sort + reduceat pays per segment when most rows occur once per batch
    uids, inv = np.unique(ids, return_inverse=True)
    d = math.prod(grads.shape[1:])  # 1 for a bias vector such as b2
    cells = (inv[:, None] * d + np.arange(d)).ravel()
    summed = np.bincount(cells, grads.ravel(), minlength=len(uids) * d)
    return uids, summed.reshape(len(uids), *grads.shape[1:])


def step_rows(value: np.ndarray, ids: np.ndarray, grads: np.ndarray, lr: float,
              accum: Optional[np.ndarray] = None) -> None:
    """Ascent step on the rows `ids` of `value`; `grads[k]` belongs to row
    `ids[k]` and repeated rows are summed first, so each row steps once."""
    uids, g = _aggregate_rows(ids, grads)
    g = g.astype(value.dtype, copy=False)
    if accum is not None:
        a = accum[uids]
        a += g * g
        accum[uids] = a
        np.sqrt(a, out=a)
        a += ADAGRAD_EPS
        g /= a
    g *= lr
    value[uids] = check_finite(value[uids] + g, "parameter update")


def step_dense(value: np.ndarray, grad: np.ndarray, lr: float,
               accum: Optional[np.ndarray] = None) -> None:
    """Ascent step on a whole array, through one temporary."""
    if accum is not None:
        t = np.multiply(grad, grad)
        accum += t
        np.sqrt(accum, out=t)
        t += ADAGRAD_EPS
        np.divide(grad, t, out=t)
        t *= lr
    else:
        t = np.multiply(grad, lr)
    t += value
    value[...] = check_finite(t, "parameter update")


class NoiseSampler:
    """Draws word ids with probability proportional to count**exponent."""

    def __init__(self, counts, exponent: float = 0.75):
        weights = np.asarray(counts, dtype=np.float64) ** exponent
        if len(weights) < 2:
            raise ValueError("noise sampling needs a vocabulary of size >= 2")
        total = weights.sum()
        if not np.isfinite(total) or total <= 0:
            raise NumericError("noise weights must sum to a finite positive value")
        self.exponent = exponent
        self.cumulative = np.cumsum(weights)
        self.cumulative[-1] = total  # guard against rounding drift

    def sample_matrix(self, shape, exclude: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Matrix of draws where row i must avoid exclude[i]."""
        out = self._raw(int(np.prod(shape)), rng).reshape(shape)
        excl = np.asarray(exclude).reshape(shape[0], 1)
        while True:
            bad = out == excl
            n_bad = int(bad.sum())
            if n_bad == 0:
                return out
            out[bad] = self._raw(n_bad, rng)

    def _raw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(k) * self.cumulative[-1]
        return np.searchsorted(self.cumulative, u, side="right")


def gradient_check(loss_and_grad: Callable[[np.ndarray], Tuple[float, np.ndarray]],
                   point: np.ndarray, eps: float = 1e-5) -> float:
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
