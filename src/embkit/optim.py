"""Parameter storage, activations, SGD/AdaGrad steps, noise sampling,
and a finite-difference gradient checker.

Update steps follow the ascent convention (theta += lr * grad of the
objective being maximized); callers training a loss pass the negated
gradient.
"""

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


def _check_grad(grad: np.ndarray) -> None:
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient")


def check_finite(x, what: str):
    """Pass `x` through, or stop a diverging run before it is written."""
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite {what}; lower the learning rate")
    return x


def sgd_step(param: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """theta += lr * grad, in place on a parameter array or view."""
    grad = np.asarray(grad, dtype=np.float64)
    _check_grad(grad)
    param += lr * grad


def adagrad_step(param: np.ndarray, grad: np.ndarray, accum: np.ndarray,
                 lr: float, eps: float = ADAGRAD_EPS) -> None:
    """accum += grad**2; theta += lr * grad / (sqrt(accum) + eps), in place."""
    grad = np.asarray(grad, dtype=np.float64)
    _check_grad(grad)
    accum += grad * grad
    param += lr * grad / (np.sqrt(accum) + eps)


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

    def sample(self, k: int, exclude: int, rng: np.random.Generator) -> np.ndarray:
        """k draws from the noise distribution, redrawing any hit on `exclude`."""
        out = self._raw(k, rng)
        while True:
            bad = out == exclude
            n_bad = int(bad.sum())
            if n_bad == 0:
                return out
            out[bad] = self._raw(n_bad, rng)

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


def negative_sample(sampler: NoiseSampler, k: int, exclude: int,
                    rng: np.random.Generator) -> np.ndarray:
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return sampler.sample(k, exclude, rng)


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
