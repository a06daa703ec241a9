"""Activations, SGD/AdaGrad steps, the epoch loop, an ordered thread map
and noise sampling.

Every trainer runs its epochs through `run_epochs`; every batch carries
its loss, checked to be finite before the step. Every forward/backward
returns the gradient of its loss, and every step descends it,
theta -= lr * grad, through `step_distinct_rows` (the rows a batch
touched) or `step_dense` (a whole array), directly or by way of
`apply_grads` and `step_rows`; with `accum=None` either is plain SGD,
otherwise AdaGrad. Both refuse a rate that is not finite and > 0 with a
ValueError before they write anything, and write nothing unless every new
value is finite.
"""

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from .errors import NumericError

ADAGRAD_EPS = 1e-8
OPTIMIZERS = ("sgd", "adagrad")

log = logging.getLogger("embkit")


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


def softmax_cross_entropy(logits: np.ndarray, targets):
    """Per-row loss -log softmax(logits)[target] of (n, k) logits and the
    target of each row, and its gradient d loss / d logits, softmax minus
    one-hot: the one backward of every softmax output layer."""
    lsm = log_softmax(logits)
    rows = np.arange(len(lsm))
    grad = np.exp(lsm)
    grad[rows, targets] -= 1.0
    return -lsm[rows, targets], grad


def sigmoid(x):
    # exp(-|x|) never overflows; each sign takes its own stable branch
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def log_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    tail = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, -tail, x - tail)


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


def check_rate(lr) -> None:
    if not 0.0 < lr < math.inf:  # NaN too
        raise ValueError("learning rate must be finite and > 0")


def check_optimizer(name: str) -> None:
    if name not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {name!r}")


def step_rows(value: np.ndarray, ids: np.ndarray, grads: np.ndarray, lr: float,
              accum: Optional[np.ndarray] = None) -> None:
    """Descent step on the rows `ids` of `value`; `grads[k]` belongs to row
    `ids[k]` and repeated rows are summed first, so each row steps once."""
    uids, g = _aggregate_rows(ids, grads)
    step_distinct_rows(value, uids, g.astype(value.dtype, copy=False), lr, accum)


def step_distinct_rows(value: np.ndarray, uids: np.ndarray, g: np.ndarray,
                       lr: float, accum: Optional[np.ndarray] = None) -> None:
    """Descent step on the distinct rows `uids`; `g` is overwritten."""
    check_rate(lr)
    if accum is not None:
        a = accum[uids]
        a += g * g
        accum[uids] = a
        np.sqrt(a, out=a)
        a += ADAGRAD_EPS
        g /= a
    g *= lr
    value[uids] = check_finite(value[uids] - g, "parameter update")


def step_dense(value: np.ndarray, grad: np.ndarray, lr: float,
               accum: Optional[np.ndarray] = None) -> None:
    """Descent step on a whole array, through one temporary."""
    check_rate(lr)
    if accum is not None:
        t = np.multiply(grad, grad)
        accum += t
        np.sqrt(accum, out=t)
        t += ADAGRAD_EPS
        np.divide(grad, t, out=t)
        t *= lr
    else:
        t = np.multiply(grad, lr)
    np.subtract(value, t, out=t)
    value[...] = check_finite(t, "parameter update")


def apply_grads(params: Dict[str, np.ndarray], grads: dict,
                rates: Dict[str, float],
                accum: Optional[Dict[str, np.ndarray]] = None) -> None:
    """One step per entry of `grads` at its parameter's rate: an
    `(ids, rows)` pair through `step_rows`, an array through `step_dense`.
    `accum=None` is SGD; otherwise AdaGrad, with each accumulator created
    in `accum` on first use."""
    for name, g in grads.items():
        value = params[name]
        a = None
        if accum is not None:
            a = accum.get(name)
            if a is None:
                a = accum[name] = np.zeros_like(value)
        if isinstance(g, tuple):
            step_rows(value, *g, rates[name], a)
        else:
            step_dense(value, g, rates[name], a)


@dataclass
class EpochRecord:
    """One epoch of any trainer. `mean_loss` is per unit; `tokens_per_sec`
    counts the tokens, examples or cells the epoch read; `seconds` leaves
    out `end_epoch`."""
    epoch: int
    mean_loss: float
    n_units: int
    seconds: float
    tokens_per_sec: float
    dev_accuracy: Optional[float] = None

    def log_line(self) -> str:
        dev = "" if self.dev_accuracy is None else f" dev_accuracy={self.dev_accuracy:.4f}"
        return (f"epoch={self.epoch} mean_loss={self.mean_loss:.6f} units={self.n_units} "
                f"tokens_per_sec={self.tokens_per_sec:.0f} seconds={self.seconds:.3f}{dev}")


def run_epochs(epochs: int, epoch_shards, step, end_epoch=None) -> List[EpochRecord]:
    """Run `epochs` epochs and return their records, each logged as its
    `log_line` to the `embkit` logger. `epoch_shards(epoch)` gives the
    epoch's input token count and shards: lazy iterables of (loss, grads,
    units) batches computed from the current parameters. Each loss is
    checked, then `step(grads)`. Several shards run a thread each and step
    the shared parameters without locking. `end_epoch(record)` may set
    `dev_accuracy` before the record is logged. Numpy does not warn of
    overflow here; the finite checks raise NumericError instead."""
    if epochs < 0:
        raise ValueError("--epochs must be >= 0")
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            t0 = time.perf_counter()
            n_tokens, shards = epoch_shards(epoch)
            totals = map_threads(partial(_run_shard, step=step), shards, len(shards))
            seconds = time.perf_counter() - t0
            units = sum(n for _, n in totals)
            records.append(EpochRecord(
                epoch, sum(loss for loss, _ in totals) / max(units, 1), units,
                seconds, n_tokens / max(seconds, 1e-9)))
            if end_epoch is not None:
                end_epoch(records[-1])
            log.info(records[-1].log_line())
    return records


def _run_shard(batches, step):
    """Step through one shard; return its loss sum and its units."""
    loss_sum, units = 0.0, 0
    for loss, grads, n in batches:
        loss_sum += check_finite(loss, "training loss")
        step(grads)
        units += n
        del grads  # so one batch's gradients, not two, are alive at a time
    return loss_sum, units


def map_threads(fn, items, threads: int) -> list:
    """`[fn(item) for item in items]` on up to `threads` threads, inline for
    one. Each call runs under the caller's numpy error state, which pool
    threads would not inherit. Results come back in input order; if calls
    raise, the exception of the first such item in input order is raised."""
    if threads <= 1:
        return [fn(item) for item in items]
    errors = np.geterr()

    def call(item):
        with np.errstate(**errors):
            return fn(item)

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(call, items))


def blas_idle_threads() -> int:
    """How many BLAS calls can run at once without sharing a core: the
    usable CPUs over the BLAS threads per call, from `OPENBLAS_NUM_THREADS`
    or else `OMP_NUM_THREADS`. Unset, BLAS is taken to use every CPU, so
    the answer is 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no sched_getaffinity
        cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


class NoiseSampler:
    """Draws word ids with probability proportional to count**exponent."""

    def __init__(self, counts, exponent: float = 0.75):
        weights = np.asarray(counts, dtype=np.float64) ** exponent
        total = weights.sum()
        if not np.isfinite(total) or total <= 0:
            raise NumericError("noise weights must sum to a finite positive value")
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
