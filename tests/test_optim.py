import logging
import math
import os
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embkit import optim
from embkit.corpus import Vocabulary
from embkit.embeddings import EmbeddingModel, TrainConfig, train_epochs
from embkit.errors import NumericError
from embkit.matrixfact import (CooccurrenceMatrix, _glove_objective,
                               glove_weight, train_glove)
from embkit.optim import (DistinctRows, EpochRecord, NoiseSampler, apply_grads,
                          blas_idle_threads, log_sigmoid, log_softmax,
                          map_threads, run_epochs, sigmoid, softmax,
                          softmax_cross_entropy, step_dense, step_rows)
from conftest import gradient_check


def test_softmax_symmetry():
    assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]


def test_softmax_closed_form():
    out = softmax(np.array([math.log(1), math.log(3)]))
    assert out == pytest.approx([0.25, 0.75], abs=1e-12)


def test_softmax_large_inputs_stable_vs_mpmath():
    scores = np.array([1000.0, 1000.0])
    out = softmax(scores)
    with mpmath.workdps(50):
        exps = [mpmath.exp(s) for s in scores]
        total = exps[0] + exps[1]
        expected = [float(e / total) for e in exps]
    assert np.all(np.isfinite(out))
    assert out == pytest.approx(expected, abs=1e-15)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        out = softmax(rng.normal(0, 10, size=7))
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariant(scores, shift):
    a = softmax(np.array(scores))
    b = softmax(np.array(scores) + shift)
    assert a == pytest.approx(b, abs=1e-10)


def test_log_softmax_consistent():
    x = np.array([0.3, -1.2, 2.0])
    assert np.exp(log_softmax(x)) == pytest.approx(softmax(x), abs=1e-12)


def test_softmax_cross_entropy_is_log_loss_and_softmax_minus_onehot():
    logits = np.array([[0.3, -1.2, 2.0], [1000.0, 1000.0, -5.0]])
    loss, grad = softmax_cross_entropy(logits, np.array([2, 0]))
    p = softmax(logits)
    assert loss == pytest.approx(-np.log(p[[0, 1], [2, 0]]), rel=1e-12)
    assert grad == pytest.approx(p - np.eye(3)[[2, 0]], abs=1e-15)


def test_sgd_step_ascent():
    # the step descends: theta - lr * grad
    theta = np.array([1.0])
    step_dense(theta, np.array([2.0]), 0.1)
    assert theta[0] == pytest.approx(0.8)


def test_sgd_zero_gradient_identity():
    theta = np.array([3.0, -1.0])
    step_dense(theta, np.zeros(2), 0.5)
    assert theta.tolist() == [3.0, -1.0]


def test_sgd_nonfinite_gradient_raises():
    with pytest.raises(NumericError):
        step_dense(np.zeros(2), np.array([1.0, np.nan]), 0.1)


def test_sgd_converges_on_quadratic_bowl():
    # minimize (theta - 3)^2, gradient 2(theta - 3)
    theta = np.array([10.0])
    for _ in range(2000):
        step_dense(theta, 2.0 * (theta - 3.0), 0.05)
    assert abs(theta[0] - 3.0) < 1e-6


def test_adagrad_first_step_magnitude():
    for g in (0.5, -3.0, 10.0):
        theta = np.zeros(1)
        accum = np.zeros(1)
        step_dense(theta, np.array([g]), 0.1, accum)
        assert abs(theta[0]) == pytest.approx(0.1 * abs(g) / (abs(g) + 1e-8))


def test_adagrad_zero_gradient_no_change():
    theta = np.array([1.0])
    accum = np.array([4.0])
    step_dense(theta, np.zeros(1), 0.1, accum)
    assert theta[0] == 1.0 and accum[0] == 4.0


def test_adagrad_constant_gradient_decay():
    # after k identical gradients g the step magnitude is lr/sqrt(k) (eps->0)
    theta = np.zeros(1)
    accum = np.zeros(1)
    g = np.array([2.0])
    prev = 0.0
    for k in range(1, 50):
        before = theta[0]
        step_dense(theta, g, 0.1, accum)
        step = before - theta[0]
        assert step == pytest.approx(0.1 / math.sqrt(k), rel=1e-6)
        assert accum[0] == pytest.approx(k * 4.0)
        prev = step


def test_adagrad_accumulator_monotone():
    rng = np.random.default_rng(1)
    theta = np.zeros(5)
    accum = np.zeros(5)
    last = accum.copy()
    for _ in range(30):
        step_dense(theta, rng.normal(size=5), 0.1, accum)
        assert np.all(accum >= last)
        last = accum.copy()


def _two_params(rng):
    return {"M": rng.normal(size=(6, 3)), "v": rng.normal(size=4),
            "idle": rng.normal(size=2)}


def _two_grads(rng):
    ids = np.array([4, 1, 4, 0])  # row 4 twice
    return {"M": (ids, rng.normal(size=(4, 3))), "v": rng.normal(size=4)}


@pytest.mark.parametrize("adagrad", [False, True], ids=["sgd", "adagrad"])
def test_apply_grads_dispatches_pairs_and_arrays(adagrad):
    rng = np.random.default_rng(30)
    params, grads = _two_params(rng), _two_grads(rng)
    ref = {k: v.copy() for k, v in params.items()}
    accum = {} if adagrad else None
    ref_accum = {k: np.zeros_like(v) for k, v in params.items()}
    apply_grads(params, grads, {"M": 0.3, "v": 0.2}, accum)
    step_rows(ref["M"], *grads["M"], 0.3, ref_accum["M"] if adagrad else None)
    step_dense(ref["v"], grads["v"], 0.2, ref_accum["v"] if adagrad else None)
    for k in params:
        assert np.array_equal(params[k], ref[k]), k
    if adagrad:
        assert set(accum) == {"M", "v"}  # none for the parameter not stepped
        for k in accum:
            assert np.array_equal(accum[k], ref_accum[k]), k


def test_apply_grads_accumulators_created_once_and_reused():
    rng = np.random.default_rng(31)
    params, accum = _two_params(rng), {}
    apply_grads(params, _two_grads(rng), {"M": 0.1, "v": 0.1}, accum)
    first = dict(accum)
    assert first["M"][[2, 3, 5]].tolist() == [[0.0] * 3] * 3  # rows not touched
    apply_grads(params, _two_grads(rng), {"M": 0.1, "v": 0.1}, accum)
    assert all(accum[k] is first[k] for k in first)
    assert first["v"].min() > 0.0


def test_apply_grads_sgd_creates_no_accumulators(toy_corpus, toy_vocab):
    for optimizer, stepped in (("sgd", set()), ("adagrad", {"e", "e_prime"})):
        model = EmbeddingModel.create("skipgram", toy_vocab, 4, 5,
                                      rng=np.random.default_rng(0))
        train_epochs(model, toy_corpus,
                     TrainConfig(epochs=1, optimizer=optimizer, batch_size=64))
        assert set(model.accum) == stepped


@pytest.mark.parametrize("adagrad", [False, True], ids=["sgd", "adagrad"])
def test_distinct_rows_step_as_step_rows_without_aggregating(adagrad,
                                                             monkeypatch):
    rng = np.random.default_rng(34)
    value = rng.normal(size=(6, 3))
    ref, accum, ref_accum = value.copy(), {}, np.zeros_like(value)
    steps = [(np.array([4, 1, 0]), rng.normal(size=(3, 3))),
             (np.array([2, 4]), rng.normal(size=(2, 3)))]
    for ids, rows in steps:
        step_rows(ref, ids, rows.copy(), 0.3, ref_accum if adagrad else None)

    def no_aggregate(ids, grads):
        raise AssertionError("distinct rows were aggregated")

    monkeypatch.setattr(optim, "_aggregate_rows", no_aggregate)
    for ids, rows in steps:
        apply_grads({"M": value}, {"M": DistinctRows(ids, rows.copy())},
                    {"M": 0.3}, accum if adagrad else None)
    assert value.tobytes() == ref.tobytes()
    if adagrad:
        assert accum["M"].tobytes() == ref_accum.tobytes()


@pytest.mark.parametrize("rate", [0.0, -0.3, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("adagrad", [False, True], ids=["sgd", "adagrad"])
def test_steps_refuse_a_rate_not_finite_and_positive(adagrad, rate):
    rng = np.random.default_rng(32)
    params, grads = _two_params(rng), _two_grads(rng)
    want = {k: v.copy() for k, v in params.items()}
    accum = {k: np.ones_like(v) for k, v in params.items()}
    steps = (lambda a: step_rows(params["M"], *grads["M"], rate, a),
             lambda a: step_dense(params["v"], grads["v"], rate, a))
    for step, name in zip(steps, ("M", "v")):
        with pytest.raises(ValueError, match="learning rate"):
            step(accum[name] if adagrad else None)
    for k in params:  # nothing written: parameters nor accumulators
        assert np.array_equal(params[k], want[k]), k
        assert np.array_equal(accum[k], np.ones_like(want[k])), k


def test_negative_sample_empty():
    sampler = NoiseSampler([3, 1])
    out = sampler.sample_matrix((1, 0), np.array([0]), np.random.default_rng(0))
    assert out.shape == (1, 0)


def test_negative_sample_never_returns_excluded():
    sampler = NoiseSampler([5, 5, 5, 5])
    rng = np.random.default_rng(2)
    for _ in range(200):
        draws = sampler.sample_matrix((1, 8), np.array([2]), rng)
        assert 2 not in draws


def test_uniform_noise_frequencies():
    sampler = NoiseSampler([7, 7, 7, 7], exponent=0.75)
    rng = np.random.default_rng(3)
    draws = sampler.sample_matrix((1, 1_000_000), np.array([-1]), rng).ravel()
    freqs = np.bincount(draws, minlength=4) / len(draws)
    assert freqs == pytest.approx([0.25] * 4, abs=0.01)


def test_power_law_noise_ratio():
    # counts {a: 8, b: 1} at exponent 0.75 -> P(a)/P(b) = 8**0.75
    sampler = NoiseSampler([8, 1])
    rng = np.random.default_rng(4)
    draws = sampler.sample_matrix((1, 400_000), np.array([-1]), rng).ravel()
    counts = np.bincount(draws, minlength=2)
    ratio = counts[0] / counts[1]
    assert ratio == pytest.approx(8 ** 0.75, rel=0.05)


def test_sample_matrix_respects_row_exclusions():
    sampler = NoiseSampler([5, 4, 3, 2])
    rng = np.random.default_rng(5)
    exclude = np.array([0, 1, 2, 3, 0, 1])
    out = sampler.sample_matrix((6, 10), exclude, rng)
    for row, banned in zip(out, exclude):
        assert banned not in row


def test_gradient_check_polynomial():
    def f(theta):
        return float(theta[0] ** 2), np.array([2.0 * theta[0]])
    assert gradient_check(f, np.array([3.0])) < 1e-8


def test_gradient_check_softmax_cross_entropy():
    rng = np.random.default_rng(6)
    W = rng.normal(size=(3, 4))
    x = rng.normal(size=4)

    def f(theta):
        w = theta.reshape(3, 4)
        lsm = log_softmax(w @ x)
        loss = -lsm[1]
        d = np.exp(lsm)
        d[1] -= 1.0
        return float(loss), np.outer(d, x).ravel()

    assert gradient_check(f, W.ravel()) < 1e-6


def test_gradient_check_detects_wrong_gradient():
    def f(theta):
        return float(theta[0] ** 2), np.array([4.0 * theta[0]])  # 2x too big
    err = gradient_check(f, np.array([3.0]))
    assert err == pytest.approx(0.5, abs=1e-6)


def test_sigmoid_extremes():
    assert sigmoid(np.array([800.0]))[0] == pytest.approx(1.0)
    assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0)
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_log_sigmoid_matches_two_branch_formula_bitwise():
    x = np.array([-800.0, -30.0, -1.5, -0.0, 0.0, 1e-300, 2.0, 40.0, 800.0,
                  np.inf, -np.inf])
    tail = lambda v: np.log1p(np.exp(-np.abs(v)))  # noqa: E731
    want = np.where(x >= 0, -tail(x), x - tail(x))
    # compare bit patterns, so a zero's sign counts
    assert log_sigmoid(x).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_sigmoid_matches_two_branch_formula_bitwise():
    x = np.concatenate([
        s * np.random.default_rng(4).normal(size=200)
        for s in (1e-3, 1.0, 30.0, 800.0)] + [
        np.array([-745.0, -0.0, 0.0, 745.0, 1e-300, np.inf, -np.inf])])
    # the sign-masked formula: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) else
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    # compare bit patterns, so a zero's sign counts
    assert sigmoid(x).view(np.int64).tolist() == want.view(np.int64).tolist()


def _epoch_lines(caplog):
    """The messages of the epoch records `run_epochs` logged."""
    return [r.getMessage() for r in caplog.records
            if r.name == "embkit" and r.getMessage().startswith("epoch=")]


def _shard(x, batches, seen=None):
    """A lazy shard over the one-array parameters {"x": x}: for each
    `(loss, slot, units)` of `batches`, a batch whose gradient is -1 at
    `x[slot]`, so that an SGD step at rate 1 adds 1 there. Appends `x` as it
    stands when each batch is drawn to `seen`."""
    for loss, slot, units in batches:
        if seen is not None:
            seen.append(x.tolist())
        grad = np.zeros_like(x)
        grad[slot] = -1.0
        yield loss, {"x": grad}, units


def test_run_epochs_checks_steps_counts_and_logs(caplog):
    caplog.set_level(logging.INFO)
    x, seen, ends = np.zeros(3), [], []

    def epoch_shards(epoch):
        return 10, [_shard(x, [(1.5, 0, 2), (1.0, 1, 3), (0.5, 2, 1)], seen)]

    records = run_epochs(2, epoch_shards, {"x": x}, {"x": 1.0}, None,
                         ends.append)
    lines = _epoch_lines(caplog)
    # each batch is drawn after the step of the batch before it
    assert seen == [[0, 0, 0], [1, 0, 0], [1, 1, 0],
                    [1, 1, 1], [2, 1, 1], [2, 2, 1]]
    assert x.tolist() == [2, 2, 2]
    assert ends == records and [r.epoch for r in records] == [0, 1]
    assert all(isinstance(r, EpochRecord) for r in records)
    assert [(r.mean_loss, r.n_units) for r in records] == [(3.0 / 6, 6)] * 2
    assert all(r.tokens_per_sec == 10 / max(r.seconds, 1e-9) for r in records)
    assert [line.split()[:3] for line in lines] == [
        ["epoch=0", "mean_loss=0.500000", "units=6"],
        ["epoch=1", "mean_loss=0.500000", "units=6"]]


def test_glove_records_carry_its_running_objective(caplog):
    # two cells that share no row: one level, whose cost is the objective
    # of the parameters it starts from
    caplog.set_level(logging.INFO)
    vocab = Vocabulary(["a", "b", "c", "d"], [1, 1, 1, 1])
    matrix = CooccurrenceMatrix(vocab, [0, 1], [2, 3], [5.0, 30.0])
    model, final = train_glove(matrix, 3, 1, seed=4)
    lines = _epoch_lines(caplog)
    start, _ = train_glove(matrix, 3, 0, seed=4)
    rows, cols, vals = matrix.nonzero_arrays()
    initial = _glove_objective(start, rows, cols, np.log(vals),
                               glove_weight(vals))
    epoch, mean_loss, units = lines[0].split()[:3]
    assert (epoch, units) == ("epoch=0", "units=2")
    assert float(mean_loss[len("mean_loss="):]) == pytest.approx(
        initial / 2, rel=1e-6)
    assert 0.0 < final < initial


def test_run_epochs_dev_accuracy_set_by_end_epoch_is_logged(caplog):
    caplog.set_level(logging.INFO)

    def end_epoch(record):
        record.dev_accuracy = 0.25

    x = np.zeros(1)
    run_epochs(1, lambda epoch: (1, [_shard(x, [(1.0, 0, 1)])]), {"x": x},
               {"x": 1.0}, end_epoch=end_epoch)
    assert _epoch_lines(caplog)[0].endswith(" dev_accuracy=0.2500")


@pytest.mark.parametrize("shards", [1, 3])
def test_run_epochs_stops_at_non_finite_loss_before_stepping(shards):
    x = np.zeros(3)

    def epoch_shards(epoch):
        return 1, [_shard(x, [(1.0, k, 1), (math.inf, k, 1)])
                   for k in range(shards)]

    with pytest.raises(NumericError):
        run_epochs(1, epoch_shards, {"x": x}, {"x": 1.0})
    # each shard stepped its first batch, and none its second
    assert x.tolist() == [1.0] * shards + [0.0] * (3 - shards)


def test_run_epochs_sums_shards_and_rejects_negative_epochs():
    x = np.zeros(3)

    def epoch_shards(epoch):
        return 6, [_shard(x, [(1.0, 0, 1)]),
                   _shard(x, [(2.0, 1, 2), (3.0, 2, 1)])]

    record, = run_epochs(1, epoch_shards, {"x": x}, {"x": 1.0})
    assert (record.mean_loss, record.n_units) == (6.0 / 4, 4)
    assert x.tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        run_epochs(-1, epoch_shards, {"x": x}, {"x": 1.0})


@pytest.mark.parametrize("rate", [0.0, -0.3, math.nan, math.inf, -math.inf])
def test_run_epochs_refuses_a_bad_rate_before_any_epoch(rate):
    drawn = []

    def epoch_shards(epoch):
        drawn.append(epoch)
        return 0, []

    params = {"x": np.zeros(2), "y": np.zeros(2)}
    for epochs in (0, 1):
        with pytest.raises(ValueError, match="learning rate"):
            run_epochs(epochs, epoch_shards, params, {"x": 0.1, "y": rate})
    assert drawn == []


@pytest.mark.parametrize("threads", [1, 3])
def test_map_threads_returns_results_in_input_order(threads):
    def square_late_first(k):
        time.sleep(0.01 * (6 - k))  # later items finish first
        return k * k

    assert map_threads(square_late_first, range(6), threads) == [
        k * k for k in range(6)]


@pytest.mark.parametrize("threads", [1, 2])
def test_map_threads_runs_under_the_callers_error_state(threads):
    def overflow(k):
        return float(np.exp(np.float64(1000.0)))

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        map_threads(overflow, range(4), threads)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning on any thread raises
        assert map_threads(overflow, range(4), threads) == [math.inf] * 4


@pytest.mark.parametrize("threads", [1, 2])
def test_map_threads_raises_the_first_items_exception(threads):
    def odd_fails(k):
        if k % 2:
            raise KeyError(k)
        return k

    with pytest.raises(KeyError) as err:
        map_threads(odd_fails, range(6), threads)
    assert err.value.args == (1,)


def test_blas_idle_threads_divides_usable_cpus_by_blas_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert blas_idle_threads() == 1  # unset: BLAS may use every CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert blas_idle_threads() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read before OMP's
    assert blas_idle_threads() == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    assert blas_idle_threads() == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert blas_idle_threads() == 3
