import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embkit.errors import NumericError
from embkit.optim import (NoiseSampler, gradient_check, log_softmax, sigmoid,
                          softmax, step_dense)


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


def test_sgd_step_ascent():
    theta = np.array([1.0])
    step_dense(theta, np.array([2.0]), 0.1)
    assert theta[0] == pytest.approx(1.2)


def test_sgd_zero_gradient_identity():
    theta = np.array([3.0, -1.0])
    step_dense(theta, np.zeros(2), 0.5)
    assert theta.tolist() == [3.0, -1.0]


def test_sgd_nonfinite_gradient_raises():
    with pytest.raises(NumericError):
        step_dense(np.zeros(2), np.array([1.0, np.nan]), 0.1)


def test_sgd_converges_on_quadratic_bowl():
    # maximize -(theta - 3)^2, gradient -2(theta - 3)
    theta = np.array([10.0])
    for _ in range(2000):
        step_dense(theta, -2.0 * (theta - 3.0), 0.05)
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
        step = theta[0] - before
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
