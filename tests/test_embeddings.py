import math

import numpy as np
import pytest

from conftest import (ascent_checker, charword_batch, cw_batch, in_noise_band,
                      predictive_batch)
from embkit.corpus import Vocabulary
from embkit.embeddings import (KINDS, EmbeddingModel, TrainConfig,
                               _apply_step, _assemble_cw_windows,
                               _context_inputs, _cw_scores,
                               _expand_charword_arrays, _ns_scores,
                               _pair_batch_ns, _process_chunk,
                               _window_batch_cw, _window_batch_predictive,
                               build_charword_space, train_epochs)
from embkit.errors import NumericError
from embkit.optim import (ADAGRAD_EPS, NoiseSampler, Param, _aggregate_rows,
                          gradient_check, sigmoid, step_rows)


def make_model(kind, vocab, dim=3, win=5, hidden=4, seed=0, randomize=True):
    model = EmbeddingModel.create(kind, vocab, dim, win, hidden,
                                  np.random.default_rng(seed))
    if randomize:
        r = np.random.default_rng(seed + 1000)
        for p in model.params().values():
            p.value[...] = r.normal(0, 0.8, p.value.shape)
    return model


def slots(*ids):
    """One window's context slots, left to right; -1 marks an empty slot."""
    return np.array([ids], dtype=np.int64)


# --- context representation ---------------------------------------------------

def test_cbow_opposite_vectors_cancel(small_vocab):
    model = make_model("cbow", small_vocab, randomize=False)
    model.e[0] = np.array([1.0, -2.0, 3.0])
    model.e[1] = -model.e[0]
    x = _context_inputs(model, slots(-1, 0, 1, -1))[0]
    assert x == pytest.approx(np.zeros(3), abs=1e-15)


def test_cbow_mean_matches_bruteforce(small_vocab):
    model = make_model("cbow", small_vocab)
    ids = [0, 3, 3, 5]
    x = _context_inputs(model, slots(*ids))[0]
    brute = sum(model.e[i] for i in ids) / len(ids)
    assert x == pytest.approx(brute, abs=1e-12)


def test_order_concatenation_win3(small_vocab):
    model = make_model("order", small_vocab, win=3)
    x = _context_inputs(model, slots(0, 1))[0]
    assert len(x) == 2 * model.dim
    assert x[:3] == pytest.approx(model.e[0])
    assert x[3:] == pytest.approx(model.e[1])


def test_order_boundary_slots_zero(small_vocab):
    model = make_model("order", small_vocab, win=5)
    # only one right context word: slots [-2,-1,+2] stay zero
    x = _context_inputs(model, slots(-1, -1, 2, -1))[0]
    d = model.dim
    assert x[:2 * d] == pytest.approx(np.zeros(2 * d))
    assert x[2 * d:3 * d] == pytest.approx(model.e[2])
    assert x[3 * d:] == pytest.approx(np.zeros(d))


def test_skipgram_single_context_word(small_vocab):
    # skipgram scores each context word as its own (input row -> target) pair
    model = make_model("skipgram", small_vocab)
    rows, tgts, wgts = _expand_charword_arrays(None, np.array([0]),
                                               slots(-1, 4, 1, -1), 0.0, False)
    assert rows.tolist() == [4, 1] and tgts.tolist() == [0, 0]
    assert wgts.tolist() == [1.0, 1.0]
    negs = np.array([[2, 3], [5, 2]])
    loss, grads = _pair_batch_ns(model, rows, tgts, wgts, negs)
    singles = [_pair_batch_ns(model, rows[i:i + 1], tgts[i:i + 1],
                              wgts[i:i + 1], negs[i:i + 1])[0] for i in range(2)]
    assert loss == pytest.approx(sum(singles), abs=1e-12)
    assert grads["e"][0].tolist() == [4, 1]


# --- target scoring -------------------------------------------------------------

def test_skipgram_aligned_unit_vectors_score_one(small_vocab):
    model = make_model("skipgram", small_vocab, randomize=False)
    unit = np.array([1.0, 0.0, 0.0])
    model.e_prime[2] = unit
    s, _, _ = _ns_scores(model, unit[None, :], np.array([[2]]))
    assert s[0, 0] == pytest.approx(1.0)


def test_nnlm_zero_net_scores_zero(small_vocab):
    model = make_model("nnlm", small_vocab, randomize=False)
    # created with H random but e_prime/biases zero; zero H as well
    model.params()["H"].value[...] = 0.0
    x = np.arange(12, dtype=float)
    s, _, _ = _ns_scores(model, x[None, :], np.array([[3]]))
    assert s[0, 0] == 0.0


def test_lbl_energy_matches_matrix_arithmetic(small_vocab):
    model = make_model("lbl", small_vocab)
    p = model.params()
    x = np.random.default_rng(8).normal(size=(model.win - 1) * model.dim)
    w = 4
    expected = (p["b2"].value[w]
                + model.e_prime[w] @ (p["b1"].value + p["H"].value @ x))
    s, _, _ = _ns_scores(model, x[None, :], np.array([[w]]))
    assert s[0, 0] == pytest.approx(expected, abs=1e-12)


def test_score_unknown_id_errors(small_vocab):
    model = make_model("skipgram", small_vocab)
    with pytest.raises(IndexError):
        _ns_scores(model, model.e[:1], np.array([[99]]))


# --- batch losses ----------------------------------------------------------------

def test_zero_energy_loss_is_ln2_terms(small_vocab):
    # freshly created model has e_prime = 0, so every energy is 0
    model = make_model("cbow", small_vocab, randomize=False)
    k = 5
    loss, _ = _window_batch_predictive(model, np.array([0]), slots(-1, 1, 2, -1),
                                       np.array([[3, 4, 5, 3, 4]]))
    assert loss == pytest.approx((1 + k) * math.log(2), abs=1e-12)


def test_negative_permutation_invariance(small_vocab):
    model = make_model("order", small_vocab)
    tgt, ctx = np.array([1]), slots(0, 2, 3, 4)
    negs = np.array([[2, 5, 3]])
    loss1, _ = _window_batch_predictive(model, tgt, ctx, negs)
    loss2, _ = _window_batch_predictive(model, tgt, ctx, negs[:, ::-1].copy())
    assert loss1 == pytest.approx(loss2, abs=1e-12)


def test_cbow_single_step_matches_hand_computation():
    # vocabulary of two words makes the redrawn negative deterministic
    vocab = Vocabulary(["a", "b"], [3, 2])
    model = EmbeddingModel.create("cbow", vocab, 2, 3, rng=np.random.default_rng(0))
    model.e[...] = [[0.5, -0.2], [0.1, 0.4]]
    model.e_prime[...] = [[0.3, 0.3], [-0.1, 0.2]]
    e, ep = model.e.copy(), model.e_prime.copy()

    cfg = TrainConfig(negatives=1, lr=0.1, optimizer="sgd", epochs=1)
    sampler = NoiseSampler(vocab.counts)
    # target a, context b on its left, so the negative must be b
    loss, units = _process_chunk(model, cfg, sampler, None,
                                 np.random.default_rng(1), np.array([0]),
                                 slots(1, -1))
    assert units == 1

    x = e[1]
    s_pos = float(ep[0] @ x)
    s_neg = float(ep[1] @ x)
    g_pos = 1.0 / (1.0 + math.exp(-s_pos)) - 1.0   # d loss / d s_pos
    g_neg = 1.0 / (1.0 + math.exp(-s_neg))
    expected_loss = -(math.log(1 / (1 + math.exp(-s_pos)))
                      + math.log(1 / (1 + math.exp(s_neg))))
    assert loss == pytest.approx(expected_loss, abs=1e-12)
    assert model.e_prime[0] == pytest.approx(ep[0] - 0.1 * g_pos * x, abs=1e-10)
    assert model.e_prime[1] == pytest.approx(ep[1] - 0.1 * g_neg * x, abs=1e-10)
    dx = g_pos * ep[0] + g_neg * ep[1]
    assert model.e[1] == pytest.approx(e[1] - 0.1 * dx, abs=1e-10)
    assert model.e[0] == pytest.approx(e[0])  # target input vector untouched


# --- gradient checks (the acceptance suite runs the full sweep) -------------------

@pytest.mark.parametrize("kind", ["skipgram", "cbow", "order", "lbl", "nnlm"])
def test_predictive_gradients(kind, small_vocab):
    worst = 0.0
    master = np.random.default_rng(hash(kind) % 2**32)
    checked = 0
    while checked < 10:
        seed = int(master.integers(2**31))
        r = np.random.default_rng(seed)
        model = make_model(kind, small_vocab, seed=seed)
        f, theta = ascent_checker(model.params(), predictive_batch(model, r, 6))
        _, g0 = f(theta)
        if in_noise_band(g0):
            continue
        worst = max(worst, gradient_check(f, theta))
        checked += 1
    assert worst < 1e-4


def test_cw_gradients(small_vocab):
    worst = 0.0
    master = np.random.default_rng(99)
    checked = 0
    while checked < 10:
        seed = int(master.integers(2**31))
        r = np.random.default_rng(seed)
        model = make_model("cw", small_vocab, seed=seed)
        batch = cw_batch(model, r, 6)
        if batch is None:
            continue
        f, theta = ascent_checker(model.params(), batch)
        _, g0 = f(theta)
        if in_noise_band(g0):
            continue
        worst = max(worst, gradient_check(f, theta))
        checked += 1
    assert worst < 1e-4


# --- C&W specifics ------------------------------------------------------------

def test_cw_hinge_dead_zone(small_vocab):
    model = make_model("cw", small_vocab)

    def score(window):
        return _cw_scores(model, model.e[window].reshape(1, -1))[1][0]

    # search for a (window, negative) pair with margin comfortably satisfied,
    # scaling up the output weights until the score spread is large enough
    found = None
    for _ in range(6):
        for mid in range(6):
            for neg in range(6):
                if neg == mid:
                    continue
                window = [0, 1, mid, 3, 4]
                changed = list(window)
                changed[2] = neg
                if score(window) - score(changed) >= 1.5:
                    found = (window, neg)
                    break
            if found:
                break
        if found:
            break
        model.params()["U"].value[...] *= 2.0
    assert found is not None
    window, neg = found
    before = {k: p.value.copy() for k, p in model.params().items()}
    loss, grads = _window_batch_cw(model, np.array([window]), np.array([neg]))
    assert loss == 0.0
    assert grads == {}
    _apply_step(model, TrainConfig(), loss, grads)
    for k, p in model.params().items():
        assert np.array_equal(p.value, before[k])


def test_cw_equal_scores_loss_one(small_vocab):
    model = make_model("cw", small_vocab, randomize=False)
    # zero hidden weights make every window score 0
    model.params()["H"].value[...] = 0.0
    model.params()["U"].value[...] = 0.0
    loss, _ = _window_batch_cw(model, np.array([[0, 1, 2, 3, 4]]), np.array([5]))
    assert loss == pytest.approx(1.0)


def test_cw_no_dead_inputs(small_vocab):
    # replacing the target or any context word must change the score
    model = make_model("cw", small_vocab)
    windows = np.tile([0, 1, 2, 3, 4], (6, 1))
    for slot in range(5):
        windows[slot + 1, slot] = 5
    _, s = _cw_scores(model, model.e[windows].reshape(6, -1))
    for slot in range(5):
        assert s[slot + 1] != pytest.approx(s[0], abs=1e-12)


def test_cw_window_length_enforced(small_vocab):
    model = make_model("cw", small_vocab)
    with pytest.raises(ValueError):
        _window_batch_cw(model, np.array([[0, 1, 2]]), np.array([4]))


def test_sample_to_window_padding():
    # target 7 with both context words on its right
    windows = _assemble_cw_windows(5, np.array([7]), slots(-1, -1, 1, 2))
    assert windows.tolist() == [[-1, -1, 7, 1, 2]]


def test_train_sample_cw_updates_only_on_violation(small_vocab):
    model = make_model("cw", small_vocab)
    rng = np.random.default_rng(0)
    cfg = TrainConfig(optimizer="sgd", lr=0.05)
    before = {k: p.value.copy() for k, p in model.params().items()}
    loss, _ = _process_chunk(model, cfg, None, None, rng, np.array([2]),
                             slots(0, 1, 3, 4))
    changed = any(not np.array_equal(p.value, before[k])
                  for k, p in model.params().items())
    assert changed == (loss > 0)


# --- char-word joint objective ---------------------------------------------------

@pytest.fixture
def char_setup():
    vocab = Vocabulary(["星期天", "星期", "天空", "江", "明天"], [5, 4, 3, 3, 2])
    space = build_charword_space(vocab)
    model = EmbeddingModel.create("skipgram", vocab, 3, 5,
                                  rng=np.random.default_rng(2),
                                  tokens=space.tokens)
    r = np.random.default_rng(77)
    for p in model.params().values():
        p.value[...] = r.normal(0, 0.8, p.value.shape)
    return vocab, space, model


def test_charword_space_rows(char_setup):
    vocab, space, _ = char_setup
    assert space.n_words == 5
    chars = set("星期天空江明")
    assert set(space.char_tokens) == chars
    rows = space.char_rows(vocab.id_of("星期天"))
    got = [space.tokens[r][1:] for r in rows]
    assert got == ["星", "期", "天"]


def test_charword_beta_interpolation(char_setup):
    # loss(beta) == (1-beta) * word part + beta/|w| * char part, exactly
    vocab, space, model = char_setup
    beta = 0.37
    rng = np.random.default_rng(5)
    rows, tgts, wgts = _expand_charword_arrays(
        space, np.array([0]), slots(-1, 1, 3, -1), beta, False)
    negs = rng.integers(0, 5, (len(rows), 2))
    loss, _ = _pair_batch_ns(model, rows, tgts, wgts, negs)

    # recompute each pair independently at the same negatives
    expected = 0.0
    for row, tgt, w, neg in zip(rows, tgts, wgts, negs):
        x = model.e[row]
        ids = np.concatenate(([tgt], neg))
        s = model.e_prime[ids] @ x
        term = -(np.log(sigmoid(s[0])) + np.log(sigmoid(-s[1:])).sum())
        expected += w * term
    assert loss == pytest.approx(expected, abs=1e-12)


def test_charword_beta_zero_matches_plain_skipgram_stream(toy_corpus, toy_vocab):
    space = build_charword_space(toy_vocab)
    cfg = dict(negatives=2, lr=0.1, epochs=2, seed=11, batch_size=32)

    plain = EmbeddingModel.create("skipgram", toy_vocab, 4, 5,
                                  rng=np.random.default_rng(1))
    train_epochs(plain, toy_corpus, TrainConfig(**cfg))

    joint = EmbeddingModel.create("skipgram", toy_vocab, 4, 5,
                                  rng=np.random.default_rng(1),
                                  tokens=space.tokens)
    fresh = EmbeddingModel.create("skipgram", toy_vocab, 4, 5,
                                  rng=np.random.default_rng(1))
    joint.e[:space.n_words] = fresh.e  # same word-row init as `plain` had
    train_epochs(joint, toy_corpus, TrainConfig(beta=0.0, **cfg), space=space)

    assert np.array_equal(joint.e[:space.n_words], plain.e)
    assert np.array_equal(joint.e_prime[:space.n_words],
                          plain.e_prime[:space.n_words])


def test_charword_beta_one_freezes_word_context_vectors(char_setup):
    vocab, space, model = char_setup
    cfg = TrainConfig(negatives=2, lr=0.1, beta=1.0, optimizer="sgd")
    sampler = NoiseSampler(vocab.counts)
    rng = np.random.default_rng(3)
    words_before = model.e[:space.n_words].copy()
    chars_before = model.e[space.n_words:].copy()
    for _ in range(5):
        _process_chunk(model, cfg, sampler, space, rng, np.array([0]),
                       slots(-1, 1, 2, -1))
    assert np.array_equal(model.e[:space.n_words], words_before)
    assert not np.array_equal(model.e[space.n_words:], chars_before)


def test_charword_single_char_word_weights(char_setup):
    # at beta = 0.5 a single-character context word gives the character pair
    # the same weight as the word pair
    vocab, space, _ = char_setup
    wid = vocab.id_of("江")
    rows, _, wgts = _expand_charword_arrays(space, np.array([0]),
                                            slots(-1, wid, -1, -1), 0.5, False)
    assert rows.tolist() == [wid, space.char_rows(wid)[0]]
    assert wgts.tolist() == [0.5, 0.5]


def test_char_context_flag_doubles_units(char_setup):
    vocab, space, _ = char_setup
    tgt, ctx = np.array([0]), slots(-1, vocab.id_of("江"), vocab.id_of("明天"), -1)
    plain = _expand_charword_arrays(space, tgt, ctx, 0.5, False)
    extended = _expand_charword_arrays(space, tgt, ctx, 0.5, True)
    n = len(plain[0])
    assert len(extended[0]) - n == 3  # one char of 江 plus two of 明天
    for got, want in zip(extended, plain):
        assert np.array_equal(got[:n], want)
    assert extended[2][n:].tolist() == [1.0] * 3  # plain context units


def test_charword_gradients(char_setup):
    vocab, space, _ = char_setup
    worst = 0.0
    master = np.random.default_rng(13)
    for beta in (0.0, 0.5, 1.0):
        checked = 0
        while checked < 5:
            seed = int(master.integers(2**31))
            r = np.random.default_rng(seed)
            model = EmbeddingModel.create("skipgram", vocab, 3, 5,
                                          rng=r, tokens=space.tokens)
            for p in model.params().values():
                p.value[...] = r.normal(0, 0.8, p.value.shape)
            f, theta = ascent_checker(model.params(),
                                      charword_batch(model, space, r, 5, beta))
            _, g0 = f(theta)
            if in_noise_band(g0):
                continue
            worst = max(worst, gradient_check(f, theta))
            checked += 1
    assert worst < 1e-4


def test_char_context_gradients(char_setup):
    vocab, space, _ = char_setup
    r = np.random.default_rng(21)
    model = EmbeddingModel.create("skipgram", vocab, 3, 5, rng=r,
                                  tokens=space.tokens)
    for p in model.params().values():
        p.value[...] = r.normal(0, 0.8, p.value.shape)
    batch = charword_batch(model, space, r, 5, 0.5, char_context=True)
    f, theta = ascent_checker(model.params(), batch)
    assert gradient_check(f, theta) < 1e-4


# --- epoch training ---------------------------------------------------------------

def test_zero_epochs_leaves_model_unchanged(toy_corpus, toy_vocab):
    model = EmbeddingModel.create("skipgram", toy_vocab, 4, 5,
                                  rng=np.random.default_rng(0))
    before = model.e.copy()
    stats = train_epochs(model, toy_corpus, TrainConfig(epochs=0))
    assert stats == []
    assert np.array_equal(model.e, before)


@pytest.mark.parametrize("kind", KINDS)
def test_mean_loss_nonincreasing_by_epoch3(kind, toy_corpus, toy_vocab):
    model = EmbeddingModel.create(kind, toy_vocab, 6, 5, 8,
                                  np.random.default_rng(3))
    cfg = TrainConfig(negatives=3, lr=0.1, epochs=3, seed=5, batch_size=64)
    stats = train_epochs(model, toy_corpus, cfg)
    assert stats[2].mean_loss <= stats[0].mean_loss


def test_single_worker_training_bitwise_reproducible(toy_corpus, toy_vocab):
    runs = []
    for _ in range(2):
        model = EmbeddingModel.create("cbow", toy_vocab, 4, 5,
                                      rng=np.random.default_rng(2))
        cfg = TrainConfig(negatives=2, epochs=2, seed=17, batch_size=32,
                          subsample_t=0.02)
        train_epochs(model, toy_corpus, cfg)
        runs.append((model.e.copy(), model.e_prime.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_epoch_checkpoints_written(tmp_path, toy_corpus, toy_vocab):
    model = EmbeddingModel.create("skipgram", toy_vocab, 4, 5,
                                  rng=np.random.default_rng(0))
    train_epochs(model, toy_corpus, TrainConfig(epochs=2, seed=1),
                 checkpoint_dir=tmp_path)
    assert (tmp_path / "checkpoint-ep0.vec").exists()
    assert (tmp_path / "checkpoint-ep1.vec").exists()


def test_multi_worker_runs(toy_corpus, toy_vocab):
    model = EmbeddingModel.create("skipgram", toy_vocab, 4, 5,
                                  rng=np.random.default_rng(0))
    cfg = TrainConfig(epochs=1, seed=1, workers=2, batch_size=32)
    stats = train_epochs(model, toy_corpus, cfg)
    assert stats[0].n_units > 0


@pytest.mark.parametrize("kind", ["skipgram", "cbow", "nnlm"])
def test_divergence_stops_before_parameters_turn_non_finite(kind, toy_corpus,
                                                            toy_vocab):
    model = EmbeddingModel.create(kind, toy_vocab, 4, 5, 4,
                                  np.random.default_rng(0))
    cfg = TrainConfig(lr=1e200, optimizer="sgd", epochs=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            train_epochs(model, toy_corpus, cfg)
    for name, p in model.params().items():
        assert np.isfinite(p.value).all(), name


# --- row-sparse ascent step -----------------------------------------------------

# float64 steps must match the reference to rounding; float32 tables round
# every stored value to float32, about 6e-8 relative per operation.
ROW_STEP_RTOL = {np.float64: 1e-12, np.float32: 1e-6}


def _heavy_duplicate_ids(rng, n_rows, n_ids):
    # a few hot rows take most of the ids, as frequent words do in a batch
    hot = rng.integers(0, n_rows, size=n_ids // 2) % 3
    cold = rng.integers(0, n_rows, size=n_ids - len(hot))
    return rng.permutation(np.concatenate([hot, cold]))


def _reference_rows_step(value, accum, ids, grads, optimizer, lr):
    """np.add.at aggregation, then a dense step on the touched rows."""
    summed = np.zeros(value.shape)
    np.add.at(summed, ids, grads)
    touched = np.unique(ids)
    g = summed[touched].astype(value.dtype)
    value, accum = value.copy(), accum.copy()
    if optimizer == "adagrad":
        accum[touched] += g * g
        value[touched] += lr * g / (np.sqrt(accum[touched]) + ADAGRAD_EPS)
    else:
        value[touched] += lr * g
    return value, accum


@pytest.mark.parametrize("row_shape", [(4,), ()], ids=["matrix", "bias"])
def test_aggregate_rows_matches_add_at(row_shape):
    rng = np.random.default_rng(11)
    ids = _heavy_duplicate_ids(rng, 40, 300)
    grads = rng.normal(size=(len(ids), *row_shape))
    uids, summed = _aggregate_rows(ids, grads)
    ref = np.zeros((40, *row_shape))
    np.add.at(ref, ids, grads)
    assert np.array_equal(uids, np.unique(ids))
    np.testing.assert_allclose(summed, ref[uids], rtol=1e-12)


def test_aggregate_rows_empty():
    uids, summed = _aggregate_rows(np.empty(0, dtype=np.int64), np.empty((0, 3)))
    assert uids.shape == (0,) and summed.shape == (0, 3)


@pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("row_shape", [(5,), ()], ids=["matrix", "bias"])
def test_apply_rows_ascent_matches_dense_reference(optimizer, dtype, row_shape):
    rng = np.random.default_rng(12)
    n_rows = 50
    param = Param(rng.normal(size=(n_rows, *row_shape)))
    param.value = param.value.astype(dtype)
    param.accum = rng.uniform(0.5, 2.0, size=param.value.shape).astype(dtype)
    ids = _heavy_duplicate_ids(rng, 30, 400)  # rows 30.. stay untouched
    grads = rng.normal(size=(len(ids), *row_shape))
    ref_value, ref_accum = _reference_rows_step(
        param.value, param.accum, ids, grads, optimizer, 0.3)
    before_value, before_accum = param.value.copy(), param.accum.copy()

    step_rows(param.value, ids, grads, 0.3,
              param.accum if optimizer == "adagrad" else None)

    assert param.value.dtype == dtype and param.accum.dtype == dtype
    rtol = ROW_STEP_RTOL[dtype]
    np.testing.assert_allclose(param.value, ref_value, rtol=rtol)
    np.testing.assert_allclose(param.accum, ref_accum, rtol=rtol)
    untouched = np.setdiff1d(np.arange(n_rows), ids)
    assert len(untouched) == n_rows - 30
    assert np.array_equal(param.value[untouched], before_value[untouched])
    assert np.array_equal(param.accum[untouched], before_accum[untouched])
    if optimizer == "sgd":
        assert np.array_equal(param.accum, before_accum)


@pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
def test_apply_rows_ascent_empty_ids_change_nothing(optimizer):
    param = Param(np.random.default_rng(13).normal(size=(6, 3)))
    param.accum = np.ones((6, 3))
    before = param.value.copy()
    step_rows(param.value, np.empty(0, dtype=np.int64), np.empty((0, 3)), 0.1,
              param.accum if optimizer == "adagrad" else None)
    assert np.array_equal(param.value, before)
    assert np.array_equal(param.accum, np.ones((6, 3)))
