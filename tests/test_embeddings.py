import math

import numpy as np
import pytest

from conftest import flat_checker, in_noise_band
from embkit.corpus import Vocabulary, WindowSample
from embkit.embeddings import (KINDS, EmbeddingModel,
                               TrainConfig, _aggregate_rows,
                               _apply_rows_ascent, build_charword_space,
                               charword_loss_grads, charword_pairs,
                               context_representation, cw_loss_grads,
                               cw_window_score, predictive_loss_grads,
                               sample_to_window, score_target,
                               train_epochs, train_sample_charword,
                               train_sample_cw, train_sample_predictive)
from embkit.errors import DataError, NumericError
from embkit.optim import (ADAGRAD_EPS, NoiseSampler, Param, gradient_check,
                          sigmoid)


def make_model(kind, vocab, dim=3, win=5, hidden=4, seed=0, randomize=True):
    model = EmbeddingModel.create(kind, vocab, dim, win, hidden,
                                  np.random.default_rng(seed))
    if randomize:
        r = np.random.default_rng(seed + 1000)
        for p in model.params().values():
            p.value[...] = r.normal(0, 0.8, p.value.shape)
    return model


# --- context representation ---------------------------------------------------

def test_cbow_opposite_vectors_cancel(small_vocab):
    model = make_model("cbow", small_vocab, randomize=False)
    model.e[0] = np.array([1.0, -2.0, 3.0])
    model.e[1] = -model.e[0]
    x = context_representation(model, [0, 1], n_left=1)
    assert x == pytest.approx(np.zeros(3), abs=1e-15)


def test_cbow_mean_matches_bruteforce(small_vocab):
    model = make_model("cbow", small_vocab)
    ids = [0, 3, 3, 5]
    x = context_representation(model, ids, n_left=2)
    brute = sum(model.e[i] for i in ids) / len(ids)
    assert x == pytest.approx(brute, abs=1e-12)


def test_order_concatenation_win3(small_vocab):
    model = make_model("order", small_vocab, win=3)
    x = context_representation(model, [0, 1], n_left=1)
    assert len(x) == 2 * model.dim
    assert x[:3] == pytest.approx(model.e[0])
    assert x[3:] == pytest.approx(model.e[1])


def test_order_boundary_slots_zero(small_vocab):
    model = make_model("order", small_vocab, win=5)
    # only one right context word: slots [-2,-1,+2] stay zero
    x = context_representation(model, [2], n_left=0)
    d = model.dim
    assert x[:2 * d] == pytest.approx(np.zeros(2 * d))
    assert x[2 * d:3 * d] == pytest.approx(model.e[2])
    assert x[3 * d:] == pytest.approx(np.zeros(d))


def test_skipgram_single_context_word(small_vocab):
    model = make_model("skipgram", small_vocab)
    assert context_representation(model, [4]) == pytest.approx(model.e[4])
    with pytest.raises(DataError):
        context_representation(model, [1, 2], n_left=1)


# --- target scoring -------------------------------------------------------------

def test_skipgram_aligned_unit_vectors_score_one(small_vocab):
    model = make_model("skipgram", small_vocab, randomize=False)
    unit = np.array([1.0, 0.0, 0.0])
    model.e_prime[2] = unit
    assert score_target(model, unit, 2) == pytest.approx(1.0)


def test_nnlm_zero_net_scores_zero(small_vocab):
    model = make_model("nnlm", small_vocab, randomize=False)
    # created with H random but e_prime/biases zero; zero H as well
    model.params()["H"].value[...] = 0.0
    x = np.arange(12, dtype=float)
    assert score_target(model, x, 3) == 0.0


def test_lbl_energy_matches_matrix_arithmetic(small_vocab):
    model = make_model("lbl", small_vocab)
    p = model.params()
    x = np.random.default_rng(8).normal(size=(model.win - 1) * model.dim)
    w = 4
    expected = (p["b2"].value[w]
                + model.e_prime[w] @ (p["b1"].value + p["H"].value @ x))
    assert score_target(model, x, w) == pytest.approx(expected, abs=1e-12)


def test_score_unknown_id_errors(small_vocab):
    model = make_model("skipgram", small_vocab)
    with pytest.raises(DataError):
        score_target(model, model.e[0], 99)


# --- per-sample losses -----------------------------------------------------------

def test_zero_energy_loss_is_ln2_terms(small_vocab):
    # freshly created model has e_prime = 0, so every energy is 0
    model = make_model("cbow", small_vocab, randomize=False)
    sample = WindowSample(0, (1, 2), 1)
    k = 5
    loss, _ = predictive_loss_grads(model, sample,
                                    [np.array([3, 4, 5, 3, 4])])
    assert loss == pytest.approx((1 + k) * math.log(2), abs=1e-12)


def test_negative_permutation_invariance(small_vocab):
    model = make_model("order", small_vocab)
    sample = WindowSample(1, (0, 2, 3, 4), 2)
    negs = np.array([2, 5, 3])
    loss1, _ = predictive_loss_grads(model, sample, [negs])
    loss2, _ = predictive_loss_grads(model, sample, [negs[::-1].copy()])
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
    sample = WindowSample(0, (1,), 1)  # target a, context b, negative must be b
    loss = train_sample_predictive(model, sample, cfg, sampler,
                                   np.random.default_rng(1))

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
        n_ctx = int(r.integers(1, 5))
        ctx = tuple(int(v) for v in r.integers(0, 6, n_ctx))
        sample = WindowSample(int(r.integers(0, 6)), ctx, min(n_ctx, 2))
        n_sets = n_ctx if kind == "skipgram" else 1
        negs = [r.integers(0, 6, 3) for _ in range(n_sets)]
        f, theta = flat_checker(model.params(),
                                lambda: predictive_loss_grads(model, sample, negs))
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
        window = [int(v) for v in r.integers(0, 6, 5)]
        neg = int(r.integers(0, 6))
        if neg == window[2]:
            continue
        loss, _ = cw_loss_grads(model, window, neg)
        if not loss > 0.02:  # needs a margin-violating, kink-free point
            continue
        f, theta = flat_checker(model.params(),
                                lambda: cw_loss_grads(model, window, neg))
        _, g0 = f(theta)
        if in_noise_band(g0):
            continue
        worst = max(worst, gradient_check(f, theta))
        checked += 1
    assert worst < 1e-4


# --- C&W specifics ------------------------------------------------------------

def test_cw_hinge_dead_zone(small_vocab):
    model = make_model("cw", small_vocab)
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
                if cw_window_score(model, window) \
                        - cw_window_score(model, changed) >= 1.5:
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
    loss, grads = cw_loss_grads(model, window, neg)
    assert loss == 0.0
    assert all(np.all(g == 0) for g in grads.values())
    for k, p in model.params().items():
        assert np.array_equal(p.value, before[k])


def test_cw_equal_scores_loss_one(small_vocab):
    model = make_model("cw", small_vocab, randomize=False)
    # zero hidden weights make every window score 0
    model.params()["H"].value[...] = 0.0
    model.params()["U"].value[...] = 0.0
    loss, _ = cw_loss_grads(model, [0, 1, 2, 3, 4], 5)
    assert loss == pytest.approx(1.0)


def test_cw_no_dead_inputs(small_vocab):
    # replacing the target or any context word must change the score
    model = make_model("cw", small_vocab)
    window = [0, 1, 2, 3, 4]
    base = cw_window_score(model, window)
    for slot in range(5):
        changed = list(window)
        changed[slot] = 5
        assert cw_window_score(model, changed) != pytest.approx(base, abs=1e-12)


def test_cw_window_length_enforced(small_vocab):
    model = make_model("cw", small_vocab)
    with pytest.raises(DataError):
        cw_loss_grads(model, [0, 1, 2], 4)


def test_sample_to_window_padding():
    sample = WindowSample(7, (1, 2), 0)  # both context words on the right
    assert sample_to_window(sample, 5) == [-1, -1, 7, 1, 2]


def test_train_sample_cw_updates_only_on_violation(small_vocab):
    model = make_model("cw", small_vocab)
    rng = np.random.default_rng(0)
    cfg = TrainConfig(optimizer="sgd", lr=0.05)
    before = {k: p.value.copy() for k, p in model.params().items()}
    loss = train_sample_cw(model, [0, 1, 2, 3, 4], rng, cfg)
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
    sample = WindowSample(0, (1, 3), 1)
    beta = 0.37
    rng = np.random.default_rng(5)
    pairs = charword_pairs(space, sample, beta)
    negs = [rng.integers(0, 5, 2) for _ in pairs]
    loss, _ = charword_loss_grads(model, space, sample, beta, negs)

    # recompute each pair independently at the same negatives
    expected = 0.0
    for (row, tgt, w), neg in zip(pairs, negs):
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
        train_sample_charword(model, space, WindowSample(0, (1, 2), 1),
                              cfg, sampler, rng)
    assert np.array_equal(model.e[:space.n_words], words_before)
    assert not np.array_equal(model.e[space.n_words:], chars_before)


def test_charword_single_char_word_weights(char_setup):
    # at beta = 0.5 a single-character context word gives the character pair
    # the same weight as the word pair
    vocab, space, _ = char_setup
    wid = vocab.id_of("江")
    pairs = charword_pairs(space, WindowSample(0, (wid,), 1), 0.5)
    assert len(pairs) == 2
    (w_row, _, w_weight), (c_row, _, c_weight) = pairs
    assert w_row == wid and c_row == space.char_rows(wid)[0]
    assert w_weight == c_weight == 0.5


def test_char_context_flag_doubles_units(char_setup):
    vocab, space, _ = char_setup
    sample = WindowSample(0, (vocab.id_of("江"), vocab.id_of("明天")), 1)
    plain = charword_pairs(space, sample, 0.5, char_context=False)
    extended = charword_pairs(space, sample, 0.5, char_context=True)
    assert len(extended) - len(plain) == 3  # one char of 江 plus two of 明天
    added = [p for p in extended if p not in plain]
    assert all(w == 1.0 for _, _, w in added)  # plain context units


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
            ctx = tuple(int(v) for v in r.integers(0, 5, int(r.integers(1, 4))))
            sample = WindowSample(int(r.integers(0, 5)), ctx, 0)
            pairs = charword_pairs(space, sample, beta)
            negs = [r.integers(0, 5, 2) for _ in pairs]
            f, theta = flat_checker(
                model.params(),
                lambda: charword_loss_grads(model, space, sample, beta, negs))
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
    sample = WindowSample(1, (0, 3), 1)
    pairs = charword_pairs(space, sample, 0.5, char_context=True)
    negs = [r.integers(0, 5, 2) for _ in pairs]
    f, theta = flat_checker(
        model.params(),
        lambda: charword_loss_grads(model, space, sample, 0.5, negs,
                                    char_context=True))
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

    _apply_rows_ascent(param, ids, grads, TrainConfig(lr=0.3, optimizer=optimizer))

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
    _apply_rows_ascent(param, np.empty(0, dtype=np.int64), np.empty((0, 3)),
                       TrainConfig(optimizer=optimizer))
    assert np.array_equal(param.value, before)
    assert np.array_equal(param.accum, np.ones((6, 3)))
