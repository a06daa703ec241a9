import math
import zlib
from functools import partial

import numpy as np
import pytest

from conftest import (charword_batch, cw_batch, flat_checker,
                      gradient_check, in_noise_band, predictive_batch,
                      slotwise_windows)
from embkit import embeddings as emb_module
from embkit.corpus import (CorpusStream, Vocabulary, build_vocabulary,
                           select_documents, subsample_ids, window_matrix)
from embkit.embeddings import (KINDS, EmbeddingModel, TrainConfig,
                               _context_inputs, _convert_params,
                               _cw_scores, _expand_charword_arrays, _ns_loss,
                               _ns_scores, _process_chunk,
                               _window_batch_cw, _window_batch_predictive,
                               build_charword_space, train_epochs)
from embkit.errors import NumericError
from embkit.optim import (ADAGRAD_EPS, NoiseSampler, _aggregate_rows,
                          _run_shard, apply_grads, sigmoid, step_rows)


def make_model(kind, vocab, dim=3, win=5, hidden=4, seed=0, randomize=True):
    model = EmbeddingModel.create(kind, vocab, dim, win, hidden,
                                  np.random.default_rng(seed))
    if randomize:
        r = np.random.default_rng(seed + 1000)
        for p in model.params().values():
            p[...] = r.normal(0, 0.8, p.shape)
    return model


def trainer_step(model, cfg):
    """The step `run_epochs` takes for `train_epochs`: `apply_grads` at
    rate cfg.lr, with the model's AdaGrad accumulators or as SGD."""
    params = model.params()
    return partial(apply_grads, params, rates=dict.fromkeys(params, cfg.lr),
                   accum=model.accum if cfg.optimizer == "adagrad" else None)


def step_chunk(model, cfg, sampler, space, rng, windows):
    """Train on one chunk of windows through the epoch loop's batch runner;
    returns the loss sum and the unit count."""
    return _run_shard(_process_chunk(model, cfg, sampler, space, rng, windows),
                      trainer_step(model, cfg))


def pair_batch_ns(model, ctx, tgt, wgt, negs):
    """Oracle: weighted negative sampling over (input row -> target) pairs,
    the pair path that one-slot windows replaced."""
    X = model.e[ctx]
    tids = np.concatenate([tgt[:, None], negs], axis=1)
    s, _, R = _ns_scores(model, X, tids)
    loss, g = _ns_loss(s)
    g *= wgt[:, None]
    dR = g[:, :, None] * X[:, None, :]
    dX = np.einsum("bm,bmd->bd", g, R)
    return float((loss * wgt).sum()), {
        "e_prime": (tids.ravel(), dR.reshape(-1, dR.shape[-1])), "e": (ctx, dX)}


def char_rows(space, word_id):
    """The character rows that spell word `word_id` in a CharWordSpace."""
    return select_documents(space.char_flat, space.char_starts, [word_id])[0]


def slots(*ids):
    """One window's context slots, or all its slots with the target in the
    middle, left to right; -1 marks an empty slot."""
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
    ctx = rows[:, None]  # each pair is a one-slot window
    loss, grads = _window_batch_predictive(model, tgts, ctx, wgts, negs)
    singles = [_window_batch_predictive(model, tgts[i:i + 1], ctx[i:i + 1],
                                        wgts[i:i + 1], negs[i:i + 1])[0]
               for i in range(2)]
    assert loss == pytest.approx(sum(singles), abs=1e-12)
    assert grads["e"][0].tolist() == [4, 1]


@pytest.mark.parametrize("kind", ["cbow", "order", "lbl", "nnlm"])
def test_context_inputs_keep_table_dtype(small_vocab, kind):
    model = make_model(kind, small_vocab, win=5)
    ctx = np.array([[-1, 2, 3, 5], [1, -1, -1, -1], [0, 4, 4, 1]])
    mask = ctx >= 0
    # float64 stays bitwise the zero-filled-slots, integer-count arithmetic
    S = np.zeros((*ctx.shape, model.dim))
    S[mask] = model.e[ctx[mask]]
    want = (S.sum(axis=1) / mask.sum(axis=1)[:, None] if kind == "cbow"
            else S.reshape(len(ctx), -1))
    x64 = _context_inputs(model, ctx)
    assert x64.dtype == np.float64 and np.array_equal(x64, want)
    _convert_params(model, np.float32)
    x32 = _context_inputs(model, ctx)
    assert x32.dtype == np.float32
    np.testing.assert_allclose(x32, x64, rtol=1e-6)


def test_cw_row_gradients_keep_table_dtype(small_vocab):
    model = make_model("cw", small_vocab, win=5)
    windows = np.array([[-1, -1, 0, 1, 2], [0, 1, 2, 3, 4], [2, 3, 4, 5, -1]])
    neg = np.array([3, 5, 1])
    model.params()["U"][...] *= 100.0  # every window violates its margin
    _, g64 = _window_batch_cw(model, windows, neg)
    assert g64["e"][1].dtype == np.float64 and len(g64["e"][1]) > 0
    _convert_params(model, np.float32)
    _, g32 = _window_batch_cw(model, windows, neg)
    assert g32["e"][1].dtype == np.float32
    assert np.array_equal(g32["e"][0], g64["e"][0])


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
    model.params()["H"][...] = 0.0
    x = np.arange(12, dtype=float)
    s, _, _ = _ns_scores(model, x[None, :], np.array([[3]]))
    assert s[0, 0] == 0.0


def test_lbl_energy_matches_matrix_arithmetic(small_vocab):
    model = make_model("lbl", small_vocab)
    p = model.params()
    x = np.random.default_rng(8).normal(size=(model.win - 1) * model.dim)
    w = 4
    expected = (p["b2"][w]
                + model.e_prime[w] @ (p["b1"] + p["H"] @ x))
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
                                       np.ones(1), np.array([[3, 4, 5, 3, 4]]))
    assert loss == pytest.approx((1 + k) * math.log(2), abs=1e-12)


def test_negative_permutation_invariance(small_vocab):
    model = make_model("order", small_vocab)
    tgt, ctx = np.array([1]), slots(0, 2, 3, 4)
    negs = np.array([[2, 5, 3]])
    loss1, _ = _window_batch_predictive(model, tgt, ctx, np.ones(1), negs)
    loss2, _ = _window_batch_predictive(model, tgt, ctx, np.ones(1),
                                        negs[:, ::-1].copy())
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
    loss, units = step_chunk(model, cfg, sampler, None,
                             np.random.default_rng(1), slots(1, 0, -1))
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
    master = np.random.default_rng(zlib.crc32(kind.encode()))
    checked = 0
    while checked < 10:
        seed = int(master.integers(2**31))
        r = np.random.default_rng(seed)
        model = make_model(kind, small_vocab, seed=seed)
        f, theta = flat_checker(model.params(), predictive_batch(model, r, 6))
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
        f, theta = flat_checker(model.params(), batch)
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
        model.params()["U"][...] *= 2.0
    assert found is not None
    window, neg = found
    before = {k: p.copy() for k, p in model.params().items()}
    loss, grads = _window_batch_cw(model, np.array([window]), np.array([neg]))
    assert loss == 0.0
    assert grads == {}
    trainer_step(model, TrainConfig())(grads)
    for k, p in model.params().items():
        assert np.array_equal(p, before[k])


def test_cw_equal_scores_loss_one(small_vocab):
    model = make_model("cw", small_vocab, randomize=False)
    # zero hidden weights make every window score 0
    model.params()["H"][...] = 0.0
    model.params()["U"][...] = 0.0
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
    # target 7 opens the second document, so both its context words lie on
    # its right
    ids = np.array([5, 6, 7, 1, 2])
    windows = window_matrix(ids, 5, -1, starts=[0, 2], lo=2, hi=3)
    assert windows.tolist() == [[-1, -1, 7, 1, 2]]


def test_train_sample_cw_updates_only_on_violation(small_vocab):
    model = make_model("cw", small_vocab)
    rng = np.random.default_rng(0)
    cfg = TrainConfig(optimizer="sgd", lr=0.05)
    before = {k: p.copy() for k, p in model.params().items()}
    loss, _ = step_chunk(model, cfg, None, None, rng, slots(0, 1, 2, 3, 4))
    changed = any(not np.array_equal(p, before[k])
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
        p[...] = r.normal(0, 0.8, p.shape)
    return vocab, space, model


def test_charword_space_rows(char_setup):
    vocab, space, _ = char_setup
    assert space.n_words == 5
    chars = set("星期天空江明")
    assert set(space.char_tokens) == chars
    rows = char_rows(space, vocab.token_to_id["星期天"])
    got = [space.tokens[r][1:] for r in rows]
    assert got == ["星", "期", "天"]


def test_charword_spells_a_pseudo_token_inside_a_word():
    # the segmenter's scanner spells the vocabulary: NUMBER is one character
    space = build_charword_space(Vocabulary(["第NUMBER号", "ok"], [2, 1]))
    assert space.char_tokens == ["NUMBER", "k", "o", "号", "第"]
    spelled = [[space.tokens[r][1:] for r in char_rows(space, w)] for w in (0, 1)]
    assert spelled == [["第", "NUMBER", "号"], ["o", "k"]]


def test_charword_beta_interpolation(char_setup):
    # loss(beta) == (1-beta) * word part + beta/|w| * char part, exactly
    vocab, space, model = char_setup
    beta = 0.37
    rng = np.random.default_rng(5)
    rows, tgts, wgts = _expand_charword_arrays(
        space, np.array([0]), slots(-1, 1, 3, -1), beta, False)
    negs = rng.integers(0, 5, (len(rows), 2))
    loss, _ = _window_batch_predictive(model, tgts, rows[:, None], wgts, negs)

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
        step_chunk(model, cfg, sampler, space, rng, slots(-1, 1, 0, 2, -1))
    assert np.array_equal(model.e[:space.n_words], words_before)
    assert not np.array_equal(model.e[space.n_words:], chars_before)


def test_charword_single_char_word_weights(char_setup):
    # at beta = 0.5 a single-character context word gives the character pair
    # the same weight as the word pair
    vocab, space, _ = char_setup
    wid = vocab.token_to_id["江"]
    rows, _, wgts = _expand_charword_arrays(space, np.array([0]),
                                            slots(-1, wid, -1, -1), 0.5, False)
    assert rows.tolist() == [wid, char_rows(space, wid)[0]]
    assert wgts.tolist() == [0.5, 0.5]


def test_char_context_flag_doubles_units(char_setup):
    vocab, space, _ = char_setup
    ids = vocab.token_to_id
    tgt, ctx = np.array([0]), slots(-1, ids["江"], ids["明天"], -1)
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
                p[...] = r.normal(0, 0.8, p.shape)
            f, theta = flat_checker(model.params(),
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
        p[...] = r.normal(0, 0.8, p.shape)
    batch = charword_batch(model, space, r, 5, 0.5, char_context=True)
    f, theta = flat_checker(model.params(), batch)
    assert gradient_check(f, theta) < 1e-4


@pytest.mark.parametrize("bad", [{"lr": -1.0}, {"epochs": -1}],
                         ids=["rate", "epochs"])
def test_refused_float32_training_leaves_the_model_float64(toy_corpus,
                                                           toy_vocab, bad):
    model = EmbeddingModel.create("skipgram", toy_vocab, 4, 5)
    with pytest.raises(ValueError):
        train_epochs(model, toy_corpus, TrainConfig(precision="float32", **bad))
    assert {p.dtype for p in model.params().values()} == {np.dtype(np.float64)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("beta,char_context", [(None, False), (0.4, False),
                                               (1.0, True)],
                         ids=["skipgram", "charword", "char-context"])
def test_one_slot_windows_match_pair_oracle_bitwise(char_setup, beta,
                                                    char_context, dtype):
    vocab, space, model = char_setup
    _convert_params(model, dtype)
    rng = np.random.default_rng(17)
    windows = rng.integers(-1, len(vocab), (40, model.win))
    tgt, ctx = windows[:, 2] % len(vocab), np.delete(windows, 2, 1)
    rows, tgts, wgts = _expand_charword_arrays(
        None if beta is None else space, tgt, ctx, beta or 0.0, char_context)
    negs = rng.integers(0, len(vocab), (len(rows), 3))
    want_loss, want = pair_batch_ns(model, rows, tgts, wgts, negs)
    loss, grads = _window_batch_predictive(model, tgts, rows[:, None], wgts,
                                           negs)
    assert loss == want_loss
    assert grads.keys() == want.keys()
    for name, (ids, g) in want.items():
        got_ids, got = grads[name]
        assert np.array_equal(got_ids, ids), name
        assert got.dtype == g.dtype and got.tobytes() == g.tobytes(), name


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


@pytest.mark.parametrize("kind", ["skipgram", "charword", "cbow", "order",
                                  "nnlm"])
def test_process_chunk_units_are_pairs_or_kept_windows(kind, char_setup):
    # units per batch: one per (row -> target) pair for skipgram and
    # charword, one per window with some context for the window kinds
    vocab, space, _ = char_setup
    space = space if kind == "charword" else None
    model = EmbeddingModel.create("skipgram" if space else kind, vocab, 3, 5,
                                  4, np.random.default_rng(0),
                                  tokens=space.tokens if space else None)
    ids = np.random.default_rng(5).integers(0, len(vocab), 30)
    starts = np.array([0, 1, 8, 9, 13])  # two one-token documents
    windows = window_matrix(ids, 5, -1, starts)
    ctx = np.delete(windows, 2, 1)
    words = ctx[ctx >= 0]
    if kind == "skipgram":
        n = len(words)
    elif kind == "charword":  # word pairs, char pairs, char-context pairs
        n = len(words) + 2 * sum(len(char_rows(space, w)) for w in words)
    else:
        n = len(windows) - 2
    cfg = TrainConfig(negatives=2, batch_size=7, beta=0.5, char_context=True)
    got = [units for _, _, units in _process_chunk(
        model, cfg, NoiseSampler(vocab.counts), space,
        np.random.default_rng(1), windows)]
    assert got == [min(7, n - lo) for lo in range(0, n, 7)]


@pytest.mark.parametrize("kind,full_softmax", [("skipgram", False),
                                               ("skipgram", True),
                                               ("order", False)])
def test_process_chunk_holds_no_grads_while_suspended(kind, full_softmax,
                                                       small_vocab):
    # the consumer steps on a batch's grads while the loop is suspended; a
    # local still naming them would keep two batches' grads alive
    model = make_model(kind, small_vocab)
    cfg = TrainConfig(negatives=2, batch_size=4, full_softmax=full_softmax)
    windows = window_matrix(np.arange(20) % 6, 5, -1, np.array([0]))
    batches = _process_chunk(model, cfg, NoiseSampler(small_vocab.counts),
                             None, np.random.default_rng(0), windows)
    _, grads, _ = next(batches)
    held = [name for name, v in batches.gi_frame.f_locals.items()
            if v is grads or (isinstance(v, tuple) and any(x is grads for x in v))]
    assert held == []


def buffered_pass(model, ids, starts, keep_prob, cfg, sampler, space, srng,
                  nrng):
    """Reference for `_train_one_pass`: the per-document buffer loop it
    replaced. Each document of `(ids, starts)` is subsampled by
    `keep_prob`, if given, then windowed on its own in _MAX_SEGMENT pieces;
    a chunk goes to `_process_chunk` once it holds max(8 * batch, 4096)
    windows. Returns the token count and the batches."""
    docs = np.split(ids, starts[1:])
    if keep_prob is not None:
        docs = [subsample_ids(ids, keep_prob, srng) for ids in docs]
    chunk_windows = max(cfg.batch_size * 8, 4096)

    def batches():
        buf = []
        for ids in docs:
            windows = np.array(slotwise_windows(ids, model.win, -1),
                               dtype=np.int64).reshape(len(ids), model.win)
            for start in range(0, len(ids), emb_module._MAX_SEGMENT):
                buf.append(windows[start:start + emb_module._MAX_SEGMENT])
                if sum(map(len, buf)) >= chunk_windows:
                    chunk, buf = np.concatenate(buf), []
                    yield from _process_chunk(model, cfg, sampler, space,
                                              nrng, chunk)
        if buf:
            yield from _process_chunk(model, cfg, sampler, space, nrng,
                                      np.concatenate(buf))

    return sum(map(len, docs)), batches()


@pytest.mark.parametrize("t", [None, 0.01], ids=["all", "subsampled"])
@pytest.mark.parametrize("kind", KINDS + ("charword",))
def test_train_pass_matches_buffered_reference(kind, t, monkeypatch):
    # documents of 1..300 tokens, most longer than the patched segment, and
    # enough tokens for several chunks
    monkeypatch.setattr(emb_module, "_MAX_SEGMENT", 50)
    rng = np.random.default_rng(7)
    zipf = 1.0 / np.arange(1, 61)
    docs = [[f"w{i}" for i in rng.choice(60, int(n), p=zipf / zipf.sum())]
            for n in rng.integers(1, 301, 80)]
    corpus = CorpusStream(docs)
    vocab = build_vocabulary(corpus)
    space = build_charword_space(vocab) if kind == "charword" else None
    cfg = TrainConfig(negatives=2, epochs=1, seed=3, batch_size=100,
                      subsample_t=t, beta=0.4, char_context=True)
    runs = []
    for one_pass in (buffered_pass, emb_module._train_one_pass):
        passes = []

        def recorded(*args, one_pass=one_pass):
            tokens, batches = one_pass(*args)
            seen = []  # (loss, units) of every batch, in order
            passes.append((tokens, seen))

            def watched():
                for loss, grads, units in batches:
                    seen.append((loss, units))
                    yield loss, grads, units
            return tokens, watched()

        monkeypatch.setattr(emb_module, "_train_one_pass", recorded)
        model = EmbeddingModel.create(
            "skipgram" if space else kind, vocab, 4, 5, 6,
            np.random.default_rng(1), tokens=space.tokens if space else None)
        stats = train_epochs(model, corpus, cfg, space=space)
        runs.append((passes, [(s.epoch, s.mean_loss, s.n_units) for s in stats],
                     model.params()))
    (ref_passes, ref_stats, ref_params), (passes, stats, params) = runs
    assert ref_passes[0][0] > 2 * 4096  # several chunks per pass
    assert passes == ref_passes
    assert stats == ref_stats
    for name, value in ref_params.items():
        assert np.array_equal(params[name], value), name


def test_chunk_bounds_close_at_first_piece_end_reaching_size(monkeypatch):
    # the second document ends exactly 4096 windows in; a third one of
    # 7000 is cut into pieces of 3000, 3000 and 1000
    monkeypatch.setattr(emb_module, "_MAX_SEGMENT", 3000)
    starts, n = np.array([0, 4095, 4096]), 11096
    assert list(emb_module._chunk_bounds(starts, n, 4096)) == [
        (0, 4096), (4096, 10096), (10096, 11096)]
    assert list(emb_module._chunk_bounds(starts, n, 20000)) == [(0, 11096)]
    assert list(emb_module._chunk_bounds(np.array([0]), 0, 4096)) == []


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
        assert np.isfinite(p).all(), name


# --- row-sparse descent step ----------------------------------------------------

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
        value[touched] -= lr * g / (np.sqrt(accum[touched]) + ADAGRAD_EPS)
    else:
        value[touched] -= lr * g
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
    value = rng.normal(size=(n_rows, *row_shape)).astype(dtype)
    accum = rng.uniform(0.5, 2.0, size=value.shape).astype(dtype)
    ids = _heavy_duplicate_ids(rng, 30, 400)  # rows 30.. stay untouched
    # descent on the negated draws takes the ascent steps on the draws, so
    # every case is the one this test checked when the steps ascended
    grads = -rng.normal(size=(len(ids), *row_shape))
    ref_value, ref_accum = _reference_rows_step(
        value, accum, ids, grads, optimizer, 0.3)
    before_value, before_accum = value.copy(), accum.copy()

    step_rows(value, ids, grads, 0.3, accum if optimizer == "adagrad" else None)

    assert value.dtype == dtype and accum.dtype == dtype
    rtol = ROW_STEP_RTOL[dtype]
    np.testing.assert_allclose(value, ref_value, rtol=rtol)
    np.testing.assert_allclose(accum, ref_accum, rtol=rtol)
    untouched = np.setdiff1d(np.arange(n_rows), ids)
    assert len(untouched) == n_rows - 30
    assert np.array_equal(value[untouched], before_value[untouched])
    assert np.array_equal(accum[untouched], before_accum[untouched])
    if optimizer == "sgd":
        assert np.array_equal(accum, before_accum)


@pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
def test_apply_rows_ascent_empty_ids_change_nothing(optimizer):
    value = np.random.default_rng(13).normal(size=(6, 3))
    accum = np.ones((6, 3))
    before = value.copy()
    step_rows(value, np.empty(0, dtype=np.int64), np.empty((0, 3)), 0.1,
              accum if optimizer == "adagrad" else None)
    assert np.array_equal(value, before)
    assert np.array_equal(accum, np.ones((6, 3)))
