import math

import numpy as np
import pytest

from embkit.corpus import (CorpusStream, Vocabulary, build_vocabulary,
                           iter_windows)
from embkit.embeddings import EmbeddingModel
from embkit.errors import DataError, NumericError
from embkit.matrixfact import (CooccurrenceMatrix, _conflict_free_runs,
                               _fit_cells, _init_factors, count_cooccurrences,
                               factorize_log_counts, glove_weight,
                               skipgram_equivalence_report, train_glove)
from embkit.optim import ADAGRAD_EPS


def brute_force_counts(docs, vocab, win):
    """Independent two-loop counting oracle."""
    half = (win - 1) // 2
    counts = {}
    for doc in docs:
        ids = [vocab.id_of(t) for t in doc if t in vocab]
        for i, target in enumerate(ids):
            for j in range(max(0, i - half), min(len(ids), i + half + 1)):
                if j != i:
                    counts[(target, ids[j])] = counts.get((target, ids[j]), 0) + 1
    return counts


def test_count_cooccurrences_small_example():
    corpus = CorpusStream([["a", "b", "a"]])
    vocab = build_vocabulary(corpus.all_tokens())
    a, b = vocab.id_of("a"), vocab.id_of("b")
    matrix = count_cooccurrences(corpus, vocab, 3)
    assert matrix.get(a, b) == 2
    assert matrix.get(b, a) == 2
    assert matrix.get(a, a) == 0 and matrix.get(b, b) == 0


def test_total_mass_conservation(toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    from embkit.corpus import iter_windows
    expected = sum(len(s.context)
                   for s in iter_windows(toy_corpus, toy_vocab, 5))
    assert matrix.total_mass() == expected


def test_counts_match_bruteforce_oracle():
    rng = np.random.default_rng(0)
    docs = [[f"t{rng.integers(30)}" for _ in range(rng.integers(3, 40))]
            for _ in range(120)]
    corpus = CorpusStream(docs)
    vocab = build_vocabulary(corpus.all_tokens())
    matrix = count_cooccurrences(corpus, vocab, 5)
    oracle = brute_force_counts(docs, vocab, 5)
    assert matrix.entries == {k: float(v) for k, v in oracle.items()}


def test_counts_symmetric_under_corpus_reversal(toy_corpus, toy_vocab):
    forward = count_cooccurrences(toy_corpus, toy_vocab, 5)
    reversed_corpus = CorpusStream([list(reversed(d))
                                    for d in toy_corpus.documents])
    backward = count_cooccurrences(reversed_corpus, toy_vocab, 5)
    assert forward.entries == {(j, i): x for (i, j), x in backward.entries.items()}


def test_glove_weight_saturates_at_xmax():
    assert glove_weight(100.0, 100.0, 0.75) == 1.0
    assert glove_weight(250.0, 100.0, 0.75) == 1.0


def test_glove_weight_power_law():
    assert glove_weight(100.0 / 16, 100.0, 0.75) == pytest.approx(0.125)
    assert glove_weight(50.0, 100.0, 1.0) == pytest.approx(0.5)


def test_glove_weight_rejects_nonpositive():
    with pytest.raises(DataError):
        glove_weight(0.0)


def test_glove_weight_monotone_bounded():
    xs = np.linspace(0.5, 300, 100)
    ws = [glove_weight(float(x)) for x in xs]
    assert all(0 < w <= 1 for w in ws)
    assert all(b >= a - 1e-12 for a, b in zip(ws, ws[1:]))


def test_glove_single_cell_exact_fit():
    vocab = Vocabulary(["a"], [1])
    matrix = CooccurrenceMatrix(vocab, 3, {(0, 0): math.e})
    model, objective = train_glove(matrix, 1, epochs=200, lr=0.1)
    assert model.score(0, 0) == pytest.approx(1.0, abs=1e-4)
    assert objective < 1e-8


def test_glove_rank1_synthetic_recovery():
    rng = np.random.default_rng(0)
    u, v = rng.normal(0, 0.8, 6), rng.normal(0, 0.8, 6)
    vocab = Vocabulary([f"w{i}" for i in range(6)], [1] * 6)
    entries = {(i, j): math.exp(u[i] * v[j])
               for i in range(6) for j in range(6)}
    matrix = CooccurrenceMatrix(vocab, 3, entries)
    _, objective = train_glove(matrix, 1, epochs=800, lr=0.1)
    assert objective < 1e-6


def test_glove_objective_trend_nonincreasing():
    rng = np.random.default_rng(5)
    vocab = Vocabulary([f"w{i}" for i in range(50)], [1] * 50)
    entries = {}
    while len(entries) < 300:
        i, j = rng.integers(50, size=2)
        entries[(int(i), int(j))] = float(rng.integers(1, 40))
    matrix = CooccurrenceMatrix(vocab, 5, entries)
    # same seed means run k is a prefix of run k+1
    objectives = [train_glove(matrix, 8, epochs=ep, lr=0.05, seed=3)[1]
                  for ep in (1, 2, 4, 8)]
    for prev, nxt in zip(objectives, objectives[1:]):
        assert nxt <= prev * 1.01


def test_factorize_all_ones_reaches_zero():
    vocab = Vocabulary([f"w{i}" for i in range(6)], [1] * 6)
    matrix = CooccurrenceMatrix(vocab, 3,
                                {(i, j): 1.0 for i in range(6) for j in range(6)})
    _, objective = factorize_log_counts(matrix, 2, "raw_log", epochs=400, lr=0.1)
    assert objective < 1e-8


def test_factorize_capacity_exact_fit():
    rng = np.random.default_rng(1)
    vocab = Vocabulary([f"v{i}" for i in range(5)], [1] * 5)
    entries = {(i, j): float(rng.integers(1, 50))
               for i in range(5) for j in range(5)}
    matrix = CooccurrenceMatrix(vocab, 3, entries)
    _, objective = factorize_log_counts(matrix, 6, "raw_log",
                                        epochs=1500, lr=0.2)
    assert objective < 1e-6


def test_factorize_conditional_recovers_conditionals():
    rng = np.random.default_rng(2)
    vocab = Vocabulary([f"u{i}" for i in range(10)], [1] * 10)
    entries = {(i, j): float(rng.integers(1, 100))
               for i in range(10) for j in range(10)}
    matrix = CooccurrenceMatrix(vocab, 5, entries)
    model, _ = factorize_log_counts(matrix, 12, "conditional_log",
                                    epochs=2500, lr=0.2)
    dense = matrix.to_dense()
    target = np.log(dense / dense.sum(axis=0))
    assert np.max(np.abs(model.score_matrix() - target)) < 1e-3


def test_factorize_rejects_empty():
    vocab = Vocabulary(["a", "b"], [1, 1])
    with pytest.raises(DataError):
        factorize_log_counts(CooccurrenceMatrix(vocab, 3), 2)


def test_empirical_conditionals_normalized(toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    dense = matrix.to_dense()
    sums = dense.sum(axis=0)
    cond = dense[:, sums > 0] / sums[sums > 0]
    assert cond.sum(axis=0) == pytest.approx(np.ones(cond.shape[1]), abs=1e-12)


def _matrix_and_model(scores, vocab):
    """Model whose e, e_prime produce exactly the given score matrix."""
    v = len(vocab)
    model = EmbeddingModel.create("skipgram", vocab, v, 3,
                                  rng=np.random.default_rng(0))
    model.e[...] = np.eye(v)
    model.e_prime[...] = scores
    return model


def test_equivalence_exact_construction_gives_zero_kl(toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    dense = matrix.to_dense()
    dense[dense == 0] = 1e-9  # keep logs finite; mass negligible
    shifts = np.random.default_rng(1).normal(size=len(toy_vocab))
    scores = np.log(dense) + shifts[None, :]
    model = _matrix_and_model(scores, toy_vocab)
    report = skipgram_equivalence_report(matrix, model)
    assert report["mean_kl"] < 1e-9
    assert report["max_kl"] < 1e-9


def test_equivalence_random_model_positive_kl(toy_corpus, toy_vocab):
    scores = np.random.default_rng(3).normal(size=(len(toy_vocab),) * 2)
    model = _matrix_and_model(scores, toy_vocab)
    report = skipgram_equivalence_report(matrix=count_cooccurrences(
        toy_corpus, toy_vocab, 5), model=model)
    assert report["mean_kl"] > 0.01


def test_matrix_save_load_round_trip(tmp_path, toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    path = tmp_path / "cooc.tsv"
    matrix.save(path)
    loaded = CooccurrenceMatrix.load(path, toy_vocab, 5)
    assert loaded.entries == matrix.entries


@pytest.mark.parametrize("win", [1, 3, 5, 7])
def test_counts_match_iter_windows(win):
    rng = np.random.default_rng(win)
    docs = [[f"t{rng.integers(25)}" for _ in range(rng.integers(1, 12))]
            for _ in range(80)]
    # one-token documents, an OOV-only one and an OOV token between two
    # in-vocabulary ones
    docs += [["t0"], ["t1", "t2"], ["oov1"], ["t3", "oov2", "t3"]]
    corpus = CorpusStream(docs)
    vocab = build_vocabulary(corpus.all_tokens(), min_count=2)
    assert "oov1" not in vocab and "oov2" not in vocab
    expected = {}
    for sample in iter_windows(corpus, vocab, win):
        for j in sample.context:
            key = (sample.target, int(j))
            expected[key] = expected.get(key, 0.0) + 1.0
    assert count_cooccurrences(corpus, vocab, win).entries == expected


def test_nonzero_arrays_in_row_col_order():
    rng = np.random.default_rng(8)
    vocab = Vocabulary([f"w{i}" for i in range(30)], [1] * 30)
    cells = {(int(i), int(j)): float(x) for i, j, x in
             rng.integers(1, 30, size=(200, 3))}
    keys = list(cells)
    rng.shuffle(keys)
    matrix = CooccurrenceMatrix(vocab, 3, {k: cells[k] for k in keys})
    rows, cols, vals = matrix.nonzero_arrays()
    assert list(zip(rows.tolist(), cols.tolist())) == sorted(cells)
    assert vals.tolist() == [cells[k] for k in sorted(cells)]


def test_matrix_save_is_lossless(tmp_path):
    vocab = Vocabulary(["a", "b"], [1, 1])
    entries = {(0, 1): 1234567.0, (1, 0): 0.1, (1, 1): 3.0}
    path = tmp_path / "cooc.tsv"
    CooccurrenceMatrix(vocab, 3, entries).save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert "0\t1\t1234567" in lines and "1\t1\t3" in lines
    assert CooccurrenceMatrix.load(path, vocab, 3).entries == entries


def test_conflict_free_runs_are_maximal():
    rng = np.random.default_rng(4)
    rows, cols = rng.integers(6, size=200), rng.integers(9, size=200)
    bounds = _conflict_free_runs(rows, cols)
    assert bounds[0] == 0 and bounds[-1] == 200
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert hi > lo
        assert len(set(rows[lo:hi])) == len(set(cols[lo:hi])) == hi - lo
        if hi < 200:  # the next cell repeats a row or a column of the run
            assert rows[hi] in rows[lo:hi] or cols[hi] in cols[lo:hi]


def _reference_fit(v, d, rows, cols, targets, weights, epochs, lr, seed,
                   biases):
    """The cell-by-cell AdaGrad loop that the run-wise updates reproduce."""
    rng = np.random.default_rng(seed)
    scale = 0.5 / d
    P = rng.uniform(-scale, scale, size=(v, d))
    Q = rng.uniform(-scale, scale, size=(v, d))
    b1, b2 = np.zeros(v), np.zeros(v)
    aP, aQ, ab1, ab2 = np.zeros((v, d)), np.zeros((v, d)), np.zeros(v), np.zeros(v)
    for _ in range(epochs):
        for n in rng.permutation(len(rows)):
            i, j = rows[n], cols[n]
            fit = P[i] @ Q[j] + (b1[i] + b2[j] if biases else 0.0)
            coef = 2.0 * weights[n] * (fit - targets[n])
            gp, gq = coef * Q[j], coef * P[i]
            aP[i] += gp * gp
            P[i] -= lr * gp / (np.sqrt(aP[i]) + ADAGRAD_EPS)
            aQ[j] += gq * gq
            Q[j] -= lr * gq / (np.sqrt(aQ[j]) + ADAGRAD_EPS)
            if biases:
                ab1[i] += coef * coef
                b1[i] -= lr * coef / (math.sqrt(ab1[i]) + ADAGRAD_EPS)
                ab2[j] += coef * coef
                b2[j] -= lr * coef / (math.sqrt(ab2[j]) + ADAGRAD_EPS)
    fit = np.einsum("nd,nd->n", P[rows], Q[cols]) + b1[rows] + b2[cols]
    return P, Q, b1, b2, float((weights * (fit - targets) ** 2).sum())


def _repeat_heavy_matrix():
    """300 cells, most of them in a few rows and a few columns."""
    rng = np.random.default_rng(11)
    v = 40
    vocab = Vocabulary([f"w{i}" for i in range(v)], [1] * v)
    entries = {}
    while len(entries) < 300:
        i = rng.integers(4) if rng.random() < 0.5 else rng.integers(v)
        j = rng.integers(5) if rng.random() < 0.5 else rng.integers(v)
        entries[(int(i), int(j))] = float(rng.integers(1, 250))
    return CooccurrenceMatrix(vocab, 5, entries)


@pytest.mark.parametrize("objective", ["glove", "raw_log", "conditional_log"])
def test_run_updates_match_per_cell_reference(objective):
    matrix = _repeat_heavy_matrix()
    rows, cols, vals = matrix.nonzero_arrays()
    if objective == "glove":
        model, value = train_glove(matrix, 6, 3, lr=0.05, seed=7)
        weights = np.array([min(x / 100.0, 1.0) ** 0.75 for x in vals])
        targets = np.log(vals)
    else:
        model, value = factorize_log_counts(matrix, 6, objective, 3,
                                            lr=0.1, seed=7)
        weights = np.ones(len(vals))
        col_sums = matrix.to_dense().sum(axis=0)
        targets = np.log(vals if objective == "raw_log"
                         else vals / col_sums[cols])
    P, Q, b1, b2, ref_value = _reference_fit(
        len(matrix.vocab), 6, rows, cols, targets, weights, 3,
        0.05 if objective == "glove" else 0.1, 7, objective == "glove")
    assert np.max(np.abs(model.P - P)) < 1e-9
    assert np.max(np.abs(model.Q - Q)) < 1e-9
    if objective == "glove":
        assert np.max(np.abs(model.bias1 - b1)) < 1e-9
        assert np.max(np.abs(model.bias2 - b2)) < 1e-9
    else:
        assert model.bias1 is None and model.bias2 is None
    assert value == pytest.approx(ref_value, rel=1e-9, abs=1e-9)
    assert np.max(np.abs(model.P)) > 0.1  # the fit moved the tables


@pytest.mark.parametrize("biases", [True, False])
def test_divergence_stops_before_tables_turn_non_finite(biases):
    matrix = _repeat_heavy_matrix()
    rows, cols, vals = matrix.nonzero_arrays()
    rng = np.random.default_rng(0)
    model = _init_factors(len(matrix.vocab), 4, rng, biases)
    with pytest.raises(NumericError):
        _fit_cells(model, rows, cols, np.log(vals), np.ones(len(vals)),
                   3, 1e200, rng)
    tables = [model.P, model.Q]
    if biases:
        tables += [model.bias1, model.bias2]
    assert all(np.isfinite(t).all() for t in tables)
    assert np.max(np.abs(model.P)) > 1e100  # it did diverge before stopping


def test_glove_rejects_nan_counts():
    vocab = Vocabulary(["a", "b"], [1, 1])
    matrix = CooccurrenceMatrix(vocab, 3, {(0, 1): float("nan"), (1, 0): 2.0})
    with pytest.raises(DataError):
        train_glove(matrix, 2, 1)
    with pytest.raises(DataError):
        factorize_log_counts(matrix, 2, epochs=1)
