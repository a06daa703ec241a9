import math

import numpy as np
import pytest

from conftest import dense_counts, documents, score_matrix
from embkit.corpus import (CorpusStream, Vocabulary, build_vocabulary,
                           iter_windows)
from embkit.embeddings import EmbeddingModel
from embkit import evaluate, matrixfact
from embkit.errors import DataError, NumericError
from embkit.matrixfact import (CooccurrenceMatrix, _fit_cells, _fit_run,
                               _glove_objective, _init_factors, _levels,
                               count_cooccurrences, factorize_log_counts,
                               glove_weight, skipgram_equivalence_report,
                               train_glove)
from embkit.optim import ADAGRAD_EPS, softmax, step_distinct_rows


def matrix_of(vocab, entries):
    """A matrix holding the {(i, j): x} cells of `entries`."""
    keys = sorted(entries)
    return CooccurrenceMatrix(vocab, [i for i, _ in keys],
                              [j for _, j in keys], [entries[k] for k in keys])


def cells_of(matrix):
    """The matrix's cells as {(i, j): x}."""
    rows, cols, vals = matrix.nonzero_arrays()
    return dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))


def brute_force_counts(docs, vocab, win):
    """Independent two-loop counting oracle."""
    half = (win - 1) // 2
    counts = {}
    for doc in docs:
        ids = [vocab.token_to_id[t] for t in doc if t in vocab.token_to_id]
        for i, target in enumerate(ids):
            for j in range(max(0, i - half), min(len(ids), i + half + 1)):
                if j != i:
                    counts[(target, ids[j])] = counts.get((target, ids[j]), 0) + 1
    return counts


def test_count_cooccurrences_small_example():
    corpus = CorpusStream([["a", "b", "a"]])
    vocab = build_vocabulary(corpus)
    a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
    matrix = count_cooccurrences(corpus, vocab, 3)
    assert cells_of(matrix) == {(a, b): 2, (b, a): 2}


def test_total_mass_conservation(toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    from embkit.corpus import iter_windows
    expected = sum(len(s.context)
                   for s in iter_windows(toy_corpus, toy_vocab, 5))
    assert float(matrix.vals.sum()) == expected


def test_counts_match_bruteforce_oracle():
    rng = np.random.default_rng(0)
    docs = [[f"t{rng.integers(30)}" for _ in range(rng.integers(3, 40))]
            for _ in range(120)]
    corpus = CorpusStream(docs)
    vocab = build_vocabulary(corpus)
    matrix = count_cooccurrences(corpus, vocab, 5)
    oracle = brute_force_counts(docs, vocab, 5)
    assert cells_of(matrix) == {k: float(v) for k, v in oracle.items()}


@pytest.mark.parametrize("block", [1, 7, 64])
def test_counts_do_not_depend_on_window_block(block, monkeypatch, toy_corpus,
                                              toy_vocab):
    monkeypatch.setattr(matrixfact, "_COUNT_BLOCK", block)
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    oracle = brute_force_counts(documents(toy_corpus), toy_vocab, 5)
    assert cells_of(matrix) == {k: float(v) for k, v in oracle.items()}


def test_counts_symmetric_under_corpus_reversal(toy_corpus, toy_vocab):
    forward = count_cooccurrences(toy_corpus, toy_vocab, 5)
    reversed_corpus = CorpusStream([list(reversed(d))
                                    for d in documents(toy_corpus)])
    backward = count_cooccurrences(reversed_corpus, toy_vocab, 5)
    assert cells_of(forward) == {(j, i): x for (i, j), x in
                                cells_of(backward).items()}


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
    matrix = matrix_of(vocab, {(0, 0): math.e})
    model, objective = train_glove(matrix, 1, epochs=200, lr=0.1)
    assert score_matrix(model)[0, 0] == pytest.approx(1.0, abs=1e-4)
    assert objective < 1e-8


def test_glove_rank1_synthetic_recovery():
    rng = np.random.default_rng(0)
    u, v = rng.normal(0, 0.8, 6), rng.normal(0, 0.8, 6)
    vocab = Vocabulary([f"w{i}" for i in range(6)], [1] * 6)
    entries = {(i, j): math.exp(u[i] * v[j])
               for i in range(6) for j in range(6)}
    matrix = matrix_of(vocab, entries)
    _, objective = train_glove(matrix, 1, epochs=800, lr=0.1)
    assert objective < 1e-6


def test_glove_objective_trend_nonincreasing():
    rng = np.random.default_rng(5)
    vocab = Vocabulary([f"w{i}" for i in range(50)], [1] * 50)
    entries = {}
    while len(entries) < 300:
        i, j = rng.integers(50, size=2)
        entries[(int(i), int(j))] = float(rng.integers(1, 40))
    matrix = matrix_of(vocab, entries)
    # same seed means run k is a prefix of run k+1
    objectives = [train_glove(matrix, 8, epochs=ep, lr=0.05, seed=3)[1]
                  for ep in (1, 2, 4, 8)]
    for prev, nxt in zip(objectives, objectives[1:]):
        assert nxt <= prev * 1.01


def test_factorize_all_ones_reaches_zero():
    vocab = Vocabulary([f"w{i}" for i in range(6)], [1] * 6)
    matrix = matrix_of(vocab, {(i, j): 1.0 for i in range(6) for j in range(6)})
    _, objective = factorize_log_counts(matrix, 2, "raw_log", epochs=400, lr=0.1)
    assert objective < 1e-8


def test_factorize_capacity_exact_fit():
    rng = np.random.default_rng(1)
    vocab = Vocabulary([f"v{i}" for i in range(5)], [1] * 5)
    entries = {(i, j): float(rng.integers(1, 50))
               for i in range(5) for j in range(5)}
    matrix = matrix_of(vocab, entries)
    _, objective = factorize_log_counts(matrix, 6, "raw_log",
                                        epochs=1500, lr=0.2)
    assert objective < 1e-6


def test_factorize_conditional_recovers_conditionals():
    rng = np.random.default_rng(2)
    vocab = Vocabulary([f"u{i}" for i in range(10)], [1] * 10)
    entries = {(i, j): float(rng.integers(1, 100))
               for i in range(10) for j in range(10)}
    matrix = matrix_of(vocab, entries)
    model, _ = factorize_log_counts(matrix, 12, "conditional_log",
                                    epochs=2500, lr=0.2)
    dense = dense_counts(matrix)
    target = np.log(dense / dense.sum(axis=0))
    assert np.max(np.abs(score_matrix(model) - target)) < 1e-3


def test_factorize_rejects_empty():
    vocab = Vocabulary(["a", "b"], [1, 1])
    with pytest.raises(DataError):
        factorize_log_counts(CooccurrenceMatrix(vocab), 2)


def test_empirical_conditionals_normalized(toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    dense = dense_counts(matrix)
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
    dense = dense_counts(matrix)
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


def dense_equivalence_report(matrix, model):
    """The report over dense |V| x |V| counts, scores and softmax, the
    model's first |V| rows standing for the matrix vocabulary: the oracle
    of the report computed from the cells."""
    v = len(matrix.vocab)
    dense = dense_counts(matrix)
    col_sums = dense.sum(axis=0)
    scores = model.e_prime[:v] @ model.e[:v].T  # scores[i, j]
    model_cond = softmax(scores.T).T  # softmax over i per column j
    kls, skipped = [], []
    for j in range(v):
        if col_sums[j] <= 0:
            skipped.append(j)
            continue
        emp = dense[:, j] / col_sums[j]
        nz = emp > 0
        kls.append(float(np.sum(emp[nz] * np.log(emp[nz] / model_cond[nz, j]))))
    return {"mean_kl": float(np.mean(kls)), "max_kl": float(np.max(kls)),
            "columns": len(kls), "skipped_columns": skipped}


def _random_skipgram(vocab, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    model = EmbeddingModel.create("skipgram", vocab, 5, 3, rng=rng)
    model.e[...] = rng.normal(size=model.e.shape)
    model.e_prime[...] = scale * rng.normal(size=model.e_prime.shape)
    return model


def _assert_reports_agree(report, reference):
    assert report["mean_kl"] == pytest.approx(reference["mean_kl"], rel=1e-9)
    assert report["max_kl"] == pytest.approx(reference["max_kl"], rel=1e-9)
    assert report["columns"] == reference["columns"]
    assert report["skipped_columns"] == reference["skipped_columns"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("budget", [8, 24, 2 ** 20])  # scores per block
def test_equivalence_cells_match_dense_reference(monkeypatch, toy_corpus,
                                                 toy_vocab, seed, budget):
    # |V| = 8: one column per block, blocks of 3 with a short last one, and
    # one block for every column
    monkeypatch.setattr(evaluate, "_BLOCK_SCORES", budget)
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    model = _random_skipgram(toy_vocab, seed)
    _assert_reports_agree(skipgram_equivalence_report(matrix, model),
                          dense_equivalence_report(matrix, model))


def test_equivalence_skips_zero_mass_columns(monkeypatch):
    monkeypatch.setattr(evaluate, "_BLOCK_SCORES", 12)
    vocab = Vocabulary([f"u{i}" for i in range(6)], [1] * 6)
    rng = np.random.default_rng(5)
    # columns 2 and 5 hold no cell; rows 2 and 5 do
    matrix = matrix_of(vocab, {(i, j): float(rng.integers(1, 20))
                               for i in range(6) for j in (0, 1, 3, 4)
                               if (i + j) % 3})
    model = _random_skipgram(vocab, 6)
    report = skipgram_equivalence_report(matrix, model)
    assert report["skipped_columns"] == [2, 5]
    _assert_reports_agree(report, dense_equivalence_report(matrix, model))


def test_equivalence_is_finite_where_softmax_underflows(toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    model = _random_skipgram(toy_vocab, 0, scale=4000.0)
    with np.errstate(divide="ignore"):  # the dense conditional underflows to 0
        assert dense_equivalence_report(matrix, model)["mean_kl"] == math.inf
    report = skipgram_equivalence_report(matrix, model)
    assert math.isfinite(report["max_kl"]) and report["mean_kl"] > 100


def test_equivalence_pairs_model_rows_by_token(toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    model = _random_skipgram(toy_vocab, 1)
    # the same words in reverse order, and one the matrix does not have
    tokens = toy_vocab.tokens[::-1] + ["extra"]
    other = EmbeddingModel.create("skipgram", Vocabulary(tokens, [1] * len(tokens)),
                                  5, 3, rng=np.random.default_rng(0))
    other.e[:-1], other.e_prime[:-1] = model.e[::-1], model.e_prime[::-1]
    other.e_prime[-1] = 50.0  # outside the normalizer over the matrix words
    assert (skipgram_equivalence_report(matrix, other)
            == skipgram_equivalence_report(matrix, model))


def test_equivalence_model_lacking_a_matrix_token_is_data_error(toy_corpus,
                                                               toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    tokens = [t for t in toy_vocab.tokens if t != "w3"]
    model = _random_skipgram(Vocabulary(tokens, [1] * len(tokens)), 0)
    with pytest.raises(DataError, match="^sg.bin: no row for the matrix "
                                        "token 'w3'$"):
        skipgram_equivalence_report(matrix, model, "sg.bin")


def test_matrix_save_load_round_trip(tmp_path, toy_corpus, toy_vocab):
    matrix = count_cooccurrences(toy_corpus, toy_vocab, 5)
    path = tmp_path / "cooc.tsv"
    matrix.save(path)
    loaded = CooccurrenceMatrix.load(path, toy_vocab)
    assert cells_of(loaded) == cells_of(matrix)


@pytest.mark.parametrize("win", [1, 3, 5, 7])
def test_counts_match_iter_windows(win):
    rng = np.random.default_rng(win)
    docs = [[f"t{rng.integers(25)}" for _ in range(rng.integers(1, 12))]
            for _ in range(80)]
    # one-token documents, an OOV-only one and an OOV token between two
    # in-vocabulary ones
    docs += [["t0"], ["t1", "t2"], ["oov1"], ["t3", "oov2", "t3"]]
    corpus = CorpusStream(docs)
    vocab = build_vocabulary(corpus, min_count=2)
    assert "oov1" not in vocab.token_to_id and "oov2" not in vocab.token_to_id
    expected = {}
    for sample in iter_windows(corpus, vocab, win):
        for j in sample.context:
            key = (sample.target, int(j))
            expected[key] = expected.get(key, 0.0) + 1.0
    assert cells_of(count_cooccurrences(corpus, vocab, win)) == expected


def test_nonzero_arrays_in_row_col_order(tmp_path):
    rng = np.random.default_rng(8)
    vocab = Vocabulary([f"w{i}" for i in range(30)], [1] * 30)
    cells = {(int(i), int(j)): float(x) for i, j, x in
             rng.integers(1, 30, size=(200, 3))}
    keys = list(cells)
    rng.shuffle(keys)
    path = tmp_path / "cooc.tsv"
    path.write_text("".join(f"{i}\t{j}\t{cells[i, j]:g}\n" for i, j in keys),
                    encoding="utf-8")
    rows, cols, vals = CooccurrenceMatrix.load(path, vocab).nonzero_arrays()
    assert list(zip(rows.tolist(), cols.tolist())) == sorted(cells)
    assert vals.tolist() == [cells[k] for k in sorted(cells)]


def test_matrix_save_is_lossless(tmp_path):
    vocab = Vocabulary(["a", "b"], [1, 1])
    entries = {(0, 1): 1234567.0, (1, 0): 0.1, (1, 1): 3.0}
    path = tmp_path / "cooc.tsv"
    matrix_of(vocab, entries).save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert "0\t1\t1234567" in lines and "1\t1\t3" in lines
    assert cells_of(CooccurrenceMatrix.load(path, vocab)) == entries


def test_load_one_pass_equals_the_line_loop(tmp_path):
    vocab = Vocabulary([f"w{i}" for i in range(5)], [1] * 5)
    text = ("\n3\t1\t0.1\n0\t4\t1e-3\n\n\n1\t1\t1234567\n0\t0\t"
            "2.5000000000000004\n4\t0\t7")  # blank lines, no final newline
    path = tmp_path / "cooc.tsv"
    path.write_text(text, encoding="utf-8")
    loop = (np.array([0, 0, 1, 3, 4]), np.array([0, 4, 1, 1, 0]),
            np.array([2.5000000000000004, 1e-3, 1234567.0, 0.1, 7.0]))
    loaded = CooccurrenceMatrix.load(path, vocab).nonzero_arrays()
    assert all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(loaded, loop))
    # a line of spaces is blank
    spaced = text.replace("\n\n\n", "\n \t\n\n")
    path.write_text(spaced, encoding="utf-8")
    loaded = CooccurrenceMatrix.load(path, vocab).nonzero_arrays()
    assert all(np.array_equal(a, b) for a, b in zip(loaded, loop))
    # spaces for tabs: the fields count right, but the line is refused
    bad = text.replace("0\t4\t1e-3", "0 4 1e-3")
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(DataError, match=r"cooc.tsv:3: expected 'i<TAB>j<TAB>x'"):
        CooccurrenceMatrix.load(path, vocab)


def test_load_names_the_first_bad_line(tmp_path):
    vocab = Vocabulary(["a", "b"], [1, 1])
    path = tmp_path / "cooc.tsv"
    path.write_text("0\t1\t3\n1\t1\t2\n0\t1\t5\n7\t1\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"cooc.tsv:3: cell \(0, 1\) appears twice"):
        CooccurrenceMatrix.load(path, vocab)


def _conflict_free_runs(rows: np.ndarray, cols: np.ndarray) -> list:
    """Bounds [0, ..., len] of the greedy maximal runs of the sequence of
    (row, col) cells in which no row and no column occurs twice."""
    last = np.maximum(_previous_occurrence(rows), _previous_occurrence(cols))
    bounds = [0]
    for k, prev in enumerate(last.tolist()):
        if prev >= bounds[-1]:
            bounds.append(k)
    bounds.append(len(rows))
    return bounds


def _previous_occurrence(x: np.ndarray) -> np.ndarray:
    """Position of the previous equal element of `x`, or -1."""
    order = np.argsort(x, kind="stable")
    same = x[order[1:]] == x[order[:-1]]
    prev = np.full(len(x), -1)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _fit_cells_by_runs(model, rows, cols, targets, weights, epochs, lr, rng):
    """Oracle of `_fit_cells`: the same AdaGrad steps, one `_fit_run` per
    greedy conflict-free run of each epoch's shuffled order."""
    v, d = model.P.shape
    accum = np.zeros_like(model.table)
    for _ in range(epochs):
        order = rng.permutation(len(rows))
        i, j = rows[order], cols[order] + v
        t, w2 = targets[order], 2.0 * weights[order]
        bounds = _conflict_free_runs(i, j)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ids = np.concatenate((i[lo:hi], j[lo:hi]))
            _, grads = _fit_run(model.table, ids, t[lo:hi], w2[lo:hi], d)
            step_distinct_rows(model.table, *grads, lr, accum)
    return matrixfact._glove_objective(model, rows, cols, targets, weights)


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


def _zipf_matrix(seed, v=120, n_tokens=4000, win=5):
    """Co-occurrence counts of a Zipf(1.1) corpus: a few rows and columns
    hold most of the cells, as in real counts."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, v + 1) ** 1.1
    words = rng.choice(v, size=n_tokens, p=p / p.sum())
    docs = [[f"w{k}" for k in words[lo:lo + 50]]
            for lo in range(0, n_tokens, 50)]
    corpus = CorpusStream(docs)
    vocab = build_vocabulary(corpus)
    return count_cooccurrences(corpus, vocab, win)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("objective", ["glove", "raw_log", "conditional_log"])
def test_level_schedule_matches_greedy_runs_bitwise(objective, seed,
                                                    monkeypatch):
    matrix = _zipf_matrix(seed)
    rows, cols, _ = matrix.nonzero_arrays()
    assert np.bincount(rows).max() > 20 and np.bincount(cols).max() > 20

    def fit():
        if objective == "glove":
            return train_glove(matrix, 8, 3, lr=0.05, seed=seed)
        return factorize_log_counts(matrix, 8, objective, 3, lr=0.1,
                                    seed=seed)

    model, value = fit()
    monkeypatch.setattr(matrixfact, "_fit_cells", _fit_cells_by_runs)
    want, want_value = fit()
    assert value == want_value
    assert np.array_equal(model.P, want.P) and np.array_equal(model.Q, want.Q)
    if objective == "glove":
        assert np.array_equal(model.bias1, want.bias1)
        assert np.array_equal(model.bias2, want.bias2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_levels_are_conflict_free_and_rise_along_rows(seed):
    rows, cols, _ = _zipf_matrix(seed).nonzero_arrays()
    order = np.random.default_rng(seed).permutation(len(rows))
    v = int(max(rows.max(), cols.max())) + 1
    i, j = rows[order], cols[order] + v
    level = _levels(i, j, 2 * v)
    assert level.min() == 1 and len(np.unique(level)) == level.max()
    for lev in np.unique(level):
        at = level == lev
        assert len(np.unique(i[at])) == len(np.unique(j[at])) == at.sum()
    for ids in (i, j):
        for row in np.unique(ids):
            assert np.all(np.diff(level[ids == row]) > 0)
    # each cell sits just above the latest earlier cell of its row or column
    for k in range(len(level)):
        earlier = (i[:k] == i[k]) | (j[:k] == j[k])
        assert level[k] == 1 + (level[:k][earlier].max() if earlier.any() else 0)


def _reference_fit(v, d, rows, cols, targets, weights, epochs, lr, seed,
                   biases):
    """The cell-by-cell AdaGrad loop that the level-wise updates reproduce."""
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
    return matrix_of(vocab, entries)


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
        col_sums = dense_counts(matrix).sum(axis=0)
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
def test_objective_in_blocks_equals_one_product(monkeypatch, biases):
    matrix = _repeat_heavy_matrix()
    rows, cols, vals = matrix.nonzero_arrays()
    model = _init_factors(len(matrix.vocab), 6, np.random.default_rng(2), biases)
    model.table[...] = np.random.default_rng(3).normal(size=model.table.shape)
    targets, weights = np.log(vals), glove_weight(vals)
    fit = np.einsum("nd,nd->n", model.P[rows], model.Q[cols])
    if biases:
        fit = fit + model.bias1[rows] + model.bias2[cols]
    whole = float((weights * (fit - targets) ** 2).sum())
    for budget in (2 ** 20, 6 * 7):  # one block; blocks of 7 of 300 cells
        monkeypatch.setattr(evaluate, "_BLOCK_SCORES", budget)
        assert _glove_objective(model, rows, cols, targets, weights) == whole


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
    matrix = matrix_of(vocab, {(0, 1): float("nan"), (1, 0): 2.0})
    with pytest.raises(DataError):
        train_glove(matrix, 2, 1)
    with pytest.raises(DataError):
        factorize_log_counts(matrix, 2, epochs=1)
