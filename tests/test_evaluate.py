import os

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine, gradient_check
from embkit import evaluate, optim
from embkit.errors import DataError
from embkit.evaluate import (AnalogyQuestion, ChoiceQuestion,
                             SimilarityPair, _block_rows,
                             _candidate_winner, _cosine_blocks,
                             avg_document_vector, eval_analogy,
                             eval_choice, eval_similarity, load_analogies,
                             logistic_loss_grads, nearest_neighbors, pearson,
                             pgr, pgr_percent, train_logistic_classifier)
from embkit.io_formats import EmbeddingTable


def table_from(tokens, rows):
    return EmbeddingTable(tokens, np.asarray(rows, dtype=float))


def test_cosine_identity_and_orthogonal():
    unit = table_from(["v", "x", "y"],
                      [[1.0, 2.0, -1.0], [1, 0, 0], [0, 1, 0]]).unit_vectors()
    assert unit[0] @ unit[0] == pytest.approx(1.0)
    assert unit[1] @ unit[2] == pytest.approx(0.0)


def test_cosine_matches_hand_arithmetic():
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=6), rng.normal(size=6)
    byhand = float(u @ v) / (np.sqrt(u @ u) * np.sqrt(v @ v))
    unit = table_from(["u", "v"], [u, v]).unit_vectors()
    assert unit[0] @ unit[1] == pytest.approx(byhand, abs=1e-12)
    assert cosine(u, v) == pytest.approx(byhand, abs=1e-12)


def test_eval_similarity_zero_row_scores_zero():
    table = table_from(["a", "b", "c", "d", "z"],
                       [[1, 0], [1, 0.2], [1, 0.5], [0, 1], [0, 0]])
    pairs = [SimilarityPair("a", "b", 9.0), SimilarityPair("a", "c", 8.0),
             SimilarityPair("a", "z", 3.0), SimilarityPair("a", "d", 1.0)]
    want = pearson([9.0, 8.0, 3.0, 1.0],
                   [cosine([1, 0], [1, 0.2]), cosine([1, 0], [1, 0.5]), 0.0, 0.0])
    result = eval_similarity(table, pairs)
    assert result["pearson"] == pytest.approx(want, abs=1e-12)
    assert result["covered_pairs"] == 4


def test_eval_choice_zero_query_counts_wrong():
    table = table_from(["q", "a", "b"], [[0, 0], [1, 0], [0, 1]])
    # every option scores 0 against a zero query, so argmax would say 0
    q = ChoiceQuestion("q", ("a", "b", "a", "b"), 0)
    assert eval_choice(table, [q]) == 0.0


def test_eval_choice_all_oov_options_count_wrong():
    table = table_from(["q"], [[1.0, 0.0]])
    q = ChoiceQuestion("q", ("m1", "m2", "m3", "m4"), 0)
    assert eval_choice(table, [q]) == 0.0


def test_eval_choice_zero_option_scores_zero():
    table = table_from(["q", "neg", "z"], [[1, 0], [-1, 0.1], [0, 0]])
    q = ChoiceQuestion("q", ("neg", "z", "x", "neg"), 1)
    assert eval_choice(table, [q]) == 1.0


def test_pearson_affine():
    x = [1.0, 2.0, 5.0, 7.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)


def test_pearson_matches_scipy():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=100), rng.normal(size=100)
    assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0],
                                          abs=1e-10)


def test_pearson_zero_variance_errors():
    with pytest.raises(DataError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


@given(a=st.floats(0.01, 100), b=st.floats(-100, 100),
       c=st.floats(0.01, 100), d=st.floats(-100, 100))
def test_pearson_invariant_under_positive_affine(a, b, c, d):
    x = np.array([0.5, 1.0, -2.0, 3.5, 0.1])
    y = np.array([1.5, -0.7, 2.2, 0.4, -1.1])
    base = pearson(x, y)
    assert pearson(a * x + b, c * y + d) == pytest.approx(base, abs=1e-8)


def test_eval_similarity_monotone_linear_construction():
    # build vectors whose cosines equal the human scores after an affine map
    pairs = [SimilarityPair("a", "b", 6.81), SimilarityPair("c", "d", 0.31),
             SimilarityPair("e", "f", 3.5)]
    tokens, rows = [], []
    for k, pair in enumerate(pairs):
        angle = np.arccos(pair.score / 10.0)
        tokens += [pair.word_a, pair.word_b]
        rows += [[1.0, 0.0], [np.cos(angle), np.sin(angle)]]
        # rotate each pair into its own plane? cosine only needs the two rows
    table = table_from(tokens, rows)
    result = eval_similarity(table, pairs)
    assert result["pearson"] == pytest.approx(1.0, abs=1e-9)
    assert result["covered_pairs"] == 3 and result["total_pairs"] == 3


def test_eval_similarity_skips_oov_pairs():
    table = table_from(["a", "b", "c", "d"],
                       [[1, 0], [0.9, 0.1], [0, 1], [1, 1]])
    pairs = [SimilarityPair("a", "b", 5.0), SimilarityPair("a", "zz", 9.0),
             SimilarityPair("c", "d", 1.0)]
    result = eval_similarity(table, pairs)
    assert result["covered_pairs"] == 2
    assert result["total_pairs"] == 3


def test_eval_similarity_all_oov_errors():
    table = table_from(["x"], [[1.0, 0.0]])
    with pytest.raises(DataError):
        eval_similarity(table, [SimilarityPair("a", "b", 1.0)])


def test_eval_choice_paper_example_shape():
    # "levied" -> "imposed" among four options
    table = table_from(
        ["levied", "imposed", "believed", "requested", "correlated"],
        [[1, 0], [0.9, 0.1], [0, 1], [-1, 0], [0.1, -0.9]])
    q = ChoiceQuestion("levied",
                       ("imposed", "believed", "requested", "correlated"), 0)
    assert eval_choice(table, [q]) == 1.0


def test_eval_choice_oov_query_counts_wrong():
    table = table_from(["a", "b", "c", "d", "e"],
                       [[1, 0]] * 5)
    q = ChoiceQuestion("zz", ("a", "b", "c", "d"), 0)
    assert eval_choice(table, [q]) == 0.0


def test_eval_choice_oov_option_scores_minus_inf():
    table = table_from(["q", "right"], [[1, 0], [1, 0.01]])
    q = ChoiceQuestion("q", ("miss1", "right", "miss2", "miss3"), 1)
    assert eval_choice(table, [q]) == 1.0


def test_eval_choice_tie_breaks_to_lowest_index():
    table = table_from(["q", "o1", "o2"], [[1, 0], [2, 0], [2, 0]])
    same = ChoiceQuestion("q", ("o1", "o2", "o1", "o2"), 0)
    assert eval_choice(table, [same]) == 1.0


def test_eval_choice_matches_bruteforce():
    rng = np.random.default_rng(3)
    tokens = [f"t{i}" for i in range(30)]
    table = table_from(tokens, rng.normal(size=(30, 8)))
    questions = []
    for _ in range(40):
        ids = rng.choice(30, size=5, replace=False)
        opts = tuple(tokens[i] for i in ids[1:])
        sims = [cosine(table.vectors[ids[0]], table.vectors[i])
                for i in ids[1:]]
        questions.append(ChoiceQuestion(tokens[ids[0]], opts,
                                        int(np.argmax(sims))))
    assert eval_choice(table, questions) == 1.0


def test_eval_analogy_parallelogram_construction():
    # e(b) - e(a) = e(expected) - e(c), exactly
    a, b, c = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    expected = c + (b - a)
    table = table_from(["a", "b", "c", "d", "noise"],
                       [a, b, c, expected, [-1.0, -1.0]])
    result = eval_analogy(table, [AnalogyQuestion("a", "b", "c", "d")])
    assert result["accuracy"] == 1.0


def test_eval_analogy_skips_oov():
    table = table_from(["a", "b", "c", "d"], np.eye(4))
    qs = [AnalogyQuestion("a", "b", "c", "zz"),
          AnalogyQuestion("zz", "b", "c", "d")]
    result = eval_analogy(table, qs)
    assert result["skipped"] == 2 and result["answered"] == 0


def test_eval_analogy_matches_bruteforce():
    rng = np.random.default_rng(4)
    tokens = [f"t{i}" for i in range(12)]
    table = table_from(tokens, rng.normal(size=(12, 5)))
    questions = [AnalogyQuestion(*[tokens[i] for i in
                                   rng.choice(12, 4, replace=False)])
                 for _ in range(30)]
    hits = 0
    for q in questions:
        ia, ib, ic = (table.token_to_id[w] for w in (q.a, q.b, q.c))
        query = table.vectors[ib] - table.vectors[ia] + table.vectors[ic]
        best, best_sim = None, -np.inf
        for cand in range(12):
            if cand in (ia, ib, ic):
                continue
            sim = cosine(table.vectors[cand], query)
            if sim > best_sim:
                best, best_sim = cand, sim
        hits += int(tokens[best] == q.expected)
    result = eval_analogy(table, questions)
    assert result["accuracy"] == pytest.approx(hits / len(questions))


def test_eval_analogy_scale_invariant():
    rng = np.random.default_rng(5)
    tokens = [f"t{i}" for i in range(10)]
    vectors = rng.normal(size=(10, 4))
    questions = [AnalogyQuestion(*[tokens[i] for i in
                                   rng.choice(10, 4, replace=False)])
                 for _ in range(20)]
    base = eval_analogy(table_from(tokens, vectors), questions)
    scaled = eval_analogy(table_from(tokens, 7.3 * vectors), questions)
    assert base["accuracy"] == scaled["accuracy"]


def oracle_guess(table, q):
    """The per-question 3CosAdd loop, one matrix-vector product per
    question: the guessed id, or None for a skipped question."""
    ids = [table.token_to_id.get(w) for w in (q.a, q.b, q.c, q.expected)]
    if any(i is None for i in ids):
        return None
    ia, ib, ic, _ = ids
    query = table.vectors[ib] - table.vectors[ia] + table.vectors[ic]
    norm = np.linalg.norm(query)
    if norm == 0.0:
        return None
    sims = table.unit_vectors() @ (query / norm)
    sims[[ia, ib, ic]] = -np.inf
    return int(np.argmax(sims))


def analogy_oracle(table, questions):
    answered = correct = skipped = 0
    per_category = {}
    for q in questions:
        guess = oracle_guess(table, q)
        if guess is None:
            skipped += 1
            continue
        hit = table.tokens[guess] == q.expected
        answered += 1
        correct += int(hit)
        cat = per_category.setdefault(q.category, [0, 0])
        cat[0] += int(hit)
        cat[1] += 1
    return {
        "accuracy": correct / answered if answered else 0.0,
        "answered": answered,
        "skipped": skipped,
        "per_category": {k: c / n for k, (c, n) in per_category.items()},
    }


def analogy_at_thread_counts(monkeypatch, table, questions, reference=None):
    """eval_analogy's result with 1 and with 3 threads, forced through the
    CPU count and the BLAS pin; the two must agree, every block must be
    screened exactly once, and every guess must match the reference's,
    `reference(table, questions)` (by default the oracle's). Also
    returns the thread counts used and the settling counts, equal on both
    thread counts: "candidates", the rows settled by the float64 candidate
    step, "blocks", the rows it left to the block step, and
    "float64_blocks", the blocks that step computed."""
    calls, starts, counts, settled = [], [], {}, []

    def map_spy(fn, items, threads):
        calls.append(threads)
        return optim.map_threads(fn, items, threads)

    def blocks_spy(unit, *args):
        for rows, scores in _cosine_blocks(unit, *args):
            if scores.dtype == np.float32:
                starts.append(rows.start)
            else:
                assert scores.dtype == np.float64
                counts["float64_blocks"] += 1
            yield rows, scores

    def winner_spy(*args):
        guess = _candidate_winner(*args)
        counts["blocks" if guess < 0 else "candidates"] += 1
        return guess

    if reference is None:
        reference = lambda table, qs: [oracle_guess(table, q) for q in qs]
    monkeypatch.setattr(evaluate, "map_threads", map_spy)
    monkeypatch.setattr(evaluate, "_cosine_blocks", blocks_spy)
    monkeypatch.setattr(evaluate, "_candidate_winner", winner_spy)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    results = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        starts.clear()
        counts.update(candidates=0, blocks=0, float64_blocks=0)
        results.append(eval_analogy(table, questions))
        settled.append(dict(counts))
        assert sorted(starts) == list(range(0, results[-1]["answered"],
                                            _block_rows(len(table))))
        # every guess the reference's: a question asking for it is a hit
        guessed = [q._replace(expected=table.tokens[g], category="")
                   for q, g in zip(questions, reference(table, questions))
                   if g is not None]
        assert eval_analogy(table, guessed)["accuracy"] == (1.0 if guessed
                                                            else 0.0)
    assert results[0] == results[1]
    assert settled[0] == settled[1]
    return results[0], calls, settled[0]


def test_eval_analogy_blocks_match_per_question_oracle(monkeypatch):
    rng = np.random.default_rng(9)
    n = 10_000
    tokens = [f"t{i}" for i in range(n)]
    vectors = rng.normal(size=(n, 20))
    questions = []
    for j in range(400):
        if j % 5 == 4:  # random words: mostly missed
            questions.append(AnalogyQuestion(
                *[tokens[i] for i in rng.choice(n, 4)], category=f"r{j % 3}"))
        else:  # a parallelogram: answered right
            k = 4 * j
            vectors[k + 3] = vectors[k + 2] + vectors[k + 1] - vectors[k]
            questions.append(AnalogyQuestion(*tokens[k:k + 4], category="p"))
    table = table_from(tokens, vectors)
    unit = table.unit_vectors()
    queries = unit[:400]
    n_blocks = -(-400 // _block_rows(n))
    buf, alone = np.empty((2, _block_rows(n), n))
    covered = 0
    for b, (rows, scores) in enumerate(_cosine_blocks(unit, queries, buf,
                                                      range(n_blocks))):
        assert rows.start == covered and scores.size <= 2 ** 20
        assert np.shares_memory(scores, buf)
        assert np.array_equal(scores, queries[rows] @ unit.T)
        # the block step computes one block alone, bitwise as in the run
        assert next(_cosine_blocks(unit, queries, alone, [b]))[0] == rows
        assert np.array_equal(alone[:len(scores)], scores)
        covered += len(scores)
    assert covered == 400 and n_blocks >= 3
    result, calls, settled = analogy_at_thread_counts(monkeypatch, table,
                                                      questions)
    assert max(calls) == 3  # with 3 CPUs, 3 threads share the 4 blocks
    assert settled["blocks"] == settled["float64_blocks"] == 0
    assert result == analogy_oracle(table, questions)
    assert result["answered"] == 400 and result["per_category"]["p"] == 1.0


def test_eval_analogy_edge_cases_match_oracle(monkeypatch):
    # basis rows make every score exact, so ties are exact: the lowest id wins
    tokens = ["e0", "e1", "e2", "e3", "zero", "twin", "twin2"]
    vectors = np.vstack([np.eye(4), np.zeros((1, 4)), np.eye(4)[[3, 3]]])
    table = table_from(tokens, vectors)
    questions = [
        AnalogyQuestion("e0", "e1", "e2", "e3", "tie"),      # 0 at ids 3..6
        AnalogyQuestion("e0", "e3", "e0", "twin", "twin"),   # 1 at ids 5, 6
        AnalogyQuestion("e1", "e1", "e2", "e0", "repeat"),   # a == b
        AnalogyQuestion("e2", "e2", "e2", "e3", "repeat"),   # misses: e0 wins
        AnalogyQuestion("e0", "e0", "zero", "e1", "zero"),   # zero query
        AnalogyQuestion("e0", "e1", "e2", "oov", "oov"),     # OOV expected
    ]
    result, _, settled = analogy_at_thread_counts(monkeypatch, table,
                                                  questions)
    assert result == analogy_oracle(table, questions)
    assert result == {"accuracy": 0.75, "answered": 4, "skipped": 2,
                      "per_category": {"tie": 1.0, "twin": 1.0,
                                       "repeat": 0.5}}
    # the exact ties reach the float64 block, computed once
    assert settled == {"candidates": 0, "blocks": 4, "float64_blocks": 1}
    # every entry masked: every score is -inf, and id 0 is the guess
    table = table_from(["e0", "e1", "e2"], np.eye(3))
    masked = [AnalogyQuestion("e0", "e1", "e2", "e0")]
    result, _, settled = analogy_at_thread_counts(monkeypatch, table, masked)
    assert result == analogy_oracle(table, masked)
    assert result["accuracy"] == 1.0
    assert settled == {"candidates": 0, "blocks": 1, "float64_blocks": 1}
    # two scores 4 ulps apart: too close for the candidate step, so the
    # float64 block decides, for the higher score
    table = table_from(["a", "near", "b", "c", "best"],
                       [[0, 1], [1, 3e-8], [0, 2], [1, -1], [1, 0]])
    near = [AnalogyQuestion("a", "b", "c", "best")]  # the query is (1, 0)
    result, _, settled = analogy_at_thread_counts(monkeypatch, table, near)
    assert result == analogy_oracle(table, near)
    assert result["accuracy"] == 1.0
    assert settled == {"candidates": 0, "blocks": 1, "float64_blocks": 1}
    # every question OOV: nothing is answered, on any thread count
    oov = [AnalogyQuestion("e0", "e1", "e2", "oov"),
           AnalogyQuestion("oov", "e1", "e2", "e3")]
    result, _, settled = analogy_at_thread_counts(monkeypatch, table, oov)
    assert result == analogy_oracle(table, oov)
    assert result == {"accuracy": 0.0, "answered": 0, "skipped": 2,
                      "per_category": {}}
    assert settled == {"candidates": 0, "blocks": 0, "float64_blocks": 0}


def test_eval_analogy_near_ties_are_settled_by_float64_candidates(monkeypatch):
    # two rows near each query whose cosines differ by about 1e-10: above
    # float64's resolution, d 2**-53, and below float32's, d 2**-24
    rng = np.random.default_rng(12)
    n, d = 2000, 20
    tokens = [f"t{i}" for i in range(n)]
    vectors = rng.normal(size=(n, d))
    questions = []
    for j in range(60):
        a, b, c, x, y = 5 * j + np.arange(5)
        if j % 2:
            x, y = y, x  # the winner is sometimes the higher id
        q = vectors[b] - vectors[a] + vectors[c]
        q /= np.linalg.norm(q)
        r = rng.normal(size=d)
        r -= (r @ q) * q
        r /= np.linalg.norm(r)
        vectors[x] = q + 0.1 * r
        vectors[y] = q + 0.1 * (1 + 1e-8) * r
        questions.append(AnalogyQuestion(*(tokens[i] for i in (a, b, c, x))))
    table = table_from(tokens, vectors)
    result, _, settled = analogy_at_thread_counts(monkeypatch, table,
                                                  questions)
    assert result == analogy_oracle(table, questions)
    assert result["accuracy"] == 1.0
    assert settled == {"candidates": 60, "blocks": 0, "float64_blocks": 0}


def test_eval_analogy_wide_table_settles_every_row(monkeypatch):
    # wider than 2**17 the float32 bound is not claimed: every row goes to
    # the float64 candidates, even a parallelogram's clear answer
    rng = np.random.default_rng(13)
    tokens = [f"t{i}" for i in range(8)]
    vectors = rng.normal(size=(8, 2 ** 17 + 1))
    vectors[3] = vectors[2] + vectors[1] - vectors[0]
    questions = [AnalogyQuestion(*tokens[:4])] + [
        AnalogyQuestion(*(tokens[i] for i in rng.choice(8, 4, replace=False)))
        for _ in range(7)]
    table = table_from(tokens, vectors)
    result, _, settled = analogy_at_thread_counts(monkeypatch, table,
                                                  questions)
    assert result == analogy_oracle(table, questions)
    assert settled["candidates"] + settled["blocks"] == 8


def block_reference(table, questions):
    """The unscreened float64 scoring: the answered questions' unit queries
    are cut into blocks of `_block_rows` rows, each block is one float64
    matrix product with the unit table, and each row's argmax with a, b
    and c masked is its guess; None for a skipped question."""
    answered = [k for k, q in enumerate(questions)
                if all(w in table for w in q[:4])]
    ids = np.array([[table.token_to_id[w] for w in questions[k][:3]]
                    for k in answered], dtype=np.int64).reshape(-1, 3)
    v = table.vectors
    queries = v[ids[:, 1]] - v[ids[:, 0]] + v[ids[:, 2]]
    norms = np.linalg.norm(queries, axis=1)
    nonzero = norms != 0.0
    answered, ids = np.array(answered, dtype=np.int64)[nonzero], ids[nonzero]
    queries = queries[nonzero] / norms[nonzero, None]
    guesses = [None] * len(questions)
    step = _block_rows(len(table))
    for start in range(0, len(answered), step):
        scores = queries[start:start + step] @ table.unit_vectors().T
        for k, masked, s in zip(answered[start:start + step],
                                ids[start:start + step], scores):
            s[masked] = -np.inf
            guesses[k] = int(np.argmax(s))
    return guesses


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 40), d=st.integers(1, 300),
       twins=st.integers(0, 10), zeros=st.integers(0, 4),
       blocks=st.floats(0.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_eval_analogy_matches_oracle_on_random_tables(n, d, twins, zeros,
                                                      blocks, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d))
    vectors[rng.integers(n, size=twins)] = vectors[rng.integers(n, size=twins)]
    vectors[rng.integers(n, size=zeros)] = 0.0
    tokens = [f"t{i}" for i in range(n)]
    table = table_from(tokens, vectors)
    with pytest.MonkeyPatch.context() as mp:
        # 256 scores per block: the questions fill up to 3 blocks
        mp.setattr(evaluate, "_BLOCK_SCORES", 256)
        questions = [AnalogyQuestion(*(tokens[i] for i in
                                       rng.integers(n, size=4)))
                     for _ in range(max(1, int(blocks * _block_rows(n))))]
        result, _, _ = analogy_at_thread_counts(mp, table, questions,
                                                block_reference)
        # the float64 blocks may score twin rows a last bit apart, so
        # their guess is the oracle's or a twin of it
        for q, g in zip(questions, block_reference(table, questions)):
            o = oracle_guess(table, q)
            assert (g is None and o is None) or \
                np.array_equal(vectors[g], vectors[o])
    if not twins:
        assert result == analogy_oracle(table, questions)


def test_nearest_neighbors_basics():
    table = table_from(["a", "b", "c"], np.eye(3))
    assert nearest_neighbors(table, "a", 0) == []
    out = nearest_neighbors(table, "a", 2)
    assert [t for t, _ in out] == ["b", "c"]  # tie on cosine 0, id ascending
    assert [s for _, s in out] == pytest.approx([0.0, 0.0])
    assert nearest_neighbors(table, "a", 5) == out  # never the query itself


def test_nearest_neighbors_excludes_query_and_matches_sort_oracle():
    rng = np.random.default_rng(6)
    tokens = [f"t{i}" for i in range(1000)]
    table = table_from(tokens, rng.normal(size=(1000, 10)))
    out = nearest_neighbors(table, "t500", 7)
    sims = [(cosine(table.vectors[i], table.vectors[500]), tokens[i])
            for i in range(1000) if i != 500]
    oracle = sorted(range(len(sims)), key=lambda n: (-sims[n][0], n))
    expected = [sims[n][1] for n in oracle[:7]]
    assert [t for t, _ in out] == expected


def test_nearest_neighbors_oov_errors():
    table = table_from(["a"], [[1.0]])
    with pytest.raises(DataError):
        nearest_neighbors(table, "zz", 3)


def test_avg_document_vector_single_word():
    table = table_from(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    assert avg_document_vector(table, ["a"]) == pytest.approx([1.0, 2.0])


def test_avg_document_vector_frequency_weighting():
    table = table_from(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    out = avg_document_vector(table, ["a", "a", "b"])
    assert out == pytest.approx([2 / 3, 1 / 3])


def test_avg_document_vector_matches_weighted_mean_oracle():
    rng = np.random.default_rng(7)
    tokens = [f"t{i}" for i in range(20)]
    table = table_from(tokens, rng.normal(size=(20, 6)))
    doc = [tokens[int(i)] for i in rng.integers(0, 20, 50)] + ["oov1", "oov2"]
    counts = {}
    for t in doc:
        if t in table:
            counts[t] = counts.get(t, 0) + 1
    oracle = sum(c * table.vectors[table.token_to_id[t]]
                 for t, c in counts.items()) \
        / sum(counts.values())
    assert avg_document_vector(table, doc) == pytest.approx(oracle, abs=1e-12)


def test_avg_document_vector_all_oov_errors():
    table = table_from(["a"], [[1.0]])
    with pytest.raises(DataError):
        avg_document_vector(table, ["zz"])


def test_logistic_classifier_separable():
    rng = np.random.default_rng(8)
    xs = np.vstack([rng.normal([2, 2], 0.3, (30, 2)),
                    rng.normal([-2, -2], 0.3, (30, 2))])
    ys = [0] * 30 + [1] * 30
    clf = train_logistic_classifier(xs, ys, epochs=30, lr=0.5, seed=0)
    assert clf.accuracy(xs, ys) == 1.0
    assert clf.accuracy(np.array([[2.0, 2.0]]), [0]) == 1.0


def test_logistic_large_l2_predicts_majority():
    # l2 -> infinity drives the weights to zero; lr * l2 stays below the SGD
    # stability bound so the shrinkage actually converges
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(50, 3))
    ys = [0] * 35 + [1] * 15
    clf = train_logistic_classifier(xs, ys, l2=5000.0, epochs=200, lr=1e-4,
                                    seed=0)
    assert np.abs(clf.weights).max() < 1e-3
    assert clf.accuracy(xs, [0] * 50) == 1.0


def test_logistic_single_class_errors():
    with pytest.raises(DataError):
        train_logistic_classifier(np.zeros((4, 2)), [1, 1, 1, 1])


def test_logistic_loss_gradients():
    rng = np.random.default_rng(10)
    W = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    x = rng.normal(size=4)

    def f(theta):
        w = theta[:12].reshape(3, 4)
        bias = theta[12:]
        loss, grads = logistic_loss_grads(w, bias, x, 2, l2=0.1)
        return loss, np.concatenate([grads["W"].ravel(), grads["b"]])

    assert gradient_check(f, np.concatenate([W.ravel(), b])) < 1e-6


def test_pgr_paper_cells():
    assert pgr_percent(pgr(51.78, 0.0, 55.83)) == 93
    assert pgr_percent(pgr(74.68, 64.38, 74.94)) == 98


def test_pgr_endpoints():
    assert pgr(55.83, 0.0, 55.83) == 1.0
    assert pgr(0.0, 0.0, 55.83) == 0.0


def test_pgr_negative_allowed():
    assert pgr(90.0, 95.41, 96.77) < 0


def test_pgr_undefined_errors():
    with pytest.raises(DataError):
        pgr(1.0, 2.0, 2.0)


def test_pgr_percent_rounds_half_away_from_zero():
    assert pgr_percent(0.975) == 98
    assert pgr_percent(0.125) == 13
    assert pgr_percent(-0.125) == -13
    assert pgr_percent(0.1249) == 12


def test_load_analogies_with_categories(tmp_path):
    path = tmp_path / "analogy.txt"
    path.write_text(": capital\nking queen man woman\n: tense\ngo went run ran\n",
                    encoding="utf-8")
    questions = load_analogies(path)
    assert questions[0] == AnalogyQuestion("king", "queen", "man", "woman",
                                           "capital")
    assert questions[1].category == "tense"
