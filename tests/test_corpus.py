import collections
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (documents, oracle_concatenate, oracle_documents,
                      oracle_encode, oracle_shards, oracle_shuffle,
                      oracle_vocabulary, slotwise_windows)
from embkit import embeddings as emb_module
from embkit.corpus import (CorpusStream, Vocabulary, build_vocabulary,
                           document_window_arrays, iter_windows, line_to_chars,
                           load_vocabulary, save_vocabulary,
                           shuffle_documents, subsample_keep_probability,
                           window_matrix)
from embkit.embeddings import EmbeddingModel, TrainConfig, train_epochs
from embkit.errors import DataError
from embkit.optim import NoiseSampler


def test_build_vocabulary_counts():
    vocab = build_vocabulary(CorpusStream([["a", "b", "a"]]), min_count=1)
    assert dict(zip(vocab.tokens, vocab.counts)) == {"a": 2, "b": 1}
    assert vocab.total_count == 3


def test_build_vocabulary_threshold():
    vocab = build_vocabulary(CorpusStream([["a", "b", "a"]]), min_count=2)
    assert vocab.tokens == ["a"]
    assert vocab.counts.tolist() == [2]


def test_build_vocabulary_empty_errors():
    with pytest.raises(DataError):
        build_vocabulary(CorpusStream([["a"]]), min_count=2)


def test_build_vocabulary_matches_counter_oracle():
    rng = np.random.default_rng(0)
    tokens = [f"t{rng.integers(200)}" for _ in range(100_000)]
    vocab = build_vocabulary(CorpusStream([tokens]), min_count=5)
    oracle = {t: c for t, c in collections.Counter(tokens).items() if c >= 5}
    assert len(vocab) == len(oracle)
    assert dict(zip(vocab.tokens, vocab.counts)) == oracle
    # ids by descending count, ties by token
    assert vocab.tokens == sorted(oracle, key=lambda t: (-oracle[t], t))


def test_fixed_vocabulary_drops_outside_tokens():
    vocab = build_vocabulary(CorpusStream([["a", "b", "c", "a"]]), min_count=1,
                             fixed_vocab=["a", "c"])
    assert set(vocab.tokens) == {"a", "c"}


def test_vocabulary_bijection(small_vocab):
    for i, tok in enumerate(small_vocab.tokens):
        assert small_vocab.token_to_id[tok] == i
        assert small_vocab.tokens[i] == tok


def test_subsample_paper_formula_at_4t():
    assert subsample_keep_probability(4e-4, 1e-4, "paper") == pytest.approx(0.5)


def test_subsample_toolkit_formula_at_4t():
    assert subsample_keep_probability(4e-4, 1e-4, "toolkit") == pytest.approx(0.75)


@pytest.mark.parametrize("variant", ["paper", "toolkit"])
def test_subsample_at_threshold_keeps(variant):
    assert subsample_keep_probability(1e-4, 1e-4, variant) == 1.0


@given(freq=st.floats(1e-9, 1.0), t=st.floats(1e-9, 1.0),
       variant=st.sampled_from(["paper", "toolkit"]))
def test_subsample_keep_in_unit_interval(freq, t, variant):
    keep = subsample_keep_probability(freq, t, variant)
    assert 0.0 <= keep <= 1.0


@given(t=st.floats(1e-8, 1e-2), variant=st.sampled_from(["paper", "toolkit"]),
       a=st.floats(1e-8, 1.0), b=st.floats(1e-8, 1.0))
def test_subsample_keep_monotone_nonincreasing(t, variant, a, b):
    lo, hi = min(a, b), max(a, b)
    assert subsample_keep_probability(lo, t, variant) >= \
        subsample_keep_probability(hi, t, variant) - 1e-12


@pytest.mark.parametrize("variant", ["paper", "toolkit"])
def test_configure_subsampling_matches_scalar_formula_bitwise(variant):
    counts = [1, 2, 3, 5, 8, 40, 100, 1000, 5000]
    vocab = Vocabulary([f"w{i}" for i in range(len(counts))], counts)
    t = 2 / vocab.total_count  # the frequency of count 2: f < t and f == t occur
    freqs = (vocab.counts / vocab.total_count).tolist()

    def closed_form(f):
        skip = (1.0 - math.sqrt(t / f) if variant == "paper"
                else (f - t) / f - math.sqrt(t / f))
        return min(1.0, max(0.0, 1.0 - skip))

    freq = vocab.counts / vocab.total_count
    keep = subsample_keep_probability(freq, t, variant).tolist()
    assert keep == [subsample_keep_probability(f, t, variant) for f in freqs]
    assert keep == [closed_form(f) for f in freqs]
    assert keep[:2] == [1.0, 1.0] and keep[-1] < 0.1
    with pytest.raises(ValueError):
        subsample_keep_probability(freq, 0.0, variant)
    with pytest.raises(ValueError):
        subsample_keep_probability(freq, t, "other")


def test_normalize_digit_run():
    assert line_to_chars("200") == ["NUMBER"]


def test_normalize_latin_run():
    assert line_to_chars("CERNET") == ["WORD"]


def test_normalize_chinese_unchanged():
    assert line_to_chars("中") == ["中"]


def test_normalize_mixed_token():
    assert line_to_chars("第200号") == ["第", "NUMBER", "号"]


def test_normalize_none_mode_is_identity():
    assert line_to_chars("200", normalize=False) == ["2", "0", "0"]


@given(st.text(max_size=12))
@settings(max_examples=300)
def test_normalize_idempotent(raw):
    once = line_to_chars(raw)
    assert line_to_chars("".join(once)) == once


def spell(word):
    return line_to_chars(word, normalize=False)


def test_decompose_word():
    assert spell("星期天") == ["星", "期", "天"]
    assert spell("江") == ["江"]


def test_decompose_pseudo_tokens_atomic():
    assert spell("NUMBER") == ["NUMBER"]
    assert spell("WORD") == ["WORD"]
    assert spell("PADDING") == ["PADDING"]


@given(st.text(alphabet="abc中文xyz", min_size=1, max_size=8))
def test_decompose_round_trip(word):
    assert "".join(spell(word)) == word


def test_iter_windows_win3_enumeration():
    corpus = CorpusStream([["a", "b", "c"]])
    vocab = build_vocabulary(corpus)
    a, b, c = (vocab.token_to_id[t] for t in "abc")
    samples = list(iter_windows(corpus, vocab, 3))
    assert [(s.target, s.context) for s in samples] == [
        (a, (b,)), (b, (a, c)), (c, (b,))]
    assert [s.n_left for s in samples] == [0, 1, 1]


def test_iter_windows_win5_middle_target():
    corpus = CorpusStream([["a", "b", "c", "d", "e"]])
    vocab = build_vocabulary(corpus)
    samples = list(iter_windows(corpus, vocab, 5))
    middle = samples[2]
    assert middle.target == vocab.token_to_id["c"]
    assert middle.context == tuple(vocab.token_to_id[t]
                                   for t in ("a", "b", "d", "e"))
    assert middle.n_left == 2


def test_iter_windows_never_cross_documents():
    corpus = CorpusStream([["a", "b"], ["c", "d"]])
    vocab = build_vocabulary(corpus)
    for s in iter_windows(corpus, vocab, 5):
        ctx_tokens = {vocab.tokens[i] for i in s.context}
        if vocab.tokens[s.target] in ("a", "b"):
            assert ctx_tokens <= {"a", "b"}
        else:
            assert ctx_tokens <= {"c", "d"}


def keep_probability(vocab, t):
    return subsample_keep_probability(vocab.counts / vocab.total_count, t)


def test_iter_windows_subsample_deterministic(toy_corpus, toy_vocab):
    keep_prob = keep_probability(toy_vocab, 0.05)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(9)
        runs.append([(s.target, s.context) for s in
                     iter_windows(toy_corpus, toy_vocab, 5, keep_prob, rng)])
    assert runs[0] == runs[1]


def test_iter_windows_target_count_matches_survivors(toy_corpus, toy_vocab):
    keep_prob = keep_probability(toy_vocab, 0.02)
    rng = np.random.default_rng(4)
    n_targets = sum(1 for _ in iter_windows(toy_corpus, toy_vocab, 5,
                                            keep_prob, rng))
    # replay the same subsampling stream to count survivors independently
    rng = np.random.default_rng(4)
    survivors = 0
    for doc in documents(toy_corpus):
        ids = oracle_encode(doc, toy_vocab)
        keep = rng.random(len(ids)) < keep_prob[ids]
        survivors += int(keep.sum())
    assert n_targets == survivors


def test_oov_tokens_removed_before_windowing():
    corpus = CorpusStream([["a", "zz", "b"]])
    vocab = build_vocabulary(CorpusStream([["a", "b"]]))
    samples = list(iter_windows(corpus, vocab, 3))
    # with zz removed, a and b become adjacent
    assert [(vocab.tokens[s.target], tuple(vocab.tokens[i] for i in s.context))
            for s in samples] == [("a", ("b",)), ("b", ("a",))]


@pytest.mark.parametrize("win", [1, 3, 5, 7, 9, 13])
def test_window_matrix_matches_slotwise_oracle(win):
    # documents shorter than, as long as and longer than the window
    for n in range(0, 10):
        ids = np.arange(10, 10 + n)
        out = window_matrix(ids, win, -7)
        assert out.shape == (n, win) and out.dtype == np.int64
        assert out.tolist() == slotwise_windows(ids, win, -7)


@pytest.mark.parametrize("win", [1, 3, 5, 7, 13])
def test_window_matrix_stops_at_document_starts(win):
    # documents of 1..9 ids, concatenated; every row range of the result
    # matches windowing each document on its own
    rng = np.random.default_rng(win)
    lengths = rng.integers(1, 10, 12)
    docs = np.split(np.arange(100, 100 + lengths.sum()), np.cumsum(lengths)[:-1])
    ids = np.concatenate(docs)
    starts = np.cumsum(lengths) - lengths
    expected = [row for d in docs for row in slotwise_windows(d, win, -7)]
    assert window_matrix(ids, win, -7, starts).tolist() == expected
    for _ in range(30):
        lo, hi = sorted(rng.integers(0, len(ids) + 1, 2))
        out = window_matrix(ids, win, -7, starts, lo, hi)
        assert out.shape == (hi - lo, win)
        assert out.tolist() == expected[lo:hi]


@pytest.mark.parametrize("win", [3, 5, 7, 9, 13])
def test_document_window_arrays_short_documents(win):
    half = (win - 1) // 2
    for n in range(0, 8):
        ids = np.arange(10, 10 + n)
        targets, ctx = document_window_arrays(ids, win)
        expected = [row[:half] + row[half + 1:]
                    for row in slotwise_windows(ids, win, -1)]
        assert targets.tolist() == ids.tolist()
        assert ctx.shape == (n, win - 1)
        assert ctx.tolist() == expected


def test_shuffle_documents_permutes_and_preserves():
    corpus = CorpusStream([["a"], ["b"], ["c"]])
    shuffled = shuffle_documents(corpus, 7)
    assert sorted(map(tuple, documents(shuffled))) == [("a",), ("b",), ("c",)]
    again = shuffle_documents(corpus, 7)
    assert documents(shuffled) == documents(again)


def test_shuffle_keeps_token_multiset(toy_corpus):
    shuffled = shuffle_documents(toy_corpus, 3)
    assert collections.Counter(sum(documents(shuffled), [])) == \
        collections.Counter(sum(documents(toy_corpus), []))
    assert [len(d) for d in sorted(documents(shuffled), key=tuple)] == \
        [len(d) for d in sorted(documents(toy_corpus), key=tuple)]


def test_vocabulary_round_trip(tmp_path, small_vocab):
    path = tmp_path / "vocab.txt"
    save_vocabulary(small_vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.tokens == small_vocab.tokens
    assert loaded.counts.tolist() == small_vocab.counts.tolist()


def test_corpus_stream_blank_line_documents(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc\n\nd e\n", encoding="utf-8")
    one_per_line = CorpusStream.from_text_file(path)
    assert len(one_per_line) == 3
    blank = CorpusStream.from_text_file(path, blank_line_docs=True)
    assert documents(blank) == [["a", "b", "c"], ["d", "e"]]


def trainer_shards(corpus, vocab, workers):
    """The `(ids, starts)` shards, as lists, that `train_epochs` passes."""
    shards = []

    def record(model, ids, starts, *args):
        shards.append((ids.tolist(), starts.tolist()))
        return 0, []

    model = EmbeddingModel.create("skipgram", vocab, 2, 3)
    with mock.patch.object(emb_module, "_train_one_pass", record):
        train_epochs(model, corpus, TrainConfig(epochs=1, workers=workers,
                                                full_softmax=True))
    return shards


_LINE = st.lists(st.sampled_from(["a", "b", "c", "d", "é", "中"]), max_size=6)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.tuples(_LINE, st.sampled_from([" ", "\t", "  "])),
                      min_size=1, max_size=12),
       blank_line_docs=st.booleans(), min_count=st.integers(1, 3),
       closed=st.none() | st.sets(st.sampled_from(["a", "b", "c", "é", "x"])),
       seed=st.none() | st.integers(0, 2**16), workers=st.integers(1, 3))
def test_ingest_matches_string_oracle(tmp_path_factory, lines, blank_line_docs,
                                      min_count, closed, seed, workers):
    # blank lines, documents left empty by out-of-vocabulary tokens, a
    # closed vocabulary, a shuffle and 1-3 shards, against the string path
    text = [sep.join(tokens) + "\n" for tokens, sep in lines]
    path = tmp_path_factory.mktemp("ingest") / "c.txt"
    path.write_text("".join(text), encoding="utf-8")
    docs = oracle_documents(text, blank_line_docs)
    if not docs:
        with pytest.raises(DataError):
            CorpusStream.from_text_file(path, blank_line_docs)
        return
    corpus = CorpusStream.from_text_file(path, blank_line_docs)
    assert documents(corpus) == docs
    if seed is not None:
        docs = oracle_shuffle(docs, seed)
        corpus = shuffle_documents(corpus, seed)
        assert documents(corpus) == docs
    tokens, counts = oracle_vocabulary(docs, min_count, closed)
    if not tokens:
        with pytest.raises(DataError):
            build_vocabulary(corpus, min_count, closed)
        return
    vocab = build_vocabulary(corpus, min_count, closed)
    assert vocab.tokens == tokens
    assert vocab.counts.tolist() == counts
    encoded = [oracle_encode(doc, vocab) for doc in docs]
    ids, starts = vocab.encode(corpus)
    want_ids, want_starts = oracle_concatenate([e for e in encoded if len(e)])
    assert ids.tolist() == want_ids.tolist()
    assert starts.tolist() == want_starts.tolist()
    assert trainer_shards(corpus, vocab, workers) == \
        [(i.tolist(), s.tolist()) for i, s in oracle_shards(encoded, workers)]


def test_noise_weights_positive_finite(small_vocab):
    w = NoiseSampler(small_vocab.counts).cumulative
    assert np.all(np.isfinite(w)) and w[0] > 0 and np.all(np.diff(w) > 0)
    assert w[0] == pytest.approx(8 ** 0.75)
