import numpy as np
import pytest

from embkit import segment
from embkit.cli import run
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_grads, flat_checker, gradient_check, in_noise_band
from embkit.errors import DataError, NumericError
from embkit.optim import EpochRecord, apply_grads, log_softmax
from embkit.seeding import substream
from embkit.segment import (LEGAL_END, LEGAL_NEXT, LEGAL_START, TAG_ID,
                            TAGS, SegmenterNet, TaggedSentence,
                            _words_from_tags, decode_sentence,
                            decode_sentences, line_to_chars,
                            parse_segmented_line, prf_corpus,
                            segment_loss_grads, sentence_log_probs,
                            tags_from_segmentation, train_segmenter,
                            viterbi_decode, viterbi_decode_block)


def legal_sequences(n):
    """All legal BMES tag sequences of length n (enumeration oracle)."""
    out = []
    def extend(seq):
        if len(seq) == n:
            if seq[-1] in LEGAL_END:
                out.append(seq)
            return
        for nxt in LEGAL_NEXT[seq[-1]]:
            extend(seq + (nxt,))
    for start in LEGAL_START:
        extend((start,))
    return out


def path_score(lattice, seq):
    """Right-fold sum, matching the decoder's backward accumulation order."""
    total = 0.0
    for i in range(len(seq) - 1, -1, -1):
        total = lattice[i][seq[i]] + total
    return total


def positionwise_viterbi(lattice):
    """Oracle: Viterbi one position and one tag at a time, ties to the
    smallest tag that attains the max."""
    n = lattice.shape[0]
    completion = np.full((n, 4), -np.inf)
    for t in LEGAL_END:
        completion[n - 1][t] = lattice[n - 1][t]
    for i in range(n - 2, -1, -1):
        for t in range(4):
            best = max(completion[i + 1][u] for u in LEGAL_NEXT[t])
            completion[i][t] = lattice[i][t] + best
    total = max(completion[0][t] for t in LEGAL_START)
    if total == -np.inf:
        raise DataError("no legal tag sequence for this lattice")
    tags = [min(t for t in LEGAL_START if completion[0][t] == total)]
    for i in range(1, n):
        succ = LEGAL_NEXT[tags[-1]]
        best = max(completion[i][u] for u in succ)
        tags.append(min(u for u in succ if completion[i][u] == best))
    return "".join(TAGS[t] for t in tags), float(total)


# --- tagging and span scoring ---------------------------------------------------

def test_tags_from_segmentation_basic():
    tagged = tags_from_segmentation(["中国", "人"])
    assert tagged.chars == ("中", "国", "人")
    assert tagged.tags == "BES"


def test_tags_single_char_word():
    assert tags_from_segmentation(["的"]).tags == "S"


def test_tags_long_word():
    assert tags_from_segmentation(["计算机网"]).tags == "BMME"


def test_tags_empty_word_errors():
    with pytest.raises(DataError):
        tags_from_segmentation(["中", ""])


@given(st.lists(st.text(alphabet="天地人和中文书李", min_size=1, max_size=4),
                min_size=1, max_size=6))
def test_round_trip_tags_segmentation(words):
    tagged = tags_from_segmentation(words)
    assert _words_from_tags(*tagged.check()) == words


def test_segmentation_rejects_illegal_tags():
    with pytest.raises(DataError):
        _words_from_tags(*TaggedSentence(("a", "b"), "BS").check())


def test_prf_identical():
    scores = prf_corpus([["中国", "人"]], [["中国", "人"]])
    assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_prf_all_splits_vs_one_word():
    scores = prf_corpus([["中", "国", "人"]], [["中国人"]])
    assert scores["precision"] == 0.0 and scores["recall"] == 0.0


def test_prf_differing_text_errors():
    with pytest.raises(DataError):
        prf_corpus([["中国"]], [["中文"]])


def test_prf_matches_span_set_oracle():
    rng = np.random.default_rng(0)
    chars = "abcdefghij" * 3
    for _ in range(50):
        def random_cut():
            words, pos = [], 0
            while pos < len(chars):
                step = int(rng.integers(1, 4))
                words.append(chars[pos:pos + step])
                pos += step
            return words
        pred, gold = random_cut(), random_cut()
        def spans(ws):
            s, out = 0, set()
            for w in ws:
                out.add((s, s + len(w)))
                s += len(w)
            return out
        ps, gs = spans(pred), spans(gold)
        hits = len(ps & gs)
        expect_p = hits / len(ps)
        expect_r = hits / len(gs)
        got = prf_corpus([pred], [gold])
        assert got["precision"] == pytest.approx(expect_p)
        assert got["recall"] == pytest.approx(expect_r)


# --- network forward --------------------------------------------------------------

def test_zero_net_uniform_log_probs():
    net = SegmenterNet(list("abc"), dim=3, hidden=4, win=3)
    net.H[...] = 0.0
    net.U[...] = 0.0
    net.b1[...] = 0.0
    net.b2[...] = 0.0
    out = sentence_log_probs(net, ["a", "b", "c"])[1]
    assert out == pytest.approx(np.log(np.ones(4) / 4), abs=1e-12)


def test_tag_probs_sum_to_one():
    net = SegmenterNet(list("abcd"), dim=3, hidden=5, win=5,
                       rng=np.random.default_rng(1))
    for row in sentence_log_probs(net, ["a", "c", "d"]):
        assert np.exp(row).sum() == pytest.approx(1.0, abs=1e-12)


def test_tag_log_probs_matches_matrix_arithmetic():
    rng = np.random.default_rng(2)
    net = SegmenterNet(list("abcd"), dim=3, hidden=5, win=3, rng=rng)
    for v in net.params().values():
        v[...] = rng.normal(0, 0.7, v.shape)
    chars = ["b", "a", "d"]
    ids = net.encode(chars)
    i = 0
    window = [net.padding_id, ids[0], ids[1]]
    x = np.concatenate([net.e[w] for w in window])
    y = net.b2 + net.U @ np.tanh(net.b1 + net.H @ x)
    expected = y - np.log(np.exp(y).sum())
    assert sentence_log_probs(net, chars)[i] == pytest.approx(expected,
                                                              abs=1e-10)


def positionwise_log_probs(net, chars, i):
    """Oracle: position i's window built slot by slot, one matrix-vector
    product per layer."""
    ids = net.encode(chars)
    half = (net.win - 1) // 2
    window = [ids[j] if 0 <= j < len(ids) else net.padding_id
              for j in range(i - half, i + half + 1)]
    x = net.e[window].reshape(-1)
    h = np.tanh(net.b1 + net.H @ x)
    return log_softmax(net.b2 + net.U @ h)


def test_sentence_log_probs_matches_positionwise():
    net = SegmenterNet(list("abcde"), dim=3, hidden=4, win=5,
                       rng=np.random.default_rng(3))
    chars = ["a", "e", "c", "b"]
    lattice = sentence_log_probs(net, chars)
    for i in range(len(chars)):
        assert lattice[i] == pytest.approx(
            positionwise_log_probs(net, chars, i), abs=1e-12)


def test_unknown_char_maps_to_unk_row():
    net = SegmenterNet(list("ab"), dim=2, hidden=3, win=3)
    ids = net.encode(["a", "zz", "b"])
    assert ids[1] == net.char_to_id["\x02UNK"]


# --- training ----------------------------------------------------------------------

def test_segment_gradients():
    # batches of 1-4 windows, as train_segmenter steps on
    worst = 0.0
    master = np.random.default_rng(5)
    checked = 0
    while checked < 10:
        r = np.random.default_rng(int(master.integers(2**31)))
        net = SegmenterNet(list("abcdef"), dim=3, hidden=4, win=5, rng=r)
        for v in net.params().values():
            v[...] = r.normal(0, 0.8, v.shape)
        b = int(r.integers(1, 5))
        windows = r.integers(0, len(net.chars), (b, 5))
        golds = r.integers(4, size=b)
        f, theta = flat_checker(net.params(),
                                lambda: segment_loss_grads(net, windows, golds))
        _, g0 = f(theta)
        if in_noise_band(g0):
            continue
        worst = max(worst, gradient_check(f, theta))
        checked += 1
    assert worst < 1e-4


def one_window_loss_grads(net, window, gold):
    """Oracle: the loss and gradients of one window, as the per-sample
    trainer computed them."""
    X, h, scores = segment._forward(net, window[None, :])
    lsm = log_softmax(scores)
    dy = np.exp(lsm)
    dy[0, gold] -= 1.0
    dz = (dy @ net.U) * (1.0 - h * h)
    de = (dz @ net.H).reshape(net.win, net.dim)
    return -float(lsm[0, gold]), {"e": (window, de), "H": dz.T @ X,
                                  "b1": dz[0], "U": dy.T @ h, "b2": dy[0]}


def per_sample_train(net, corpus, lr, epochs, seed, optimizer, batch=1):
    """Oracle: the per-sample trainer, walking train_segmenter's per-epoch
    permutation in slices of `batch` samples; each slice steps once on the
    sum of its samples' one-window gradients. Returns the mean losses."""
    windows = np.concatenate([net.windows(s.chars) for s in corpus])
    golds = [TAG_ID[t] for s in corpus for t in s.tags]
    params = net.params()
    rates = dict.fromkeys(params, lr)
    accum = {} if optimizer == "adagrad" else None
    means = []
    for epoch in range(epochs):
        order = substream(seed, f"segmenter-epoch-{epoch}").permutation(len(golds))
        total = 0.0
        for lo in range(0, len(order), batch):
            parts = [one_window_loss_grads(net, windows[n], golds[n])
                     for n in order[lo:lo + batch]]
            grads = {"e": tuple(np.concatenate([g["e"][k] for _, g in parts])
                                for k in (0, 1))}
            for name in ("H", "b1", "U", "b2"):
                grads[name] = np.sum([g[name] for _, g in parts], axis=0)
            total += sum(loss for loss, _ in parts)
            apply_grads(params, grads, rates, accum)
        means.append(total / len(golds))
    return means


@pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_train_segmenter_matches_per_sample_oracle(monkeypatch, optimizer,
                                                   batch):
    # batch 1 is the per-sample trainer, bit for bit
    monkeypatch.setattr(segment, "TRAIN_BATCH", batch)
    tagged = [tags_from_segmentation(s)
              for s in make_toy_sentences(6, np.random.default_rng(8))]
    chars = sorted({c for t in tagged for c in t.chars})
    nets = [SegmenterNet(chars, dim=4, hidden=5, win=5,
                         rng=np.random.default_rng(1)) for _ in range(2)]
    history = train_segmenter(nets[0], tagged, lr=0.1, epochs=3, seed=9,
                              optimizer=optimizer)
    means = per_sample_train(nets[1], tagged, 0.1, 3, 9, optimizer, batch)
    tol = 0.0 if batch == 1 else 1e-10
    assert all(isinstance(h, EpochRecord) for h in history)
    assert [h.mean_loss for h in history] == pytest.approx(means, rel=tol,
                                                              abs=0.0)
    for name, value in nets[0].params().items():
        np.testing.assert_allclose(value, nets[1].params()[name], rtol=tol,
                                   atol=0.0, err_msg=name)


def test_batched_loss_grads_sums_single_windows():
    rng = np.random.default_rng(11)
    net = SegmenterNet(list("abcd"), dim=3, hidden=5, win=5, rng=rng)
    for v in net.params().values():
        v[...] = rng.normal(0, 0.8, v.shape)
    pad = net.padding_id
    # repeats inside a window (PADDING, 'a') and across windows
    windows = np.array([[pad, pad, 0, 0, 1],
                        [pad, 0, 0, 1, 0],
                        [2, 2, 2, 3, pad],
                        [pad, 0, 0, 1, 0]])
    golds = np.array([TAG_ID[t] for t in "BMSE"])
    loss, grads = segment_loss_grads(net, windows, golds)
    params = net.params()
    got = dense_grads(params, grads)
    want = {k: np.zeros(v.shape) for k, v in params.items()}
    want_loss = 0.0
    for k in range(len(golds)):
        one_loss, one = segment_loss_grads(net, windows[k:k + 1], golds[k:k + 1])
        oracle_loss, oracle = one_window_loss_grads(net, windows[k], golds[k])
        assert one_loss == oracle_loss
        one = dense_grads(params, one)
        for name, g in dense_grads(params, oracle).items():
            assert np.array_equal(one[name], g), name
            want[name] += g
        want_loss += one_loss
    assert loss == pytest.approx(want_loss, abs=1e-12)
    for name in params:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12)


def test_train_segmenter_checks_each_batch_loss(monkeypatch):
    tagged = [tags_from_segmentation(["ab", "c"])]
    net = SegmenterNet(list("abc"), dim=2, hidden=3, win=3)
    monkeypatch.setattr(segment, "segment_loss_grads",
                        lambda *args: (float("inf"), {}))
    with pytest.raises(NumericError, match="training loss"):
        train_segmenter(net, tagged, epochs=1)


def test_diverging_segmenter_raises_numeric_error_without_warnings():
    # the suite turns RuntimeWarning into an error, so an overflow warning
    # on the way to a non-finite value would fail this test
    tagged = [tags_from_segmentation(["ab", "c", "de"])] * 4
    net = SegmenterNet(list("abcde"), dim=2, hidden=3, win=3)
    with pytest.raises(NumericError):
        train_segmenter(net, tagged, lr=1e308, epochs=2)


def make_toy_sentences(n_sentences, rng):
    """Tiny synthetic language with position-consistent character roles."""
    starters, enders, singles = "abcd", "efgh", "ij"
    words = [s + e for s in starters for e in enders] + list(singles)
    sentences = []
    for _ in range(n_sentences):
        k = int(rng.integers(3, 7))
        sentences.append([words[int(rng.integers(len(words)))]
                          for _ in range(k)])
    return sentences


def test_segmenter_overfits_toy_corpus():
    rng = np.random.default_rng(7)
    sentences = make_toy_sentences(10, rng)
    tagged = [tags_from_segmentation(s) for s in sentences]
    chars = sorted({c for t in tagged for c in t.chars})
    net = SegmenterNet(chars, dim=8, hidden=16, win=5,
                       rng=np.random.default_rng(0))
    train_segmenter(net, tagged, lr=0.1, epochs=60, seed=0)
    correct = total = 0
    for t in tagged:
        lattice = sentence_log_probs(net, t.chars)
        pred = np.argmax(lattice, axis=1)
        gold = [TAG_ID[g] for g in t.tags]
        correct += int(np.sum(pred == gold))
        total += len(gold)
    assert correct / total == 1.0


def test_init_from_embedding_file(tmp_path):
    from embkit.io_formats import EmbeddingTable, save_embeddings
    rows = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "chars.vec"
    save_embeddings(EmbeddingTable(["a", "b"], rows), path)
    net = SegmenterNet(list("abc"), dim=2, hidden=3, win=3)
    from embkit.io_formats import load_embeddings, seed_rows
    loaded = seed_rows(net, load_embeddings(path))
    assert loaded == 2
    assert net.e[net.char_to_id["a"]] == pytest.approx([0.1, 0.2], abs=1e-6)
    assert net.e[net.char_to_id["b"]] == pytest.approx([0.3, 0.4], abs=1e-6)


def test_an_unknown_optimizer_is_refused_by_every_trainer():
    from embkit.embeddings import TrainConfig
    net = SegmenterNet(list("ab"), dim=2, hidden=3, win=3)
    before = {k: v.copy() for k, v in net.params().items()}
    with pytest.raises(ValueError, match="^unknown optimizer 'adam'$"):
        train_segmenter(net, [tags_from_segmentation(["ab"])], epochs=1,
                        optimizer="adam")
    assert all(np.array_equal(before[k], v) for k, v in net.params().items())
    with pytest.raises(ValueError, match="^unknown optimizer 'adam'$"):
        TrainConfig(optimizer="adam").validate("skipgram")


def test_training_is_deterministic():
    rng = np.random.default_rng(8)
    sentences = make_toy_sentences(6, rng)
    tagged = [tags_from_segmentation(s) for s in sentences]
    chars = sorted({c for t in tagged for c in t.chars})
    nets = []
    for _ in range(2):
        net = SegmenterNet(chars, dim=4, hidden=5, win=5,
                           rng=np.random.default_rng(1))
        train_segmenter(net, tagged, lr=0.1, epochs=3, seed=9)
        nets.append(net)
    for name in nets[0].params():
        assert np.array_equal(nets[0].params()[name], nets[1].params()[name])


# --- viterbi -----------------------------------------------------------------------

def test_viterbi_single_char_always_s():
    for _ in range(20):
        lattice = np.log(np.random.default_rng(_).dirichlet(np.ones(4))[None, :])
        tags, _ = viterbi_decode(lattice)
        assert tags == "S"


def test_viterbi_alternating_be():
    lattice = np.log(np.array([[0.5, 0.0, 0.5, 0.0] if i % 2 == 0
                               else [0.0, 0.5, 0.5, 0.0]
                               for i in range(4)]) + 1e-12)
    # strongly favor B at even, E at odd positions
    lattice = np.array([[0.0, -9.0, -9.0, -4.0] if i % 2 == 0
                        else [-9.0, -9.0, 0.0, -4.0] for i in range(4)])
    tags, _ = viterbi_decode(lattice)
    assert tags == "BEBE"


def test_viterbi_output_always_legal():
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        lattice = rng.normal(size=(n, 4))
        tags, _ = viterbi_decode(lattice)
        assert TAG_ID[tags[0]] in LEGAL_START
        assert TAG_ID[tags[-1]] in LEGAL_END
        for a, b in zip(tags, tags[1:]):
            assert TAG_ID[b] in LEGAL_NEXT[TAG_ID[a]]


def test_viterbi_matches_enumeration_random():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        seqs = legal_sequences(n)
        for _ in range(60):
            lattice = rng.normal(size=(n, 4))
            best = max(seqs, key=lambda s: (path_score(lattice, s),
                                            tuple(-t for t in s)))
            tags, score = viterbi_decode(lattice)
            assert tuple(TAG_ID[t] for t in tags) == best
            assert score == path_score(lattice, best)


def test_viterbi_tie_breaks_lexicographically():
    # dyadic lattice values make float sums exact, so ties are real ties
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        seqs = legal_sequences(n)
        for _ in range(80):
            lattice = rng.integers(0, 2, size=(n, 4)) * 0.5
            scored = [(path_score(lattice, s), s) for s in seqs]
            best_score = max(s for s, _ in scored)
            best = min(s for sc, s in scored if sc == best_score)
            tags, score = viterbi_decode(lattice)
            assert tuple(TAG_ID[t] for t in tags) == best
            assert score == best_score


@pytest.mark.parametrize("dyadic", [False, True])
def test_viterbi_block_matches_positionwise_oracle(dyadic):
    rng = np.random.default_rng(14 + dyadic)
    for _ in range(40):
        lengths = [1] + [int(n) for n in rng.integers(1, 13, size=9)]
        rng.shuffle(lengths)
        if dyadic:  # exact sums, so ties are real ties
            lattices = [rng.integers(0, 3, size=(n, 4)) * 0.25 for n in lengths]
        else:
            lattices = [rng.normal(size=(n, 4)) for n in lengths]
        tags, scores = viterbi_decode_block(lattices)
        want = [positionwise_viterbi(lat) for lat in lattices]
        assert tags == [t for t, _ in want]
        assert scores.tolist() == [sc for _, sc in want]


def test_viterbi_block_illegal_lattice_raises():
    illegal = np.array([[0.0, 0.0, 0.0, -np.inf]])  # one char must be S
    with pytest.raises(DataError):
        positionwise_viterbi(illegal)
    lattices = [np.zeros((3, 4)), illegal, np.zeros((5, 4))]
    with pytest.raises(DataError, match="no legal tag sequence"):
        viterbi_decode_block(lattices)
    with pytest.raises(DataError, match="no legal tag sequence"):
        viterbi_decode(illegal)


def test_viterbi_decode_validates_shape():
    for bad in (np.zeros((0, 4)), np.zeros((3, 3)), np.zeros(4)):
        with pytest.raises(DataError, match="nonempty"):
            viterbi_decode(bad)


def toy_net(seed):
    rng = np.random.default_rng(seed)
    net = SegmenterNet(list("的一是在有了不人"), dim=3, hidden=5, win=3, rng=rng)
    for v in net.params().values():
        v[...] = rng.normal(0, 1.0, v.shape)
    return net


def oracle_words(net, chars):
    if not chars:
        return []
    tags, _ = positionwise_viterbi(sentence_log_probs(net, chars))
    return _words_from_tags(*TaggedSentence(tuple(chars), tags).check())


def test_decode_sentences_across_blocks_matches_oracle(monkeypatch):
    monkeypatch.setattr(segment, "DECODE_BLOCK", 24)
    net = toy_net(15)
    rng = np.random.default_rng(15)
    alphabet = list("的一是在有了不人我")  # 我 is unknown to the net
    sentences = [[alphabet[int(k)] for k in rng.integers(9, size=n)]
                 for n in rng.integers(0, 30, size=60)]
    sentences[:2] = [[], ["的"]]
    got = list(decode_sentences(net, iter(sentences)))
    assert got == [oracle_words(net, chars) for chars in sentences]
    assert decode_sentence(net, sentences[5]) == got[5]


def test_decoded_words_match_segmentation_from_tags():
    net = toy_net(16)
    rng = np.random.default_rng(16)
    alphabet = list("的一是在有了不人我")
    block = [[alphabet[int(k)] for k in rng.integers(9, size=n)]
             for n in rng.integers(1, 14, size=40)]
    tags, _ = viterbi_decode_block([sentence_log_probs(net, chars)
                                    for chars in block])
    want = [_words_from_tags(*TaggedSentence(tuple(chars), t).check())
            for chars, t in zip(block, tags)]
    assert segment._decode_block(net, block) == want
    assert list(decode_sentences(net, block)) == want


def test_cli_segment_decode_streams_blocks(tmp_path):
    corpus, model = tmp_path / "seg.txt", tmp_path / "seg.bin"
    corpus.write_text("的一/是\n在/有了/不人\n", encoding="utf-8")
    assert run(["segment-train", "--corpus", str(corpus), "--dim", "3",
                "--hidden", "4", "--epochs", "1", "--out", str(model)]) == 0
    rng = np.random.default_rng(16)
    alphabet = "的一是在有了不人"
    lines = ["".join(alphabet[int(k)] for k in rng.integers(8, size=n))
             for n in rng.integers(1, 60, size=2600)]
    lines[3], lines[1000], lines[2000] = "", "  \t ", " "
    assert sum(map(len, lines)) > segment.DECODE_BLOCK
    raw, out = tmp_path / "raw.txt", tmp_path / "out.txt"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["segment-decode", "--model", str(model), "--input", str(raw),
                "--out", str(out)]) == 0
    got = out.read_text(encoding="utf-8").split("\n")
    assert got.pop() == "" and len(got) == len(lines)
    from embkit.cli import _load_segmenter
    net = _load_segmenter(model)
    assert got == ["/".join(oracle_words(net, line_to_chars(line)))
                   for line in lines]


def test_decoder_never_scores_below_gold():
    rng = np.random.default_rng(13)
    sentences = make_toy_sentences(10, rng)
    tagged = [tags_from_segmentation(s) for s in sentences]
    chars = sorted({c for t in tagged for c in t.chars})
    net = SegmenterNet(chars, dim=4, hidden=5, win=5,
                       rng=np.random.default_rng(2))
    for t in tagged:
        lattice = sentence_log_probs(net, t.chars)
        _, best_score = viterbi_decode(lattice)
        gold_score = path_score(lattice, tuple(TAG_ID[g] for g in t.tags))
        assert best_score >= gold_score - 1e-12


# --- data files --------------------------------------------------------------------

def test_parse_segmented_line_slash_and_space():
    assert parse_segmented_line("中国/人", normalize=False) == ["中国", "人"]
    assert parse_segmented_line("中国 人", normalize=False) == ["中国", "人"]


def test_parse_segmented_line_normalizes():
    words = parse_segmented_line("连接/了/200/多/所", normalize=True)
    assert words == ["连接", "了", "NUMBER", "多", "所"]


def test_line_to_chars_atomic_pseudo():
    chars = line_to_chars("中200x国", normalize=True)
    assert chars == ["中", "NUMBER", "WORD", "国"]
    assert line_to_chars(" 中200 x国", texts=True) == (
        chars, ["中", "200", "x", "国"])


# segmented lines of CJK, digit and Latin runs, pseudo-tokens and spaces
_SEGMENTED_LINES = st.lists(
    st.sampled_from(["中", "国", "第", "号", "200", "7", "ok", "CERNET", "x",
                     "NUMBER", "WORD", "PADDING", "NUM", "BER", " ", "/"]),
    max_size=16).map("".join)


@given(_SEGMENTED_LINES)
def test_gold_words_spell_as_their_joined_text(line):
    # training spells each gold word as decoding spells the raw line
    words = parse_segmented_line(line)
    assert "" not in words
    if words:
        chars = tags_from_segmentation(words).chars
        assert list(chars) == line_to_chars("".join(words), normalize=False)


def test_cli_segment_train_stores_pseudo_characters(tmp_path):
    corpus, model = tmp_path / "seg.txt", tmp_path / "seg.bin"
    corpus.write_text("第200号/的\n在/2003年/的\n他/说/ok了\n/ /在/\n",
                      encoding="utf-8")
    assert run(["segment-train", "--corpus", str(corpus), "--dim", "3",
                "--hidden", "4", "--epochs", "1", "--out", str(model)]) == 0
    from embkit.io_formats import load_container
    chars = set(load_container(model)[1]["chars"])
    assert {"NUMBER", "WORD"} <= chars
    assert not any(len(c) == 1 and c.isascii() for c in chars)


def test_cli_segment_decode_writes_the_text_it_read(tmp_path):
    gold, raw = tmp_path / "gold.txt", tmp_path / "raw.txt"
    model, pred = tmp_path / "seg.bin", tmp_path / "pred.txt"
    gold.write_text("第/200/号/的\n他/说/ok/了\n", encoding="utf-8")
    raw.write_text("第200号的\n他说ok了\n", encoding="utf-8")
    assert run(["segment-train", "--corpus", str(gold), "--dim", "3",
                "--hidden", "4", "--epochs", "1", "--out", str(model)]) == 0
    assert run(["segment-decode", "--model", str(model), "--input", str(raw),
                "--out", str(pred)]) == 0
    lines = pred.read_text(encoding="utf-8").splitlines()
    assert [line.replace("/", "") for line in lines] == ["第200号的", "他说ok了"]
    assert run(["segment-score", "--pred", str(pred), "--gold", str(gold)]) == 0
