"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. Criteria 6 and 7 exercise a real ~20M-token English corpus and the
standard similarity/analogy datasets, which are not bundled; point
EMBKIT_ACCEPT_CORPUS, EMBKIT_ACCEPT_WORDSIM and EMBKIT_ACCEPT_ANALOGY at
local copies (see the README) or those two tests report SKIP.
"""

import os
import time

import numpy as np
import pytest

from conftest import (charword_batch, cw_batch, dense_counts,
                      flat_checker, gradient_check, in_noise_band,
                      predictive_batch, random_windows, score_matrix)
from embkit.corpus import (CorpusStream, build_vocabulary,
                           subsample_keep_probability)
from embkit.embeddings import (EmbeddingModel, TrainConfig,
                               _expand_charword_arrays,
                               _pair_batch_full_softmax,
                               build_charword_space, train_epochs)
from embkit.evaluate import (eval_analogy, eval_similarity,
                             load_analogies, load_similarity, pgr,
                             pgr_percent)
from embkit.io_formats import EmbeddingTable, restore_params
from embkit.matrixfact import (count_cooccurrences, factorize_log_counts,
                               skipgram_equivalence_report)
from embkit.segment import (LEGAL_END, LEGAL_NEXT, LEGAL_START, TAG_ID,
                            SegmenterNet, decode_sentence, prf_corpus,
                            segment_loss_grads, tags_from_segmentation,
                            train_segmenter, viterbi_decode)
from embkit.seeding import substream
from embkit.textclass import (LabeledDocument, RcnnModel, WindowCnnModel,
                              extract_key_phrases, train_classifier)
from embkit.corpus import Vocabulary


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------------------
# 1. PGR table reproduction
# -------------------------------------------------------------------------

TASKS = ["syn", "sem", "ws", "tfl", "avg", "ner", "cnn", "pos"]
MODELS = ["Skip-gram", "CBOW", "Order", "LBL", "NNLM", "C&W"]
RAW_PERFORMANCE = {
    "random":    [0.00, 0.00, 0.00, 25.00, 64.38, 84.39, 36.60, 95.41],
    "Skip-gram": [51.78, 44.80, 63.89, 76.25, 74.94, 88.90, 43.84, 96.57],
    "CBOW":      [55.83, 44.43, 62.21, 77.50, 74.68, 88.47, 43.75, 96.63],
    "Order":     [55.57, 36.38, 62.44, 77.50, 74.93, 88.41, 44.77, 96.76],
    "LBL":       [45.74, 29.12, 57.86, 75.00, 74.32, 88.69, 43.98, 96.77],
    "NNLM":      [41.41, 23.51, 59.25, 71.25, 73.70, 88.36, 44.40, 96.73],
    "C&W":       [3.13, 2.20, 46.17, 47.50, 73.26, 88.15, 41.86, 96.66],
}
EXPECTED_PGR = {
    "Skip-gram": [93, 100, 100, 98, 100, 100, 89, 85],
    "CBOW":      [100, 99, 97, 100, 98, 90, 88, 90],
    "Order":     [100, 81, 98, 100, 100, 89, 100, 99],
    "LBL":       [82, 65, 91, 95, 94, 95, 90, 100],
    "NNLM":      [74, 52, 93, 88, 88, 88, 95, 97],
    "C&W":       [6, 5, 72, 43, 84, 83, 64, 92],
}


def test_criterion_1_pgr_table():
    t0 = time.perf_counter()
    mismatches = []
    for col, task in enumerate(TASKS):
        p_rand = RAW_PERFORMANCE["random"][col]
        p_best = max(RAW_PERFORMANCE[m][col] for m in MODELS)
        for m in MODELS:
            got = pgr_percent(pgr(RAW_PERFORMANCE[m][col], p_rand, p_best))
            want = EXPECTED_PGR[m][col]
            if got != want:
                mismatches.append((m, task, got, want))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    report(1, ok, f"48/48 integer cells reproduced exactly in {elapsed:.3f}s"
           if ok else f"mismatches={mismatches} elapsed={elapsed:.3f}s")


# -------------------------------------------------------------------------
# 2. gradient checks, >= 50 random configurations per family
# -------------------------------------------------------------------------

# the criterion asks >= 50 per family; the module invariant asks >= 100 per
# model kind, so run 100 everywhere (still far inside the runtime bound)
N_CONFIGS = 100
TOLERANCE = 1e-4

GRAD_VOCAB = Vocabulary([f"w{i}" for i in range(6)], [8, 5, 4, 3, 2, 2])
CHAR_VOCAB = Vocabulary(["星期天", "星期", "天空", "江", "明天", "海"],
                        [6, 5, 4, 3, 2, 2])
TC_VOCAB = [f"t{i}" for i in range(7)]


def _randomized(model_or_net, rng, scale=0.8):
    params = model_or_net.params()
    for arr in params.values():
        arr[...] = rng.normal(0, scale, arr.shape)
    return model_or_net


# The embedding families check the batched forward/backward functions that
# train_epochs runs, on batches of 1-3 random windows.

def _predictive_config(kind):
    def gen(rng):
        model = _randomized(EmbeddingModel.create(
            kind, GRAD_VOCAB, 3, 5, 4, rng), rng)
        return flat_checker(model.params(), predictive_batch(model, rng, 6))
    return gen


def _full_softmax_config(rng):
    model = _randomized(EmbeddingModel.create("skipgram", GRAD_VOCAB, 3, 5,
                                              rng=rng), rng)
    tgt, ctx = random_windows(rng, 6, int(rng.integers(1, 4)))
    rows, tgts, wgts = _expand_charword_arrays(None, tgt, ctx, 0.0, False)
    return flat_checker(model.params(), lambda: _pair_batch_full_softmax(
        model, rows, tgts, wgts))


def _cw_config(rng):
    model = _randomized(EmbeddingModel.create("cw", GRAD_VOCAB, 3, 5, 4, rng),
                        rng, scale=1.0)
    batch = cw_batch(model, rng, 6)
    return flat_checker(model.params(), batch) if batch else None


def _charword_config(beta):
    space = build_charword_space(CHAR_VOCAB)

    def gen(rng):
        model = _randomized(EmbeddingModel.create(
            "skipgram", CHAR_VOCAB, 3, 5, rng=rng, tokens=space.tokens), rng)
        return flat_checker(model.params(),
                            charword_batch(model, space, rng, 6, beta))
    return gen


def _segmenter_config(rng):
    # a batch of 1-4 windows, as train_segmenter steps on
    net = SegmenterNet(list("abcdef"), dim=3, hidden=4, win=5, rng=rng)
    _randomized(net, rng)
    b = int(rng.integers(1, 5))
    windows = rng.integers(0, len(net.chars), (b, 5))
    golds = rng.integers(4, size=b)
    return flat_checker(net.params(),
                        lambda: segment_loss_grads(net, windows, golds))


def _pooled_config(make_model):
    def gen(rng):
        model = _randomized(make_model(rng), rng)
        n = int(rng.integers(2, 6))
        ids = model.encode([TC_VOCAB[int(rng.integers(7))] for _ in range(n)])
        cls = int(rng.integers(2))
        Y2 = model._forward([ids])["Y2"][:, 0]
        if Y2.shape[0] > 1:
            top2 = np.sort(Y2, axis=0)[-2:, :]
            if float(np.min(top2[1] - top2[0])) <= 1e-3:
                return None  # pooling argmax too close to a tie for FD
        return flat_checker(model.params(), lambda: model.loss_grads(ids, cls))
    return gen


FAMILIES = [
    ("skipgram", _predictive_config("skipgram")),
    ("cbow", _predictive_config("cbow")),
    ("order", _predictive_config("order")),
    ("lbl", _predictive_config("lbl")),
    ("nnlm", _predictive_config("nnlm")),
    ("skipgram full softmax", _full_softmax_config),
    ("cw", _cw_config),
    ("charword beta=0", _charword_config(0.0)),
    ("charword beta=0.5", _charword_config(0.5)),
    ("charword beta=1", _charword_config(1.0)),
    ("segmenter", _segmenter_config),
    ("rcnn", _pooled_config(lambda r: RcnnModel(TC_VOCAB, 2, 3, 3, 4, rng=r))),
    ("window-cnn", _pooled_config(
        lambda r: WindowCnnModel(TC_VOCAB, 2, 3, 3, 4, rng=r))),
]


def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    results = {}
    master = np.random.default_rng(20_24)
    for name, gen in FAMILIES:
        worst, checked = 0.0, 0
        while checked < N_CONFIGS:
            made = gen(np.random.default_rng(int(master.integers(2**31))))
            if made is None:
                continue
            f, theta = made
            _, g0 = f(theta)
            if in_noise_band(g0):
                # finite differences cannot resolve this configuration in
                # double precision; redraw (a wrongly scaled gradient still
                # fails loudly on every other configuration)
                continue
            worst = max(worst, gradient_check(f, theta, eps=1e-5))
            checked += 1
        results[name] = worst
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in results.items() if v >= TOLERANCE}
    detail = ", ".join(f"{k}={v:.2e}" for k, v in results.items())
    ok = not bad and elapsed < 300.0
    report(2, ok, f"max rel err per family ({N_CONFIGS} configs each, "
                  f"{elapsed:.0f}s): {detail}")


# -------------------------------------------------------------------------
# 3. matrix-factorization equivalence at desk scale
# -------------------------------------------------------------------------

def test_criterion_3_equivalence():
    t0 = time.perf_counter()
    rng = substream(42, "synthetic-corpus")
    V = 20
    weights = 1.0 / np.arange(1, V + 1)
    weights /= weights.sum()
    docs = [[f"w{int(i):02d}" for i in rng.choice(V, 100, p=weights)]
            for _ in range(2000)]
    corpus = CorpusStream(docs)
    vocab = build_vocabulary(corpus, 1)
    matrix = count_cooccurrences(corpus, vocab, 5)

    model = EmbeddingModel.create("skipgram", vocab, 24, 5,
                                  rng=substream(42, "init"))
    cfg = TrainConfig(lr=0.5, epochs=8, seed=42, batch_size=2048,
                      full_softmax=True)
    train_epochs(model, corpus, cfg)
    rep = skipgram_equivalence_report(matrix, model)

    fact, _ = factorize_log_counts(matrix, 24, "conditional_log",
                                   epochs=600, lr=0.2, seed=1)
    dense = dense_counts(matrix)
    target = np.log(dense / dense.sum(axis=0))
    fact_err = float(np.max(np.abs(score_matrix(fact) - target)))

    elapsed = time.perf_counter() - t0
    ok = rep["mean_kl"] < 0.01 and fact_err < 0.05 and elapsed < 600.0
    report(3, ok, f"|V|=20, {len(corpus.ids)} tokens: "
                  f"mean KL={rep['mean_kl']:.4f} (<0.01), "
                  f"conditional max |log err|={fact_err:.4f} (<0.05), "
                  f"{elapsed:.0f}s")


# -------------------------------------------------------------------------
# 4. viterbi vs exhaustive enumeration
# -------------------------------------------------------------------------

def _legal_sequences(n):
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


def _path_score(lattice, seq):
    total = 0.0
    for i in range(len(seq) - 1, -1, -1):
        total = lattice[i][seq[i]] + total
    return total


def test_criterion_4_viterbi_oracle():
    t0 = time.perf_counter()
    rng = substream(4, "viterbi")
    failures = 0
    for n in range(1, 9):
        seqs = _legal_sequences(n)
        for trial in range(1000):
            if trial % 2 == 0:
                lattice = rng.normal(size=(n, 4))
            else:
                # dyadic values make ties exact, exercising the tie rule
                lattice = rng.integers(0, 3, size=(n, 4)) * 0.25
            scored = [(_path_score(lattice, s), s) for s in seqs]
            best_score = max(s for s, _ in scored)
            best = min(s for sc, s in scored if sc == best_score)
            tags, score = viterbi_decode(lattice)
            if tuple(TAG_ID[t] for t in tags) != best or score != best_score:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    report(4, ok, f"8000 lattices (lengths 1..8) vs enumeration: "
                  f"{failures} mismatches, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 5. subsampling statistics
# -------------------------------------------------------------------------

def test_criterion_5_subsampling_statistics():
    t = 1e-4
    rng = substream(5, "subsample-mc")
    worst = 0.0
    rows = []
    for variant in ("paper", "toolkit"):
        for mult in (1, 2, 4, 16):
            freq = mult * t
            keep = subsample_keep_probability(freq, t, variant)
            skip_closed = min(1.0, max(0.0, 1.0 - keep))
            draws = rng.random(1_000_000) >= keep
            skip_emp = float(draws.mean())
            err = abs(skip_emp - skip_closed)
            worst = max(worst, err)
            rows.append(f"{variant} f={mult}t: {skip_emp:.4f} vs "
                        f"{skip_closed:.4f}")
    ok = worst <= 0.005
    report(5, ok, f"max |empirical-closed form| = {worst:.5f} (<=0.005); "
                  + "; ".join(rows))


# -------------------------------------------------------------------------
# 6/7. corpus-scale quality checks (user-supplied data)
# -------------------------------------------------------------------------

CORPUS_ENV = "EMBKIT_ACCEPT_CORPUS"
WORDSIM_ENV = "EMBKIT_ACCEPT_WORDSIM"
ANALOGY_ENV = "EMBKIT_ACCEPT_ANALOGY"

_corpus_cache = {}


def _require_corpus():
    path = os.environ.get(CORPUS_ENV)
    if not path:
        pytest.skip(f"set {CORPUS_ENV} to a ~20M-token one-document-per-line "
                    "text file (e.g. text8); see README")
    if "stream" not in _corpus_cache:
        stream = CorpusStream.from_text_file(path)
        vocab = build_vocabulary(stream, min_count=5)
        _corpus_cache["stream"] = stream
        _corpus_cache["vocab"] = vocab
    return _corpus_cache["stream"], _corpus_cache["vocab"]


def _train_kind(kind, stream, vocab, seed, hidden=50, epochs=5):
    model = EmbeddingModel.create(kind, vocab, 50, 5, hidden,
                                  substream(seed, f"init-{kind}"))
    cfg = TrainConfig(negatives=5, lr=0.1, optimizer="adagrad", epochs=epochs,
                      subsample_t=1e-4, seed=seed, batch_size=4096,
                      precision="float32")
    train_epochs(model, stream, cfg)
    return EmbeddingTable(model.tokens, model.e)


def test_criterion_6_desk_scale_quality():
    ws_path = os.environ.get(WORDSIM_ENV)
    if not ws_path:
        pytest.skip(f"set {WORDSIM_ENV} to a WordSim353 tsv "
                    "(word_a<TAB>word_b<TAB>score); see README")
    stream, vocab = _require_corpus()
    t0 = time.perf_counter()
    pairs = load_similarity(ws_path)

    table_sg = _train_kind("skipgram", stream, vocab, seed=1)
    _corpus_cache["table_sg"] = table_sg
    res_sg = eval_similarity(table_sg, pairs)

    table_cbow = _train_kind("cbow", stream, vocab, seed=2)
    _corpus_cache["table_cbow"] = table_cbow
    res_cbow = eval_similarity(table_cbow, pairs)

    rng = substream(12345, "random-vectors")
    table_rand = EmbeddingTable(vocab.tokens,
                                rng.uniform(-1, 1, (len(vocab), 50)))
    res_rand = eval_similarity(table_rand, pairs)

    elapsed = time.perf_counter() - t0
    coverage = res_sg["covered_pairs"] / res_sg["total_pairs"]
    ok = (res_sg["pearson"] >= 0.35 and coverage >= 0.80
          and abs(res_cbow["pearson"] - res_sg["pearson"]) <= 0.10
          and abs(res_rand["pearson"]) < 0.1
          and elapsed < 1800.0)
    report(6, ok, f"skipgram rho={res_sg['pearson']:.3f} (>=0.35), "
                  f"coverage={coverage:.2f} (>=0.80), "
                  f"cbow rho={res_cbow['pearson']:.3f} (within 0.10), "
                  f"random rho={res_rand['pearson']:.3f} (|.|<0.1), "
                  f"{elapsed/60:.1f} min (<30)")


def test_criterion_7_cw_no_linear_relations():
    analogy_path = os.environ.get(ANALOGY_ENV)
    if not analogy_path:
        pytest.skip(f"set {ANALOGY_ENV} to an analogy question file "
                    "(': category' headers + 'a b c d' lines); see README")
    stream, vocab = _require_corpus()
    questions = load_analogies(analogy_path)

    table_cbow = _corpus_cache.get("table_cbow")
    if table_cbow is None:
        table_cbow = _train_kind("cbow", stream, vocab, seed=2)

    # deterministic 200-question subset: the first fully covered questions
    subset = [q for q in questions
              if all(w in table_cbow for w in (q.a, q.b, q.c, q.expected))]
    subset = subset[:200]
    if len(subset) < 200:
        pytest.skip("fewer than 200 analogy questions covered by the corpus")

    table_cw = _train_kind("cw", stream, vocab, seed=3, epochs=3)
    res_cbow = eval_analogy(table_cbow, subset)
    res_cw = eval_analogy(table_cw, subset)
    ok = res_cw["accuracy"] < res_cbow["accuracy"]
    report(7, ok, f"C&W analogy={res_cw['accuracy']:.3f} < "
                  f"CBOW analogy={res_cbow['accuracy']:.3f} on 200 questions")


# -------------------------------------------------------------------------
# 8. segmenter capacity on an annotated toy corpus
# -------------------------------------------------------------------------

def _toy_segmentation_corpus(n_sentences=100):
    """Synthetic annotated language; a few characters are role-ambiguous
    (both word-final and single), so windows matter."""
    rng = substream(8, "toy-seg-corpus")
    starters = list("把村学电明")
    enders = list("里校脑天候")
    mids = list("一二")
    singles = list("我你他的了") + ["天", "候"]
    lexicon = ([s + e for s in starters for e in enders]
               + [s + m + e for s in starters[:3] for m in mids
                  for e in enders[:3]]
               + singles)
    sentences = []
    for _ in range(n_sentences):
        k = int(rng.integers(4, 9))
        sentences.append([lexicon[int(rng.integers(len(lexicon)))]
                          for _ in range(k)])
    return sentences


def test_criterion_8_segmenter_capacity():
    t0 = time.perf_counter()
    sentences = _toy_segmentation_corpus(100)

    tagged = [tags_from_segmentation(s) for s in sentences]
    chars = sorted({c for t in tagged for c in t.chars})
    net = SegmenterNet(chars, dim=20, hidden=40, win=5,
                       rng=substream(8, "init-full"))
    train_segmenter(net, tagged, lr=0.1, epochs=60, seed=8)
    train_pred = [decode_sentence(net, t.chars) for t in tagged]
    train_f = prf_corpus(train_pred, sentences)["f1"]

    train_s, dev_s = sentences[:90], sentences[90:]
    tagged_tr = [tags_from_segmentation(s) for s in train_s]
    chars_tr = sorted({c for t in tagged_tr for c in t.chars})
    net2 = SegmenterNet(chars_tr, dim=20, hidden=40, win=5,
                        rng=substream(8, "init-split"))
    train_segmenter(net2, tagged_tr, lr=0.1, epochs=60, seed=9)
    dev_pred = [decode_sentence(net2, tags_from_segmentation(s).chars)
                for s in dev_s]
    dev_f = prf_corpus(dev_pred, dev_s)["f1"]

    elapsed = time.perf_counter() - t0
    ok = train_f >= 0.99 and dev_f >= 0.80 and elapsed < 300.0
    report(8, ok, f"train F={train_f:.4f} (>=0.99), "
                  f"held-out F={dev_f:.4f} (>=0.80), {elapsed:.0f}s (<300)")


# -------------------------------------------------------------------------
# 9. rcnn properties
# -------------------------------------------------------------------------

def _order_encoded_docs(rng, n, length=40):
    """The class is encoded purely in the order of 'key' and 'mark', which
    sit more than 15 tokens from both document ends; unigram content is
    identical across classes."""
    fillers = [f"f{i}" for i in range(8)]
    docs = []
    for _ in range(n):
        cls = int(rng.integers(2))
        tokens = [fillers[int(rng.integers(8))] for _ in range(length)]
        p = int(rng.integers(16, length - 17))
        if cls == 0:
            tokens[p], tokens[p + 1] = "key", "mark"
        else:
            tokens[p], tokens[p + 1] = "mark", "key"
        docs.append(LabeledDocument(tuple(tokens), cls))
    return docs


def test_criterion_9_rcnn_properties():
    t0 = time.perf_counter()
    rng = substream(99, "planted")
    train = _order_encoded_docs(rng, 300)
    dev = _order_encoded_docs(rng, 60)
    test = _order_encoded_docs(rng, 200)
    tokens = sorted({t for d in train for t in d.tokens})

    rcnn = RcnnModel(tokens, 2, dim=12, context_dim=12, hidden=24,
                     rng=substream(99, "init"))
    best, _ = train_classifier(rcnn, train, dev, lr=0.05, epochs=40, seed=99)
    restore_params(rcnn, best, "snapshot")
    rcnn_acc = rcnn.accuracy(test)

    cnn = WindowCnnModel(tokens, 2, dim=12, win=1, hidden=24,
                         rng=substream(99, "init2"))
    best2, _ = train_classifier(cnn, train, dev, lr=0.05, epochs=40, seed=99)
    restore_params(cnn, best2, "snapshot")
    cnn_acc = cnn.accuracy(test)

    # (a) forward cost is linear: doubling length <= 2.3x, 100 runs each
    doc_a = [tokens[i % 8] for i in range(60)]
    doc_b = doc_a * 2
    rcnn.batch_logits([doc_a])
    times_a = times_b = 0.0
    for _ in range(100):
        t = time.perf_counter()
        rcnn.batch_logits([doc_a])
        times_a += time.perf_counter() - t
        t = time.perf_counter()
        rcnn.batch_logits([doc_b])
        times_b += time.perf_counter() - t
    ratio = times_b / times_a

    # (c) most frequently pooled phrase contains the planted keyword
    ranked = extract_key_phrases(rcnn, [d.tokens for d in test], 3)
    top_phrase = ranked[0][0]

    elapsed = time.perf_counter() - t0
    ok = (ratio <= 2.3 and rcnn_acc >= 0.95 and cnn_acc <= 0.80
          and "key" in top_phrase and elapsed < 600.0)
    report(9, ok, f"forward-time ratio={ratio:.2f} (<=2.3), "
                  f"rcnn test acc={rcnn_acc:.3f} (>=0.95), "
                  f"win=1 cnn acc={cnn_acc:.3f} (<=0.80), "
                  f"top phrase={' '.join(top_phrase)!r} contains 'key', "
                  f"{elapsed:.0f}s (<600)")


# -------------------------------------------------------------------------
# 10. bit-identical checkpoints across reruns
# -------------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    from embkit.cli import run

    rng = np.random.default_rng(10)
    emb_corpus = tmp_path / "corpus.txt"
    emb_corpus.write_text("\n".join(
        " ".join(f"w{rng.integers(12)}" for _ in range(30))
        for _ in range(50)) + "\n", encoding="utf-8")

    seg_corpus = tmp_path / "seg.txt"
    sentences = _toy_segmentation_corpus(25)
    seg_corpus.write_text("\n".join("/".join(s) for s in sentences) + "\n",
                          encoding="utf-8")

    cls_corpus = tmp_path / "cls.tsv"
    cls_rng = np.random.default_rng(11)
    cls_lines = []
    for _ in range(24):
        cls = int(cls_rng.integers(2))
        tokens = [f"f{cls_rng.integers(6)}" for _ in range(12)]
        tokens[5] = "pos" if cls else "neg"
        cls_lines.append(f"{cls}\t" + " ".join(tokens))
    cls_corpus.write_text("\n".join(cls_lines) + "\n", encoding="utf-8")

    vocab_path = tmp_path / "vocab.tsv"
    cooc_path = tmp_path / "cooc.tsv"
    assert run(["cooccur", "--corpus", str(emb_corpus), "--win", "5",
                "--out", str(cooc_path), "--save-vocab", str(vocab_path)]) == 0

    pipelines = {
        "train-emb": lambda out: ["train-emb", "--kind", "skipgram",
                                  "--corpus", str(emb_corpus), "--dim", "8",
                                  "--epochs", "2", "--seed", "3",
                                  "--t", "0.01",
                                  "--out", str(out) + ".vec",
                                  "--model-out", str(out)],
        "factorize": lambda out: ["factorize", "--cooccur", str(cooc_path),
                                  "--vocab", str(vocab_path),
                                  "--objective", "glove", "--dim", "6",
                                  "--epochs", "10", "--seed", "3",
                                  "--out", str(out)],
        "segment-train": lambda out: ["segment-train", "--corpus",
                                      str(seg_corpus), "--dim", "6",
                                      "--hidden", "8", "--epochs", "3",
                                      "--seed", "3", "--out", str(out)],
        "classify-train": lambda out: ["classify-train", "--train",
                                       str(cls_corpus), "--model", "rcnn",
                                       "--dim", "5", "--context-dim", "5",
                                       "--hidden", "6", "--epochs", "2",
                                       "--seed", "3", "--out", str(out)],
    }
    mismatched = []
    for name, build in pipelines.items():
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.bin"
            assert run(build(out)) == 0, f"{name} run failed"
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            mismatched.append(name)
    ok = not mismatched
    report(10, ok, "bit-identical checkpoints for train-emb, factorize, "
                   "segment-train, classify-train"
           if ok else f"mismatched pipelines: {mismatched}")
