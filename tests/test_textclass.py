import inspect
from collections import Counter

import numpy as np
import pytest

from conftest import dense_grads, flat_checker, gradient_check, in_noise_band
from embkit import textclass
from embkit.corpus import window_matrix
from embkit.errors import DataError, NumericError
from embkit.io_formats import restore_params
from embkit.optim import EpochRecord, log_softmax
from embkit.textclass import (LabeledDocument, RcnnModel, WindowCnnModel,
                              extract_key_phrases, load_labeled_documents,
                              train_classifier)

VOCAB = [f"t{i}" for i in range(8)]


def forward_one(model, ids):
    """The batched forward of one document, without its batch axis."""
    cache = model._forward([ids])
    return {"X": cache["X"][:, 0], "Y2": cache["Y2"][:, 0],
            "argmax": cache["argmax"][0], "y3": cache["y3"][0],
            "y4": cache["y4"][0]}


def context_scans(model, ids):
    """Left and right context sequences of one document, read from X."""
    X = forward_one(model, ids)["X"]
    c = model.context_dim
    return X[:, :c], X[:, c + model.dim:]


def _direction_scans(model, ids):
    """Oracle: one tanh scan per direction, one position at a time."""
    n, c = len(ids), model.context_dim
    CL, CR = np.empty((n, c)), np.empty((n, c))
    CL[0], CR[n - 1] = model.cl_init, model.cr_init
    for i in range(1, n):
        CL[i] = np.tanh(model.W_l @ CL[i - 1] + model.W_sl @ model.e[ids[i - 1]])
    for i in range(n - 2, -1, -1):
        CR[i] = np.tanh(model.W_r @ CR[i + 1] + model.W_sr @ model.e[ids[i + 1]])
    return CL, CR


def _document_forward(model, ids):
    """Oracle: the pooled head on one unpadded document."""
    if isinstance(model, RcnnModel):
        CL, CR = _direction_scans(model, ids)
        X = np.concatenate([CL, model.e[ids], CR], axis=1)
    else:
        X = model.e[window_matrix(ids, model.win, model.pad_id)].reshape(
            len(ids), -1)
    Y2 = np.tanh(X @ model.W2.T + model.b2)
    argmax = Y2.argmax(axis=0)
    y3 = Y2[argmax, np.arange(Y2.shape[1])]
    return {"X": X, "Y2": Y2, "argmax": argmax, "y3": y3,
            "y4": model.W4 @ y3 + model.b4}


def rand_rcnn(seed, n_classes=2, dim=3, cdim=3, hidden=4):
    r = np.random.default_rng(seed)
    model = RcnnModel(VOCAB, n_classes, dim, cdim, hidden, rng=r)
    for v in model.params().values():
        v[...] = r.normal(0, 0.8, v.shape)
    return model


def test_context_scans_single_word_doc():
    model = rand_rcnn(0)
    CL, CR = context_scans(model, model.encode(["t3"]))
    assert CL[0] == pytest.approx(model.cl_init)
    assert CR[0] == pytest.approx(model.cr_init)


def test_context_scans_zero_matrices():
    model = rand_rcnn(1)
    model.W_l[...] = 0.0
    model.W_sl[...] = 0.0
    CL, _ = context_scans(model, model.encode(["t0", "t1", "t2"]))
    assert CL[0] == pytest.approx(model.cl_init)
    assert CL[1:] == pytest.approx(np.zeros((2, 3)), abs=1e-15)


def test_context_scans_match_hand_arithmetic():
    model = rand_rcnn(2)
    ids = model.encode(["t1", "t4"])
    CL, CR = context_scans(model, ids)
    assert CL[0] == pytest.approx(model.cl_init)
    assert CL[1] == pytest.approx(
        np.tanh(model.W_l @ model.cl_init + model.W_sl @ model.e[ids[0]]),
        abs=1e-12)
    assert CR[1] == pytest.approx(model.cr_init)
    assert CR[0] == pytest.approx(
        np.tanh(model.W_r @ model.cr_init + model.W_sr @ model.e[ids[1]]),
        abs=1e-12)


def test_left_scan_ignores_right_words():
    model = rand_rcnn(3)
    base = context_scans(model, model.encode(["t0", "t1", "t2", "t3"]))[0]
    changed = context_scans(model, model.encode(["t0", "t1", "t7", "t5"]))[0]
    # c_l at positions 0..2 only depends on words 0..1
    assert base[:3] == pytest.approx(changed[:3], abs=1e-15)
    assert not np.allclose(base[3], changed[3])


def test_right_scan_ignores_left_words():
    model = rand_rcnn(4)
    base = context_scans(model, model.encode(["t0", "t1", "t2", "t3"]))[1]
    changed = context_scans(model, model.encode(["t6", "t5", "t2", "t3"]))[1]
    assert base[1:] == pytest.approx(changed[1:], abs=1e-15)
    assert not np.allclose(base[0], changed[0])


def test_document_logits_sum_to_one_and_match_recompute():
    model = rand_rcnn(5)
    tokens = ["t2", "t6", "t1"]
    ids = model.encode(tokens)
    CL, CR = context_scans(model, ids)
    X = np.concatenate([CL, model.e[ids], CR], axis=1)
    Y2 = np.tanh(X @ model.W2.T + model.b2)
    y3 = Y2.max(axis=0)
    y4 = model.W4 @ y3 + model.b4
    logits = model.batch_logits([tokens])[0]
    assert logits == pytest.approx(y4, abs=1e-10)
    probs = np.exp(log_softmax(logits))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_word_doc_pooling_is_identity():
    model = rand_rcnn(6)
    ids = model.encode(["t0"])
    cache = forward_one(model, ids)
    assert cache["y3"] == pytest.approx(cache["Y2"][0])


def test_duplicating_max_word_keeps_pooled_vector():
    # with the recurrent parts zeroed, each word's representation no longer
    # depends on its position, so duplication exercises pure max idempotence
    model = rand_rcnn(7)
    for name in ("W_l", "W_r", "W_sl", "W_sr", "cl_init", "cr_init"):
        getattr(model, name)[...] = 0.0
    y3_before = forward_one(model, model.encode(["t0", "t1"]))["y3"]
    cache2 = forward_one(model, model.encode(["t0", "t1", "t0", "t1"]))
    assert cache2["y3"] == pytest.approx(y3_before, abs=1e-12)


def test_pooling_perturbation_dead_zone():
    model = rand_rcnn(8)
    cache = forward_one(model, model.encode(["t0", "t3", "t5"]))
    Y2 = cache["Y2"].copy()
    am = cache["argmax"]
    for k in range(Y2.shape[1]):
        non_argmax = [i for i in range(Y2.shape[0]) if i != am[k]]
        gap = Y2[am[k], k] - max(Y2[i, k] for i in non_argmax)
        bumped = Y2.copy()
        bumped[non_argmax[0], k] += 0.5 * gap
        assert bumped.max(axis=0)[k] == Y2.max(axis=0)[k]


def test_pooling_ties_break_to_first_position():
    model = rand_rcnn(9)
    # zero head weights tie every position at tanh(0); first index must win
    model.W2[...] = 0.0
    model.b2[...] = 0.0
    cache = forward_one(model, model.encode(["t4", "t1", "t6"]))
    assert np.all(cache["argmax"] == 0)


def test_rcnn_gradients_through_pooling_and_scans():
    worst, checked = 0.0, 0
    master = np.random.default_rng(10)
    while checked < 8:
        seed = int(master.integers(2**31))
        model = rand_rcnn(seed)
        r = np.random.default_rng(seed + 1)
        n = int(r.integers(2, 6))
        ids = model.encode([VOCAB[int(r.integers(8))] for _ in range(n)])
        cls = int(r.integers(2))
        f, theta = flat_checker(model.params(),
                                lambda: model.loss_grads(ids, cls))
        _, g0 = f(theta)
        Y2 = forward_one(model, ids)["Y2"]
        gap_ok = True
        if Y2.shape[0] > 1:
            top2 = np.sort(Y2, axis=0)[-2:, :]
            gap_ok = float(np.min(top2[1] - top2[0])) > 1e-3
        if not gap_ok or in_noise_band(g0):
            continue
        worst = max(worst, gradient_check(f, theta))
        checked += 1
    assert worst < 1e-4


def test_wincnn_gradients():
    worst, checked = 0.0, 0
    master = np.random.default_rng(11)
    while checked < 8:
        seed = int(master.integers(2**31))
        r = np.random.default_rng(seed)
        model = WindowCnnModel(VOCAB, 2, dim=3, win=3, hidden=4, rng=r)
        for v in model.params().values():
            v[...] = r.normal(0, 0.8, v.shape)
        n = int(r.integers(1, 6))
        ids = model.encode([VOCAB[int(r.integers(8))] for _ in range(n)])
        cls = int(r.integers(2))
        f, theta = flat_checker(model.params(),
                                lambda: model.loss_grads(ids, cls))
        _, g0 = f(theta)
        Y2 = forward_one(model, ids)["Y2"]
        gap_ok = True
        if Y2.shape[0] > 1:
            top2 = np.sort(Y2, axis=0)[-2:, :]
            gap_ok = float(np.min(top2[1] - top2[0])) > 1e-3
        if not gap_ok or in_noise_band(g0):
            continue
        worst = max(worst, gradient_check(f, theta))
        checked += 1
    assert worst < 1e-4


def test_truncated_bptt_matches_full_on_short_docs():
    model = rand_rcnn(12)
    ids = model.encode(["t0", "t1", "t2"])
    full_loss, full_grads = model.loss_grads(ids, 1, truncate=None)
    # truncation window longer than the document changes nothing
    trunc_loss, trunc_grads = model.loss_grads(ids, 1, truncate=10)
    assert trunc_loss == full_loss
    full = dense_grads(model.params(), full_grads)
    trunc = dense_grads(model.params(), trunc_grads)
    for k in full:
        assert np.array_equal(full[k], trunc[k])


def _positionwise_loss_grads(model, ids, class_id, truncate):
    """Oracle: one scan per direction and backpropagation through time one
    position at a time, each step forming its own input projection and
    outer products."""
    n, c, e = len(ids), model.context_dim, model.dim
    CL, CR = _direction_scans(model, ids)
    E = model.e[ids]
    X = np.concatenate([CL, E, CR], axis=1)
    Y2 = np.tanh(X @ model.W2.T + model.b2)
    argmax = Y2.argmax(axis=0)
    y3 = Y2[argmax, np.arange(Y2.shape[1])]
    lsm = log_softmax(model.W4 @ y3 + model.b4)
    dy4 = np.exp(lsm)
    dy4[class_id] -= 1.0
    dY2 = np.zeros_like(Y2)
    dY2[argmax, np.arange(Y2.shape[1])] = model.W4.T @ dy4
    dA = dY2 * (1.0 - Y2 * Y2)
    grads = {"W2": dA.T @ X, "b2": dA.sum(axis=0), "W4": np.outer(dy4, y3),
             "b4": dy4}
    dX = dA @ model.W2
    for name in ("W_l", "W_r", "W_sl", "W_sr"):
        grads[name] = np.zeros_like(getattr(model, name))
    dCL, dE, dCR = dX[:, :c].copy(), dX[:, c:c + e].copy(), dX[:, c + e:].copy()
    for i in range(n - 1, 0, -1):
        dpre = dCL[i] * (1.0 - CL[i] * CL[i])
        grads["W_l"] += np.outer(dpre, CL[i - 1])
        grads["W_sl"] += np.outer(dpre, E[i - 1])
        dE[i - 1] += model.W_sl.T @ dpre
        if truncate is None or i % truncate != 0:
            dCL[i - 1] += model.W_l.T @ dpre
    grads["cl_init"] = dCL[0]
    for i in range(0, n - 1):
        dpre = dCR[i] * (1.0 - CR[i] * CR[i])
        grads["W_r"] += np.outer(dpre, CR[i + 1])
        grads["W_sr"] += np.outer(dpre, E[i + 1])
        dE[i + 1] += model.W_sr.T @ dpre
        if truncate is None or (n - 1 - i) % truncate != 0:
            dCR[i + 1] += model.W_r.T @ dpre
    grads["cr_init"] = dCR[n - 1]
    grads["e"] = (ids, dE)
    return -float(lsm[class_id]), grads


@pytest.mark.parametrize("truncate", [None, 1, 2, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_rcnn_loss_grads_match_positionwise_oracle(n, truncate):
    model = rand_rcnn(100 + n, n_classes=3, dim=4, cdim=5, hidden=6)
    r = np.random.default_rng(n)
    ids = model.encode([VOCAB[int(k)] for k in r.integers(8, size=n)])
    loss, grads = model.loss_grads(ids, 2, truncate=truncate)
    want_loss, want = _positionwise_loss_grads(model, ids, 2, truncate)
    assert loss == pytest.approx(want_loss, abs=1e-12)
    got = dense_grads(model.params(), grads)
    want = dense_grads(model.params(), want)
    for k in want:
        assert np.abs(got[k] - want[k]).max() <= 1e-12, k


def _trained(kind, truncate):
    """A classifier after two epochs on keyword documents."""
    rng = np.random.default_rng(30)
    train = make_keyword_docs(rng, 12)
    tokens = sorted({t for d in train for t in d.tokens})
    init = np.random.default_rng(1)
    if kind == "rcnn":
        model = RcnnModel(tokens, 3, dim=4, context_dim=5, hidden=6, rng=init)
    else:
        model = WindowCnnModel(tokens, 3, dim=4, win=3, hidden=6, rng=init)
    best, _ = train_classifier(model, train, train,
                               lr=0.05, epochs=2, seed=2, truncate=truncate)
    restore_params(model, best, "snapshot")
    return model


def _mixed_docs(seed):
    """Documents of lengths 1, 2 and 40 and a few between; some tokens are
    out of the vocabulary."""
    rng = np.random.default_rng(seed)
    words = [f"t{i}" for i in range(8)] + ["goodkw", "badkw", "unseen"]
    return [[words[int(k)] for k in rng.integers(len(words), size=n)]
            for n in (1, 40, 2, 1, 17, 2, 40, 5)]


def _oracle_key_phrases(model, docs, phrase_len, labels=None):
    half = (phrase_len - 1) // 2
    counters = {}
    for k, tokens in enumerate(docs):
        counter = counters.setdefault(None if labels is None else labels[k],
                                      Counter())
        for pos in _document_forward(model, model.encode(tokens))["argmax"]:
            counter[tuple(tokens[max(0, pos - half):pos + half + 1])] += 1
    ranked = {label: sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
              for label, c in counters.items()}
    return ranked[None] if labels is None else ranked


@pytest.mark.parametrize("truncate", [None, 3])
@pytest.mark.parametrize("kind", ["rcnn", "wincnn"])
def test_batched_forward_matches_per_document_oracle(kind, truncate):
    model = _trained(kind, truncate)
    ids = [model.encode(d) for d in _mixed_docs(31)]
    cache = model._forward(ids)
    assert cache["X"].shape[:2] == (40, len(ids))
    for b, doc in enumerate(ids):
        want, n = _document_forward(model, doc), len(doc)
        assert np.abs(cache["X"][:n, b] - want["X"]).max() <= 1e-12
        assert np.abs(cache["Y2"][:n, b] - want["Y2"]).max() <= 1e-12
        assert np.all(cache["Y2"][n:, b] == -np.inf)
        assert np.array_equal(cache["argmax"][b], want["argmax"])
        assert np.abs(cache["y4"][b] - want["y4"]).max() <= 1e-12


@pytest.mark.parametrize("block", [24, textclass.EVAL_BLOCK])
@pytest.mark.parametrize("truncate", [None, 3])
@pytest.mark.parametrize("kind", ["rcnn", "wincnn"])
def test_batched_evaluation_matches_per_document_oracle(kind, truncate, block,
                                                        monkeypatch):
    monkeypatch.setattr(textclass, "EVAL_BLOCK", block)
    model = _trained(kind, truncate)
    docs = _mixed_docs(32)
    want = np.array([_document_forward(model, model.encode(d))["y4"]
                     for d in docs])
    assert np.abs(model.batch_logits(docs) - want).max() <= 1e-12
    predicted = want.argmax(axis=1).tolist()
    assert model.predict_all(docs) == predicted
    assert [model.predict_all([d])[0] for d in docs] == predicted
    labeled = [LabeledDocument(tuple(d), k % 3) for k, d in enumerate(docs)]
    hits = sum(p == d.class_id for p, d in zip(predicted, labeled))
    assert model.accuracy(labeled) == hits / len(docs)
    labels = [d.class_id for d in labeled]
    assert extract_key_phrases(model, docs, 3) == \
        _oracle_key_phrases(model, docs, 3)
    assert extract_key_phrases(model, docs, 5, labels) == \
        _oracle_key_phrases(model, docs, 5, labels)


def test_window_representation_win1_is_word_vector():
    r = np.random.default_rng(13)
    model = WindowCnnModel(VOCAB, 2, dim=3, win=1, hidden=4, rng=r)
    ids = model.encode(["t2", "t5"])
    x = model._inputs([ids], np.array([len(ids)]))["X"][0, 0]
    assert x == pytest.approx(model.e[ids[0]])


def test_window_representation_win3():
    r = np.random.default_rng(14)
    model = WindowCnnModel(VOCAB, 2, dim=3, win=3, hidden=4, rng=r)
    ids = model.encode(["t1", "t2", "t3"])
    x = model._inputs([ids], np.array([len(ids)]))["X"][1, 0]
    expected = np.concatenate([model.e[ids[0]], model.e[ids[1]],
                               model.e[ids[2]]])
    assert x == pytest.approx(expected)


def test_window_representation_boundary_padding():
    r = np.random.default_rng(15)
    model = WindowCnnModel(VOCAB, 2, dim=3, win=3, hidden=4, rng=r)
    ids = model.encode(["t1", "t2"])
    x = model._inputs([ids], np.array([len(ids)]))["X"][0, 0]
    expected = np.concatenate([model.e[model.pad_id], model.e[ids[0]],
                               model.e[ids[1]]])
    assert x == pytest.approx(expected)


def make_keyword_docs(rng, n_docs, length=12):
    fillers = [f"t{i}" for i in range(8)]
    docs = []
    for _ in range(n_docs):
        cls = int(rng.integers(2))
        tokens = [fillers[int(rng.integers(8))] for _ in range(length)]
        tokens[int(rng.integers(2, length - 2))] = "goodkw" if cls else "badkw"
        docs.append(LabeledDocument(tuple(tokens), cls))
    return docs


def test_rcnn_overfits_planted_keywords():
    rng = np.random.default_rng(16)
    train = make_keyword_docs(rng, 20)
    tokens = sorted({t for d in train for t in d.tokens})
    model = RcnnModel(tokens, 2, dim=6, context_dim=6, hidden=10,
                      rng=np.random.default_rng(0))
    best, history = train_classifier(model, train, train,
                                     lr=0.05, epochs=50, seed=1)
    restore_params(model, best, "snapshot")
    assert model.accuracy(train) == 1.0


def test_wincnn_trains_on_keywords():
    rng = np.random.default_rng(17)
    train = make_keyword_docs(rng, 20)
    tokens = sorted({t for d in train for t in d.tokens})
    model = WindowCnnModel(tokens, 2, dim=6, win=1, hidden=10,
                           rng=np.random.default_rng(0))
    best, _ = train_classifier(model, train, train,
                               lr=0.05, epochs=50, seed=1)
    restore_params(model, best, "snapshot")
    assert model.accuracy(train) == 1.0


@pytest.mark.parametrize("model_cls", [RcnnModel, WindowCnnModel])
def test_train_classifier_records_dev_accuracy_and_keeps_best(model_cls):
    rng = np.random.default_rng(18)
    train, dev = make_keyword_docs(rng, 6), make_keyword_docs(rng, 2)
    tokens = sorted({t for d in train for t in d.tokens})

    def trained(epochs, dev_accuracies):
        model = model_cls(tokens, 2, dim=4, hidden=6,
                          rng=np.random.default_rng(2))
        scripted = iter(dev_accuracies)
        model.accuracy = lambda docs: next(scripted)
        return model, *train_classifier(model, train, dev,
                                        lr=0.05, epochs=epochs, seed=4)

    _, best, records = trained(5, [0.5, 0.75, 0.25, 0.75, 0.5])
    assert all(isinstance(r, EpochRecord) for r in records)
    assert [(r.epoch, r.n_units, r.dev_accuracy) for r in records] == [
        (0, 6, 0.5), (1, 6, 0.75), (2, 6, 0.25), (3, 6, 0.75), (4, 6, 0.5)]
    assert all(np.isfinite(r.mean_loss) and r.mean_loss > 0 for r in records)
    # the snapshot holds the parameters after epoch 3, the last best on dev
    replay, _, _ = trained(4, [0.0] * 4)
    for name, value in replay.params().items():
        assert np.array_equal(best[name], value), name


@pytest.mark.parametrize("model_cls", [RcnnModel, WindowCnnModel])
def test_diverging_classifier_raises_numeric_error_without_warnings(model_cls):
    # the suite turns RuntimeWarning into an error, so an overflow warning
    # on the way to a non-finite value would fail this test
    train = make_keyword_docs(np.random.default_rng(19), 6)
    tokens = sorted({t for d in train for t in d.tokens})
    model = model_cls(tokens, 2, dim=4, hidden=6, rng=np.random.default_rng(2))
    with pytest.raises(NumericError):
        train_classifier(model, train, train, lr=1e308, epochs=2)


def test_train_classifier_requires_two_classes():
    docs = [LabeledDocument(("t0",), 0)] * 4
    model = RcnnModel(VOCAB, 2, 3, 3, 4)
    with pytest.raises(DataError):
        train_classifier(model, docs, docs, epochs=1)


def test_train_classifier_deterministic():
    rng = np.random.default_rng(18)
    train = make_keyword_docs(rng, 12)
    tokens = sorted({t for d in train for t in d.tokens})
    snaps = []
    for _ in range(2):
        model = RcnnModel(tokens, 2, dim=4, context_dim=4, hidden=5,
                          rng=np.random.default_rng(3))
        best, _ = train_classifier(model, train, train,
                                   lr=0.02, epochs=3, seed=7)
        snaps.append(best)
    for k in snaps[0]:
        assert np.array_equal(snaps[0][k], snaps[1][k])


def test_extract_key_phrases_single_word_docs():
    model = rand_rcnn(19)
    ranked = extract_key_phrases(model, [["t0"], ["t1"], ["t0"]], 3)
    phrases = dict(ranked)
    assert phrases[("t0",)] == 2 * model.hidden
    assert phrases[("t1",)] == model.hidden


def test_extract_key_phrases_counts_per_class():
    model = rand_rcnn(20)
    docs = [["t0", "t1"], ["t2", "t3"]]
    out = extract_key_phrases(model, docs, 3, labels=[0, 1])
    assert set(out) == {0, 1}
    assert sum(c for _, c in out[0]) == model.hidden
    assert sum(c for _, c in out[1]) == model.hidden


def test_load_labeled_documents(tmp_path):
    path = tmp_path / "docs.tsv"
    path.write_text("0\thello world\n1\tfoo bar baz\n", encoding="utf-8")
    docs = load_labeled_documents(path)
    assert docs[0] == LabeledDocument(("hello", "world"), 0)
    assert docs[1].class_id == 1
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_labeled_documents(bad)
    bad.write_text("0\thello\n\n1 no tab\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_labeled_documents(bad)
    assert str(err.value) == f"{bad}:3: expected 'label<TAB>tokens'"


def test_empty_document_errors():
    model = rand_rcnn(21)
    with pytest.raises(DataError):
        model.batch_logits([[]])


def test_paper_default_hyperparameters():
    # the documented defaults: lr 0.01, hidden 100, word and context dim 50
    assert inspect.signature(train_classifier).parameters["lr"].default == 0.01
    model = RcnnModel(["a", "b"], 2)
    assert model.dim == 50 and model.context_dim == 50 and model.hidden == 100
