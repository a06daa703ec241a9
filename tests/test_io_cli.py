import argparse
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import embkit
from embkit.cli import _build_parser, run
from embkit.corpus import Vocabulary, save_vocabulary
from embkit.errors import DataError
from embkit.io_formats import (EmbeddingTable, load_container,
                               load_embeddings, save_container,
                               save_embeddings)


def test_embedding_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    table = EmbeddingTable([f"w{i}" for i in range(100)],
                           rng.normal(size=(100, 50)))
    path = tmp_path / "emb.vec"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert loaded.tokens == table.tokens
    assert np.max(np.abs(loaded.vectors - table.vectors)) <= 1e-6


def test_embedding_round_trip_unusual_tokens(tmp_path):
    tokens = ["\x02UNK", "中文", "a/b", "\ufeffbom", "x\u200by"]  # no isspace()
    path = tmp_path / "emb.vec"
    save_embeddings(EmbeddingTable(tokens, np.eye(5)), path)
    assert load_embeddings(path).tokens == tokens


@pytest.mark.parametrize("token", ["a b", "", "a\tb", "a\rb", "x\u3000y",
                                   "\x1c", "\u2028", "end\n"])
def test_save_embeddings_rejects_whitespace_token(tmp_path, token):
    path = tmp_path / "emb.vec"
    save_embeddings(EmbeddingTable(["a", "b"], np.eye(2)), path)
    before = path.read_bytes()
    with pytest.raises(DataError, match="whitespace"):
        save_embeddings(EmbeddingTable(["c", token], np.eye(2)), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["emb.vec"]


def test_embedding_empty_vocabulary_errors():
    with pytest.raises(DataError):
        EmbeddingTable([], np.zeros((0, 3)))


def test_embedding_header_mismatch_errors(tmp_path):
    path = tmp_path / "bad.vec"
    path.write_text("2 3\na 1 2 3\nb 1 2 3\nc 1 2 3\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_embeddings(path)
    assert str(err.value) == f"{path}:4: more rows than the header says"


def test_embedding_short_row_errors(tmp_path):
    path = tmp_path / "bad.vec"
    path.write_text("1 3\na 1 2\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_embeddings(path)
    assert ":2:" in str(err.value)


def test_container_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "weights": rng.normal(size=(7, 5)),
        "bias": rng.normal(size=3),
        "scalar": np.asarray(2.5),
        "ids": np.arange(4, dtype=np.int64),
        "single": rng.normal(size=(2, 2)).astype(np.float32),
    }
    path = tmp_path / "model.bin"
    save_container(path, arrays, {"kind": "test", "tokens": ["a", "中"]})
    loaded, meta = load_container(path)
    assert meta == {"kind": "test", "tokens": ["a", "中"]}
    for name, arr in arrays.items():
        assert loaded[name].dtype == (np.float64 if arr.dtype == np.float64
                                      else arr.dtype)
        assert np.array_equal(loaded[name], np.asarray(arr))


def test_container_writes_identical_bytes(tmp_path):
    rng = np.random.default_rng(2)
    arrays = {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=2)}
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_container(p1, arrays, {"x": 1})
    save_container(p2, arrays, {"x": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_container_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a container")
    with pytest.raises(DataError):
        load_container(path)


# --- CLI ---------------------------------------------------------------------

@pytest.fixture
def tiny_corpus_file(tmp_path):
    rng = np.random.default_rng(3)
    lines = [" ".join(f"w{rng.integers(10)}" for _ in range(25))
             for _ in range(40)]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_cli_unknown_command_is_usage_error():
    assert run(["definitely-not-a-command"]) == 1


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_parser_for_one_command_matches_the_full_parser():
    full = _build_parser()
    assert _build_parser("not-a-command").format_help() == full.format_help()
    for name, sub in _subparsers(full).items():
        one = _build_parser(name)
        assert one.format_help() == full.format_help()
        assert _subparsers(one)[name].format_help() == sub.format_help()
        assert all(len(other._actions) == 1  # only -h
                   for other_name, other in _subparsers(one).items()
                   if other_name != name)
        argv = [name]
        for action in sub._actions:
            if action.required:
                argv += [action.option_strings[-1],
                         action.choices[0] if action.choices else "1"]
        assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))


def test_cli_missing_file_is_data_error(tmp_path):
    out = tmp_path / "emb.vec"
    code = run(["train-emb", "--kind", "skipgram",
                "--corpus", str(tmp_path / "missing.txt"),
                "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("command", ["train-emb", "classify-train"])
def test_cli_document_shorter_than_window_trains(tmp_path, command):
    # a 2-token document has no neighbour 3 positions away
    path = tmp_path / "short.txt"
    if command == "train-emb":
        path.write_text("a b\nc d e f g h i j\n", encoding="utf-8")
        args = ["train-emb", "--kind", "skipgram", "--corpus", str(path),
                "--dim", "4", "--epochs", "1"]
    else:
        path.write_text("0\ta b\n1\tc d e f g h\n0\ta c\n1\td e\n",
                        encoding="utf-8")
        args = ["classify-train", "--model", "wincnn", "--train", str(path),
                "--dev", str(path), "--dim", "4", "--hidden", "4",
                "--epochs", "1"]
    assert run(args + ["--win", "7", "--out", str(tmp_path / "out")]) == 0


def test_cli_train_zero_epochs_outputs_initialization(tmp_path, tiny_corpus_file):
    out = tmp_path / "emb.vec"
    code = run(["train-emb", "--kind", "skipgram",
                "--corpus", str(tiny_corpus_file), "--out", str(out),
                "--dim", "8", "--epochs", "0", "--seed", "5"])
    assert code == 0
    table = load_embeddings(out)
    # matches an untouched initialization built the same way
    from embkit.corpus import CorpusStream, build_vocabulary
    from embkit.embeddings import EmbeddingModel
    from embkit.seeding import substream
    stream = CorpusStream.from_text_file(tiny_corpus_file)
    vocab = build_vocabulary(stream, 1)
    model = EmbeddingModel.create("skipgram", vocab, 8, 5, 100,
                                  substream(5, "init"))
    assert table.tokens == model.tokens
    assert np.max(np.abs(table.vectors - model.e)) <= 1e-6


def test_cli_train_does_not_mutate_input(tmp_path, tiny_corpus_file):
    before = tiny_corpus_file.read_bytes()
    run(["train-emb", "--kind", "cbow", "--corpus", str(tiny_corpus_file),
         "--out", str(tmp_path / "e.vec"), "--dim", "4", "--epochs", "1"])
    assert tiny_corpus_file.read_bytes() == before


def test_cli_identical_runs_identical_outputs(tmp_path, tiny_corpus_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.vec"
        model_out = tmp_path / f"{name}.bin"
        code = run(["train-emb", "--kind", "skipgram",
                    "--corpus", str(tiny_corpus_file), "--out", str(out),
                    "--model-out", str(model_out),
                    "--dim", "6", "--epochs", "2", "--seed", "11",
                    "--t", "0.01"])
        assert code == 0
        outs.append((out.read_bytes(), model_out.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_eval_nearest_neighbors(tmp_path, capsys):
    table = EmbeddingTable(["monday", "tuesday", "banana"],
                           [[1.0, 0.0], [0.9, 0.1], [-1.0, 0.2]])
    path = tmp_path / "e.vec"
    save_embeddings(table, path)
    code = run(["eval", "--embeddings", str(path), "--task", "nn",
                "--word", "monday", "--k", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("tuesday")
    assert len(lines) == 2


def test_cli_eval_nn_scores_a_huge_row_by_its_direction(tmp_path, capsys):
    # row a's norm overflows to inf; its cosine with c is 3 / sqrt(10)
    path = tmp_path / "e.vec"
    path.write_text("3 2\na 1e300 1e300\nb 1 0\nc 1 2\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(path), "--task", "nn", "--word",
                "c", "--k", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["a\t0.9487", "b\t0.4472"]


def test_unit_vectors_rescale_only_rows_whose_norm_overflows_or_underflows():
    ordinary = np.random.default_rng(5).normal(size=(20, 3))
    extreme = [[1e300, -1e300, 0.0], [1e-170, 0.0, -1e-170], [0.0, 0.0, 0.0]]
    table = EmbeddingTable([f"w{i}" for i in range(23)],
                           np.vstack([ordinary, extreme]))
    unit = table.unit_vectors()
    want = ordinary / np.linalg.norm(ordinary, axis=1, keepdims=True)
    assert unit[:20].tobytes() == want.tobytes()
    h = math.sqrt(0.5)
    assert np.allclose(unit[20:], [[h, -h, 0.0], [h, 0.0, -h], [0.0, 0.0, 0.0]],
                       rtol=1e-15, atol=0.0)


def test_cli_eval_ws_with_pgr(tmp_path, capsys):
    table = EmbeddingTable(["a", "b", "c", "d"],
                           [[1, 0], [0.9, 0.1], [0, 1], [0.3, 0.9]])
    emb = tmp_path / "e.vec"
    save_embeddings(table, emb)
    ds = tmp_path / "ws.tsv"
    ds.write_text("a\tb\t9.0\nc\td\t7.0\na\tc\t1.0\n", encoding="utf-8")
    code = run(["eval", "--embeddings", str(emb), "--task", "ws",
                "--dataset", str(ds), "--scale", "100",
                "--pgr-rand", "0", "--pgr-best", "100"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pearson:" in out and "pgr:" in out


def test_cli_cooccur_factorize_equiv(tmp_path, tiny_corpus_file, capsys):
    vocab_path = tmp_path / "vocab.tsv"
    cooc_path = tmp_path / "cooc.tsv"
    assert run(["cooccur", "--corpus", str(tiny_corpus_file),
                "--win", "5", "--out", str(cooc_path),
                "--save-vocab", str(vocab_path)]) == 0
    fact_path = tmp_path / "fact.bin"
    assert run(["factorize", "--cooccur", str(cooc_path),
                "--vocab", str(vocab_path), "--objective", "glove",
                "--dim", "4", "--epochs", "5", "--out", str(fact_path)]) == 0
    arrays, meta = load_container(fact_path)
    assert set(arrays) >= {"P", "Q", "bias1", "bias2"}

    model_path = tmp_path / "sg.bin"
    assert run(["train-emb", "--kind", "skipgram",
                "--corpus", str(tiny_corpus_file),
                "--out", str(tmp_path / "sg.vec"),
                "--model-out", str(model_path),
                "--dim", "12", "--epochs", "3", "--full-softmax",
                "--lr", "0.2"]) == 0
    assert run(["equiv-report", "--cooccur", str(cooc_path),
                "--vocab", str(vocab_path), "--model", str(model_path)]) == 0
    assert "mean_kl:" in capsys.readouterr().out


def test_cli_segment_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(4)
    starters, enders = "的一是在", "有了不人"
    words = [s + e for s in starters for e in enders] + ["我", "他"]
    lines = ["/".join(words[int(rng.integers(len(words)))]
                      for _ in range(5)) for _ in range(30)]
    corpus = tmp_path / "seg.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_path = tmp_path / "seg.bin"
    assert run(["segment-train", "--corpus", str(corpus),
                "--out", str(model_path), "--dim", "6", "--hidden", "12",
                "--epochs", "30", "--lr", "0.1"]) == 0
    raw = tmp_path / "raw.txt"
    raw.write_text("的有我不\n一了是人\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    assert run(["segment-decode", "--model", str(model_path),
                "--input", str(raw), "--out", str(pred)]) == 0
    pred_lines = pred.read_text(encoding="utf-8").strip().splitlines()
    assert len(pred_lines) == 2
    assert pred_lines[0].replace("/", "") == "的有我不"
    gold = tmp_path / "gold.txt"
    gold.write_text("的有/我/不\n一了/是/人\n", encoding="utf-8")
    assert run(["segment-score", "--pred", str(pred),
                "--gold", str(gold)]) == 0
    assert "f1:" in capsys.readouterr().out


def test_cli_classify_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(5)
    fillers = [f"f{i}" for i in range(6)]
    lines = []
    for _ in range(24):
        cls = int(rng.integers(2))
        tokens = [fillers[int(rng.integers(6))] for _ in range(8)]
        tokens[4] = "pos" if cls else "neg"
        lines.append(f"{cls}\t" + " ".join(tokens))
    train = tmp_path / "train.tsv"
    train.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_path = tmp_path / "rcnn.bin"
    assert run(["classify-train", "--train", str(train),
                "--model", "rcnn", "--dim", "5", "--context-dim", "5",
                "--hidden", "8", "--epochs", "10", "--lr", "0.05",
                "--out", str(model_path)]) == 0
    pred_path = tmp_path / "pred.txt"
    assert run(["classify-predict", "--model", str(model_path),
                "--input", str(train), "--out", str(pred_path)]) == 0
    preds = pred_path.read_text().strip().splitlines()
    assert len(preds) == 24
    assert run(["key-phrases", "--model", str(model_path),
                "--input", str(train), "--phrase-len", "3",
                "--top", "5"]) == 0
    assert capsys.readouterr().out.strip()


def test_cli_train_charword(tmp_path, capsys):
    rng = np.random.default_rng(6)
    words = ["星期天", "星期一", "天空", "空地", "大地", "大天"]
    lines = [" ".join(words[int(rng.integers(len(words)))] for _ in range(12))
             for _ in range(30)]
    corpus = tmp_path / "zh.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "words.vec"
    chars_out = tmp_path / "chars.vec"
    assert run(["train-charword", "--corpus", str(corpus),
                "--out", str(out), "--chars-out", str(chars_out),
                "--dim", "6", "--epochs", "2", "--beta", "0.5"]) == 0
    words_table = load_embeddings(out)
    chars_table = load_embeddings(chars_out)
    assert set(words_table.tokens) == set(words)
    assert set(chars_table.tokens) == set("星期天一空地大")


def test_binary_embedding_round_trip(tmp_path):
    from embkit.io_formats import save_embeddings_binary
    rng = np.random.default_rng(7)
    table = EmbeddingTable(["a", "中", "b"], rng.normal(size=(3, 4)))
    path = tmp_path / "emb.bin"
    save_embeddings_binary(table, path)
    loaded = load_embeddings(path)  # auto-detected by magic
    assert loaded.tokens == table.tokens
    # values are float32-exact: a second save/load cycle is bit-identical
    assert np.array_equal(loaded.vectors,
                          table.vectors.astype(np.float32).astype(np.float64))
    path2 = tmp_path / "emb2.bin"
    save_embeddings_binary(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cli_binary_embedding_output(tmp_path, tiny_corpus_file):
    out = tmp_path / "emb.bin"
    code = run(["train-emb", "--kind", "skipgram",
                "--corpus", str(tiny_corpus_file), "--out", str(out),
                "--dim", "4", "--epochs", "1", "--binary"])
    assert code == 0
    table = load_embeddings(out)
    assert len(table) > 0 and table.dim == 4


def test_cli_eval_tfl_and_analogy(tmp_path, capsys):
    table = EmbeddingTable(
        ["levied", "imposed", "believed", "requested", "correlated",
         "king", "queen", "man", "woman"],
        [[1, 0], [0.9, 0.1], [0, 1], [-1, 0], [0.1, -0.9],
         [0, 0.1], [1, 0.1], [0, 1.1], [1, 1.1]])
    emb = tmp_path / "e.vec"
    save_embeddings(table, emb)
    tfl = tmp_path / "tfl.tsv"
    tfl.write_text("levied\timposed\tbelieved\trequested\tcorrelated\t0\n",
                   encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--task", "tfl",
                "--dataset", str(tfl)]) == 0
    assert "accuracy: 1.0000" in capsys.readouterr().out
    ana = tmp_path / "ana.txt"
    ana.write_text(": family\nking queen man woman\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--task", "analogy",
                "--dataset", str(ana)]) == 0
    out = capsys.readouterr().out
    assert "accuracy: 1.0000" in out and "category family" in out


def test_cli_eval_avg_task(tmp_path, capsys):
    rng = np.random.default_rng(8)
    tokens = [f"w{i}" for i in range(10)]
    vectors = rng.normal(size=(10, 4))
    vectors[:5] += 3.0  # class-0 words live in a separable region
    emb = tmp_path / "e.vec"
    save_embeddings(EmbeddingTable(tokens, vectors), emb)
    lines = []
    for _ in range(30):
        cls = int(rng.integers(2))
        pool = tokens[:5] if cls == 0 else tokens[5:]
        lines.append(f"{cls}\t" + " ".join(pool[int(rng.integers(5))]
                                           for _ in range(6)))
    data = tmp_path / "docs.tsv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--task", "avg",
                "--train", str(data), "--test", str(data),
                "--epochs", "40", "--lr", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "train_accuracy: 1.0000" in out
    assert "accuracy: 1.0000" in out
    assert run(["eval", "--embeddings", str(emb), "--task", "avg",
                "--train", str(data), "--test", str(data),
                "--epochs", "-1"]) == 1
    assert capsys.readouterr().out == ""


def test_cli_numeric_failure_exit_code(tmp_path, tiny_corpus_file):
    code = run(["train-emb", "--kind", "skipgram",
                "--corpus", str(tiny_corpus_file),
                "--out", str(tmp_path / "e.vec"),
                "--dim", "4", "--epochs", "3",
                "--optimizer", "sgd", "--lr", "1e200"])
    assert code == 3


@pytest.mark.parametrize("command", [["train-emb", "--kind", "skipgram"],
                                     ["train-charword"]])
@pytest.mark.parametrize("dim", ["0", "-3"])
def test_cli_nonpositive_dim_is_usage_error(tmp_path, tiny_corpus_file, caplog,
                                            command, dim):
    code = run([*command, "--corpus", str(tiny_corpus_file),
                "--out", str(tmp_path / "e.vec"), "--dim", dim])
    assert code == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert "dim" in message and "\n" not in message
    assert not (tmp_path / "e.vec").exists()


@pytest.mark.parametrize("kind", ["nnlm", "lbl", "cw"])
def test_cli_nonpositive_hidden_is_usage_error(tmp_path, tiny_corpus_file,
                                               caplog, kind):
    code = run(["train-emb", "--kind", kind, "--corpus", str(tiny_corpus_file),
                "--out", str(tmp_path / "e.vec"), "--dim", "4",
                "--hidden", "0"])
    assert code == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert "hidden" in message and "\n" not in message
    assert not (tmp_path / "e.vec").exists()


@pytest.fixture
def seg_and_clf_files(tmp_path):
    seg_path, clf_path = tmp_path / "seg.txt", tmp_path / "clf.tsv"
    seg_path.write_text("的有/我/不\n一了/是/人\n" * 3, encoding="utf-8")
    clf_path.write_text("0\ta b c\n1\td e f\n" * 3, encoding="utf-8")
    return {"segment-train": ["segment-train", "--corpus", str(seg_path)],
            "classify-train": ["classify-train", "--train", str(clf_path)]}


def _assert_one_usage_line(caplog, code, word, out):
    assert code == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert word in message and "\n" not in message
    assert not out.exists()


@pytest.mark.parametrize("model,flag", [
    ("segment", "--dim"), ("segment", "--hidden"), ("rcnn", "--dim"),
    ("rcnn", "--hidden"), ("rcnn", "--context-dim"), ("wincnn", "--dim"),
    ("wincnn", "--hidden")])
def test_cli_seg_clf_nonpositive_size_is_usage_error(tmp_path, caplog,
                                                     seg_and_clf_files,
                                                     model, flag):
    if model == "segment":
        args = seg_and_clf_files["segment-train"]
    else:
        args = [*seg_and_clf_files["classify-train"], "--model", model]
    out = tmp_path / "model.bin"
    code = run([*args, "--epochs", "1", flag, "0", "--out", str(out)])
    _assert_one_usage_line(caplog, code, flag, out)


def test_cli_segment_train_negative_epochs_is_usage_error(tmp_path, caplog,
                                                          seg_and_clf_files):
    out = tmp_path / "model.bin"
    code = run([*seg_and_clf_files["segment-train"], "--dim", "3",
                "--hidden", "3", "--epochs", "-1", "--out", str(out)])
    _assert_one_usage_line(caplog, code, "epochs", out)


def test_cli_classify_train_negative_epochs_is_usage_error(tmp_path, caplog,
                                                           seg_and_clf_files):
    out = tmp_path / "model.bin"
    code = run([*seg_and_clf_files["classify-train"], "--dim", "3",
                "--hidden", "3", "--epochs", "-1", "--out", str(out)])
    _assert_one_usage_line(caplog, code, "epochs", out)


def test_cli_classify_train_zero_epochs_writes_initial_model(tmp_path,
                                                             seg_and_clf_files):
    from embkit.seeding import substream
    from embkit.textclass import RcnnModel
    out = tmp_path / "model.bin"
    assert run([*seg_and_clf_files["classify-train"], "--dim", "3",
                "--context-dim", "2", "--hidden", "3", "--epochs", "0",
                "--seed", "4", "--out", str(out)]) == 0
    arrays, meta = load_container(out)
    initial = RcnnModel(meta["tokens"], meta["n_classes"], 3, 2, 3,
                        rng=substream(4, "init"))
    for name, value in initial.params().items():
        assert np.array_equal(arrays[name], value), name


@pytest.mark.parametrize("model", ["rcnn", "wincnn"])
@pytest.mark.parametrize("truncate", ["0", "-1"])
def test_cli_classify_train_truncate_below_one_is_usage_error(
        tmp_path, caplog, seg_and_clf_files, model, truncate):
    out = tmp_path / "model.bin"
    code = run([*seg_and_clf_files["classify-train"], "--model", model,
                "--dim", "3", "--hidden", "3", "--epochs", "1",
                "--truncate", truncate, "--out", str(out)])
    _assert_one_usage_line(caplog, code, "truncate", out)


@pytest.mark.parametrize("command", ["segment-train", "classify-train"])
@pytest.mark.parametrize("fraction", ["-0.5", "1.0", "2"])
def test_cli_dev_fraction_outside_unit_interval_is_usage_error(
        tmp_path, caplog, seg_and_clf_files, command, fraction):
    out = tmp_path / "model.bin"
    code = run([*seg_and_clf_files[command], "--dim", "3", "--hidden", "3",
                "--epochs", "1", "--dev-fraction", fraction,
                "--out", str(out)])
    _assert_one_usage_line(caplog, code, "--dev-fraction", out)


@pytest.fixture
def cooccur_files(tmp_path, tiny_corpus_file):
    vocab_path, cooc_path = tmp_path / "vocab.tsv", tmp_path / "cooc.tsv"
    assert run(["cooccur", "--corpus", str(tiny_corpus_file), "--win", "5",
                "--out", str(cooc_path), "--save-vocab", str(vocab_path)]) == 0
    return vocab_path, cooc_path


# The loss keys that bench/run.py's finite-loss gate reads from the log.
LOSS_KEY = re.compile(r"(?:mean_loss|train_loss)=(\S+)")


@pytest.mark.parametrize("command", ["skipgram", "cbow", "charword", "segment",
                                     "classify", "factorize", "avg"])
def test_cli_training_logs_one_line_per_epoch(tmp_path, tiny_corpus_file,
                                              seg_and_clf_files, cooccur_files,
                                              caplog, command):
    out = str(tmp_path / "model.bin")
    small = ["--dim", "2", "--hidden", "3", "--epochs", "3", "--out", out]
    emb = ["--corpus", str(tiny_corpus_file), *small]
    vocab, cooc = cooccur_files
    argv = {"skipgram": ["train-emb", "--kind", "skipgram", *emb],
            "cbow": ["train-emb", "--kind", "cbow", *emb],
            "charword": ["train-charword", *emb],
            "segment": [*seg_and_clf_files["segment-train"], *small],
            "classify": [*seg_and_clf_files["classify-train"],
                         "--context-dim", "2", *small],
            "factorize": ["factorize", "--cooccur", str(cooc), "--vocab",
                          str(vocab), "--dim", "2", "--epochs", "3",
                          "--out", out],
            "avg": ["eval", "--task", "avg", "--embeddings", out, "--train",
                    seg_and_clf_files["classify-train"][-1], "--test",
                    seg_and_clf_files["classify-train"][-1], "--epochs", "3"],
            }[command]
    if command == "avg":
        save_embeddings(EmbeddingTable(list("abcdef"), np.eye(6)), out)
    caplog.set_level(logging.INFO)
    caplog.clear()
    assert run(argv) == 0
    # "epoch=0 ..." or "epoch 0: ..."; the config line's "'epochs': 3" is not one
    lines = [r.getMessage() for r in caplog.records
             if re.search(r"\bepoch[= ]\d", r.getMessage())]
    assert [int(re.search(r"\bepoch[= ](\d+)", m).group(1))
            for m in lines] == [0, 1, 2]
    for line in lines:
        losses = LOSS_KEY.findall(line)
        assert len(losses) == 1 and math.isfinite(float(losses[0])), line


@pytest.mark.parametrize("line", ["10\t1\t2",      # id == |V| (10 words)
                                  "-1\t1\t2",      # negative id
                                  "1.5\t1\t2",     # non-integer id
                                  "1\t2\tnan",     # count that is not finite
                                  "0\t1\t5"],      # repeats the cell (0, 1)
                         ids=["id-too-large", "negative-id", "non-integer-id",
                              "nan-count", "duplicate-cell"])
def test_cli_factorize_rejects_bad_cooccurrence_line(tmp_path, cooccur_files,
                                                     caplog, line):
    vocab_path, cooc_path = cooccur_files
    cooc_path.write_text(f"0\t1\t3\n{line}\n", encoding="utf-8")
    out = tmp_path / "fact.bin"
    caplog.clear()
    code = run(["factorize", "--cooccur", str(cooc_path), "--vocab",
                str(vocab_path), "--objective", "log", "--dim", "3",
                "--epochs", "1", "--out", str(out)])
    assert code == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert f"{cooc_path}:2:" in message and "\n" not in message
    assert not out.exists()


@pytest.mark.parametrize("objective", ["glove", "log", "conditional"])
@pytest.mark.parametrize("flag,value,word", [("--dim", "0", "dim"),
                                             ("--dim", "-2", "dim"),
                                             ("--epochs", "-1", "epochs")])
def test_cli_factorize_bad_dim_or_epochs_is_usage_error(
        tmp_path, cooccur_files, caplog, objective, flag, value, word):
    vocab_path, cooc_path = cooccur_files
    out = tmp_path / "fact.bin"
    args = {"--dim": "3", "--epochs": "1", flag: value}
    caplog.clear()
    code = run(["factorize", "--cooccur", str(cooc_path), "--vocab",
                str(vocab_path), "--objective", objective,
                *[x for item in args.items() for x in item],
                "--out", str(out)])
    _assert_one_usage_line(caplog, code, word, out)


def test_cli_factorize_divergence_is_numeric_error(tmp_path, cooccur_files):
    vocab_path, cooc_path = cooccur_files
    out = tmp_path / "fact.bin"
    code = run(["factorize", "--cooccur", str(cooc_path), "--vocab",
                str(vocab_path), "--objective", "glove", "--dim", "4",
                "--epochs", "3", "--lr", "1e200", "--out", str(out)])
    assert code == 3
    assert not out.exists()


def _run_cli_process(args):
    """Run the CLI in a fresh interpreter; return (exit code, stderr lines)."""
    src = os.path.dirname(os.path.dirname(embkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "embkit.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stderr.splitlines()


@pytest.mark.parametrize("command", ["train-emb", "segment-train"])
def test_cli_divergence_is_one_error_line(tmp_path, tiny_corpus_file, command):
    out = tmp_path / "model.bin"
    if command == "train-emb":
        args = ["train-emb", "--kind", "skipgram", "--corpus",
                str(tiny_corpus_file), "--dim", "4", "--epochs", "3"]
        lr = "1e200"
    else:
        corpus = tmp_path / "seg.txt"
        corpus.write_text("的有/我/不\n一了/是/人\n" * 5, encoding="utf-8")
        args = ["segment-train", "--corpus", str(corpus), "--dim", "4",
                "--hidden", "6", "--epochs", "3"]
        # at 1e200 a mini-batch step can saturate tanh and stay finite,
        # depending on the batch size; 1e308 overflows at every size
        lr = "1e308"
    code, stderr = _run_cli_process([*args, "--optimizer", "sgd", "--lr",
                                     lr, "--out", str(out)])
    assert code == 3
    errors = [line for line in stderr if line.startswith("[ERROR]")]
    assert len(errors) == 1 and "numeric failure" in errors[0]
    assert all(line.startswith(("[INFO]", "[ERROR]")) for line in stderr), stderr
    assert not any("Warning" in line for line in stderr)
    assert not out.exists()


def test_cli_multi_worker_divergence_warns_nothing(tmp_path, tiny_corpus_file):
    # the shard threads run under the CLI's numpy error state, as one
    # worker does
    out = tmp_path / "e.vec"
    code, stderr = _run_cli_process(
        ["train-emb", "--kind", "skipgram", "--corpus", str(tiny_corpus_file),
         "--dim", "4", "--epochs", "3", "--optimizer", "sgd", "--lr", "1e200",
         "--workers", "2", "--out", str(out)])
    assert code == 3
    assert not any("RuntimeWarning" in line for line in stderr), stderr
    errors = [line for line in stderr if line.startswith("[ERROR]")]
    assert len(errors) == 1 and "numeric failure" in errors[0]
    assert not out.exists()


def test_cli_non_utf8_corpus_is_data_error(tmp_path, caplog):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes("café au lait\n".encode("latin-1"))
    code = run(["train-emb", "--kind", "skipgram", "--corpus", str(corpus),
                "--out", str(tmp_path / "e.vec"), "--dim", "4"])
    assert code == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert str(corpus) in message and "\n" not in message


def test_cli_cooccurrence_turning_non_utf8_is_data_error(tmp_path, caplog):
    # the cells are read line by line: the bad bytes come after a good line
    vocab, cooc, out = (tmp_path / n for n in ("vocab.tsv", "cooc.tsv", "f.bin"))
    vocab.write_text("a\t2\nb\t1\n", encoding="utf-8")
    cooc.write_bytes(b"0\t1\t3\n1\t\xff\t2\n")
    assert run(["factorize", "--cooccur", str(cooc), "--vocab", str(vocab),
                "--dim", "2", "--epochs", "1", "--out", str(out)]) == 2
    assert f"{cooc}: not UTF-8 text" in _one_error_line(caplog)
    assert not out.exists()


@pytest.mark.parametrize("keep", [10, 20, -3],
                         ids=["in-header", "in-metadata", "in-array"])
def test_cli_truncated_container_is_data_error(tmp_path, caplog, keep):
    from embkit.io_formats import save_embeddings_binary
    path = tmp_path / "emb.bin"
    save_embeddings_binary(EmbeddingTable(["a", "b"], np.eye(2)), path)
    path.write_bytes(path.read_bytes()[:keep])
    code = run(["eval", "--embeddings", str(path), "--task", "nn",
                "--word", "a"])
    assert code == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert str(path) in message and "\n" not in message


def _one_error_line(caplog):
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert "\n" not in message
    return message


@pytest.mark.parametrize("command", ["segment-decode", "classify-predict"])
def test_cli_wrong_kind_container_is_data_error(tmp_path, tiny_corpus_file,
                                                caplog, command):
    model = tmp_path / "emb.bin"
    assert run(["train-emb", "--kind", "skipgram", "--corpus",
                str(tiny_corpus_file), "--out", str(model), "--dim", "4",
                "--epochs", "1", "--binary"]) == 0
    what = "segmenter" if command == "segment-decode" else "classifier"
    caplog.clear()
    code = run([command, "--model", str(model), "--input",
                str(tiny_corpus_file), "--out", str(tmp_path / "out.txt")])
    assert code == 2
    assert _one_error_line(caplog) == (
        f"data error: {model}: container is not a {what} model")


# --- model containers back into models ----------------------------------------

def _train_commands(d):
    """Training argv per model container name; every model is tiny."""
    emb = ["--corpus", str(d / "corpus.txt"), "--dim", "4", "--epochs", "1",
           "--binary", "--out", str(d / "emb.bin")]
    cmds = {kind: ["train-emb", "--kind", kind, "--hidden", "5", *emb]
            for kind in ("skipgram", "order", "lbl", "nnlm", "cw")}
    cmds["full_softmax"] = [*cmds["skipgram"], "--full-softmax"]
    cmds["charword"] = ["train-charword", "--char-context", *emb]
    cmds = {name: [*argv, "--model-out", str(d / f"{name}.bin")]
            for name, argv in cmds.items()}
    cmds["segmenter"] = ["segment-train", "--corpus", str(d / "seg.txt"),
                         "--dim", "3", "--hidden", "4", "--epochs", "1",
                         "--out", str(d / "segmenter.bin")]
    for model in ("rcnn", "wincnn"):
        cmds[model] = ["classify-train", "--model", model, "--train",
                       str(d / "clf.tsv"), "--dim", "3", "--context-dim", "3",
                       "--hidden", "4", "--epochs", "1",
                       "--out", str(d / f"{model}.bin")]
    return cmds


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A directory of trained model containers, `<name>.bin` for each name
    of `_train_commands`, and the inputs the loading commands read."""
    d = tmp_path_factory.mktemp("models")
    rng = np.random.default_rng(3)
    (d / "corpus.txt").write_text("".join(
        " ".join(f"w{rng.integers(10)}" for _ in range(25)) + "\n"
        for _ in range(40)), encoding="utf-8")
    (d / "seg.txt").write_text("的有/我/不\n一了/是/人\n" * 3, encoding="utf-8")
    (d / "clf.tsv").write_text("0\ta b c\n1\td e f\n" * 3, encoding="utf-8")
    for argv in _train_commands(d).values():
        assert run(argv) == 0
    assert run(["cooccur", "--corpus", str(d / "corpus.txt"), "--out",
                str(d / "cooc.tsv"), "--save-vocab", str(d / "vocab.tsv")]) == 0
    return d


@pytest.mark.parametrize("name", ["full_softmax", "charword", "nnlm", "cw",
                                  "segmenter", "rcnn", "wincnn"])
def test_model_container_round_trip_is_bitwise(model_dir, name):
    from embkit import cli
    load = {"segmenter": cli._load_segmenter, "rcnn": cli._load_classifier,
            "wincnn": cli._load_classifier}.get(name, cli._load_embedding_model)
    path = model_dir / f"{name}.bin"
    params = load(path).params()
    arrays, _ = load_container(path)
    assert sorted(params) == sorted(arrays)
    for key, value in arrays.items():
        assert params[key].dtype == value.dtype
        assert params[key].tobytes() == value.tobytes(), key
    if name == "nnlm":
        assert {"H", "b1", "b2"} <= set(params)
    if name == "cw":
        assert "U" in params


# command -> the container it reads, the array to tamper with and metadata
# its constructor refuses
_LOADERS = {
    "segment-decode": ("segmenter", "H", {"win": 4}),
    "classify-predict": ("rcnn", "W_l", {"context_dim": 0}),
    "key-phrases": ("rcnn", "W_l", {"context_dim": 0}),
    "equiv-report": ("skipgram", "e_prime", {"win": 4}),
}


def _loading_argv(command, d, model):
    if command == "equiv-report":
        return [command, "--cooccur", str(d / "cooc.tsv"), "--vocab",
                str(d / "vocab.tsv"), "--model", str(model)]
    inputs = {"segment-decode": "seg.txt", "classify-predict": "clf.tsv",
              "key-phrases": "clf.tsv"}
    argv = [command, "--model", str(model), "--input", str(d / inputs[command])]
    if command != "key-phrases":
        argv += ["--out", str(d / "loaded.out")]
    return argv


_UNSCORED_KINDS = ("cw", "order", "lbl", "nnlm")


@pytest.mark.parametrize("command,fault", [
    *[(command, fault) for command in _LOADERS
      for fault in ("missing", "extra", "shape", "meta", "non-finite")],
    ("equiv-report", "counts"),
    *[(command, "unknown-model") for command in ("classify-predict",
                                                 "key-phrases")],
    *[("equiv-report", kind) for kind in _UNSCORED_KINDS]])
def test_cli_unusable_model_container_is_data_error(tmp_path, model_dir,
                                                    caplog, command, fault):
    name, array, bad_meta = _LOADERS[command]
    model = tmp_path / "model.bin"
    if fault in _UNSCORED_KINDS:  # embedding kinds equiv-report cannot score
        model = model_dir / f"{fault}.bin"
    else:
        if fault == "unknown-model":  # a window CNN under another label
            name, bad_meta = "wincnn", {"model": "foo"}
        arrays, meta = load_container(model_dir / f"{name}.bin")
        if fault == "missing":
            del arrays[array]
        elif fault == "extra":
            arrays["extra"] = np.zeros(3)
        elif fault == "shape":
            arrays[array] = arrays[array][..., :-1]
        elif fault == "non-finite":
            arrays[array].flat[-1] = np.nan
        elif fault in ("meta", "unknown-model"):
            meta.update(bad_meta)
        else:  # refused by the Vocabulary constructor
            meta["vocab_counts"] = [0] * len(meta["vocab_counts"])
        save_container(model, arrays, meta)
    (model_dir / "loaded.out").unlink(missing_ok=True)
    caplog.clear()
    assert run(_loading_argv(command, model_dir, model)) == 2
    message = _one_error_line(caplog)
    assert f"{model}: " in message
    if fault == "non-finite":
        assert f"array {array!r} has a non-finite value" in message
    assert not (model_dir / "loaded.out").exists()


# a finite container whose scores overflow: every hidden unit is tanh(1),
# and the output weights sum them past the largest float
_OVERFLOWING = {
    "segment-decode": ("segmenter", {"H": 0.0, "b1": 1.0, "U": 1e308}),
    "classify-predict": ("rcnn", {"W2": 0.0, "b2": 1.0, "W4": 1e308}),
}


@pytest.mark.parametrize("command", list(_OVERFLOWING))
def test_cli_non_finite_scores_are_numeric_error(tmp_path, model_dir, caplog,
                                                 command):
    name, values = _OVERFLOWING[command]
    arrays, meta = load_container(model_dir / f"{name}.bin")
    for key, value in values.items():
        arrays[key][...] = value
    model = tmp_path / "model.bin"
    save_container(model, arrays, meta)
    (model_dir / "loaded.out").unlink(missing_ok=True)
    caplog.clear()
    assert run(_loading_argv(command, model_dir, model)) == 3
    assert _one_error_line(caplog).startswith("numeric failure: non-finite")
    assert not (model_dir / "loaded.out").exists()


def test_cli_wrongly_typed_model_metadata_is_data_error(tmp_path, model_dir):
    # a string where the constructor compares a number raises TypeError
    arrays, meta = load_container(model_dir / "skipgram.bin")
    meta["dim"] = str(meta["dim"])
    model = tmp_path / "model.bin"
    save_container(model, arrays, meta)
    code, stderr = _run_cli_process(_loading_argv("equiv-report", model_dir,
                                                  model))
    assert code == 2
    # no traceback: every line is a log line, and one of them the error
    assert all(line.startswith(("[INFO]", "[ERROR]")) for line in stderr), stderr
    errors = [line for line in stderr if line.startswith("[ERROR]")]
    assert len(errors) == 1 and f"data error: {model}: " in errors[0]


@pytest.mark.parametrize("container", [False, True], ids=["text", "container"])
def test_cli_non_finite_vector_is_data_error(tmp_path, caplog, container):
    from embkit.io_formats import save_embeddings_binary
    vectors = np.eye(4)
    if container:
        vectors[2, 1] = np.inf
        path = tmp_path / "emb.bin"
        save_embeddings_binary(EmbeddingTable(list("abcd"), vectors), path)
        where = f"{path}:"
    else:
        path = tmp_path / "emb.vec"
        save_embeddings(EmbeddingTable(list("abcd"), vectors), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = "c 0 nan 0 0"  # line 4 of the file
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        where = f"{path}:4:"
    ana = tmp_path / "ana.txt"
    ana.write_text("a b c d\n", encoding="utf-8")
    code = run(["eval", "--embeddings", str(path), "--task", "analogy",
                "--dataset", str(ana)])
    assert code == 2
    message = _one_error_line(caplog)
    assert where in message and "non-finite" in message


@pytest.mark.parametrize("meta", [{"format": "embedding"},
                                  {"format": "embedding", "tokens": 5}],
                         ids=["no-tokens", "tokens-not-a-list"])
def test_cli_embedding_container_without_token_list_is_data_error(
        tmp_path, caplog, meta):
    path = tmp_path / "emb.bin"
    save_container(path, {"vectors": np.eye(2, dtype=np.float32)}, meta)
    caplog.clear()
    assert run(["eval", "--embeddings", str(path), "--task", "nn", "--word",
                "a"]) == 2
    assert _one_error_line(caplog) == (
        f"data error: {path}: container has no list of tokens")


@pytest.mark.parametrize("task,good,bad,message", [
    ("ws", "a\tb\t0.5", "b\ta\tx", "score 'x' is not a finite number"),
    ("ws", "a\tb\t0.5", "b\ta\tnan", "score 'nan' is not a finite number"),
    ("tfl", "a\ta\tb\ta\tb\t0", "a\ta\tb\ta\tb\tz",
     "answer index 'z' is not one of 0..3"),
    ("tfl", "a\ta\tb\ta\tb\t0", "a\ta\tb\ta\tb\t9",
     "answer index '9' is not one of 0..3"),
    ("tfl", "a\ta\tb\ta\tb\t0", "a\ta\tb\ta\tb",
     "expected 'query<TAB>opt1..opt4<TAB>answer_index'"),
    ("analogy", "a b a b", "a b a", "expected 4 words per question")],
    ids=["ws-score", "ws-nan-score", "tfl-index", "tfl-index-range",
         "tfl-five-fields", "analogy-three-words"])
def test_cli_malformed_eval_dataset_is_data_error(tmp_path, caplog, task,
                                                  good, bad, message):
    emb = tmp_path / "e.vec"
    save_embeddings(EmbeddingTable(["a", "b"], np.eye(2)), emb)
    data = tmp_path / "data.tsv"
    data.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    code = run(["eval", "--embeddings", str(emb), "--task", task,
                "--dataset", str(data)])
    assert code == 2
    logged = _one_error_line(caplog)
    assert f"{data}:2:" in logged
    assert logged == f"data error: {data}:2: {message}"


@pytest.mark.parametrize("gold_text,where", [
    ("ab/c\nc/ab\nab\n", "{pred} has 2, {gold} has 3"),
    ("ab/c\nc/abd\n", "{gold}:2: covers different text than {pred}:2"),
    ("\nab/c\nc/abd\n", "{gold}:3: covers different text than {pred}:2")],
    ids=["sentence-count", "different-text", "different-text-after-blank"])
def test_cli_segment_score_error_names_location(tmp_path, caplog, gold_text,
                                                where):
    pred, gold = tmp_path / "pred.txt", tmp_path / "gold.txt"
    pred.write_text("ab/c\nc/ab\n", encoding="utf-8")
    gold.write_text(gold_text, encoding="utf-8")
    caplog.clear()
    assert run(["segment-score", "--pred", str(pred), "--gold", str(gold)]) == 2
    assert where.format(pred=pred, gold=gold) in _one_error_line(caplog)


@pytest.mark.parametrize("line", ["w1\t0", "w0\t7"],
                         ids=["zero-count", "duplicate"])
def test_cli_malformed_vocabulary_is_data_error(tmp_path, tiny_corpus_file,
                                                caplog, line):
    vocab, out = tmp_path / "vocab.txt", tmp_path / "e.vec"
    vocab.write_text(f"w0\t3\n{line}\n", encoding="utf-8")
    code = run(["train-emb", "--kind", "skipgram", "--corpus",
                str(tiny_corpus_file), "--vocab", str(vocab), "--dim", "4",
                "--out", str(out)])
    assert code == 2
    assert f"{vocab}:2:" in _one_error_line(caplog)
    assert not out.exists()


@pytest.mark.parametrize("target", ["text", "container", "vocabulary",
                                    "segment-decode"])
def test_failed_write_leaves_earlier_file(tmp_path, target):
    path = tmp_path / "dest" / "out"
    path.parent.mkdir()
    if target == "text":
        save_embeddings(EmbeddingTable(["a", "b"], np.eye(2)), path)
        # a lone surrogate cannot be encoded: the write fails at row 2
        bad = EmbeddingTable(["a", "\ud800", "c"], np.eye(3))
        write = lambda: save_embeddings(bad, path)  # noqa: E731
        error = UnicodeEncodeError
    elif target == "container":
        save_container(path, {"a": np.ones(2)}, {"x": 1})
        # "b" is written, then "c" cannot be converted to float
        bad = {"b": np.zeros(3), "c": np.array(["x"])}
        write = lambda: save_container(path, bad, {"x": 2})  # noqa: E731
        error = ValueError
    elif target == "vocabulary":
        save_vocabulary(Vocabulary(["a", "b"], [2, 1]), path)
        # the lone surrogate cannot be encoded: the write fails at line 2
        bad = Vocabulary(["a", "\ud800", "c"], [3, 2, 1])
        write = lambda: save_vocabulary(bad, path)  # noqa: E731
        error = UnicodeEncodeError
    else:
        corpus, model = tmp_path / "seg.txt", tmp_path / "seg.bin"
        corpus.write_text("ab/c\nc/ab\n", encoding="utf-8")
        assert run(["segment-train", "--corpus", str(corpus), "--dim", "2",
                    "--hidden", "3", "--epochs", "1", "--out", str(model)]) == 0
        decode = ["segment-decode", "--model", str(model), "--out", str(path),
                  "--input"]
        assert run(decode + [str(corpus)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"abc\n\xff\xfe\n")
        write = lambda: run(decode + [str(bad)])  # noqa: E731
        error = None
    before = path.read_bytes()
    if error is None:
        assert write() == 2
    else:
        with pytest.raises(error):
            write()
    assert path.read_bytes() == before
    assert os.listdir(path.parent) == ["out"]


def test_write_through_symlink_keeps_link(tmp_path):
    target = tmp_path / "real.vec"
    link = tmp_path / "link.vec"
    link.symlink_to(target)
    table = EmbeddingTable(["a", "b"], np.eye(2))
    save_embeddings(table, link)
    assert link.is_symlink()
    assert load_embeddings(target).tokens == ["a", "b"]
    assert sorted(os.listdir(tmp_path)) == ["link.vec", "real.vec"]


def test_cli_eval_nn_negative_k_is_usage_error(tmp_path, caplog, capsys):
    path = tmp_path / "e.vec"
    save_embeddings(EmbeddingTable(list("abcde"), np.eye(5)), path)
    code = run(["eval", "--embeddings", str(path), "--task", "nn",
                "--word", "a", "--k", "-1"])
    assert code == 1
    assert "--k" in _one_error_line(caplog)
    assert capsys.readouterr().out == ""


def test_cli_key_phrases_negative_top_is_usage_error(tmp_path, caplog, capsys,
                                                     seg_and_clf_files):
    model = tmp_path / "rcnn.bin"
    args = seg_and_clf_files["classify-train"]
    assert run([*args, "--dim", "3", "--context-dim", "2", "--hidden", "3",
                "--epochs", "1", "--out", str(model)]) == 0
    capsys.readouterr()
    caplog.clear()
    code = run(["key-phrases", "--model", str(model), "--input", args[-1],
                "--top", "-1"])
    assert code == 1
    assert "--top" in _one_error_line(caplog)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--corpus", "--out"])
def test_cli_overlong_path_is_one_data_error_line(tmp_path, tiny_corpus_file,
                                                  flag):
    paths = {"--corpus": str(tiny_corpus_file),
             "--out": str(tmp_path / "cooc.tsv")}
    paths[flag] = str(tmp_path / ("x" * 300))  # longer than a file name may be
    code, stderr = _run_cli_process(["cooccur", "--corpus", paths["--corpus"],
                                     "--out", paths["--out"]])
    assert code == 2
    # no traceback: every line is a log line, and one of them the error
    assert all(line.startswith(("[INFO]", "[ERROR]")) for line in stderr), stderr
    errors = [line for line in stderr if line.startswith("[ERROR]")]
    assert len(errors) == 1 and "File name too long" in errors[0]
    assert os.listdir(tmp_path) == [tiny_corpus_file.name]


def test_cli_missing_output_directory_names_the_given_path(
        tmp_path, tiny_corpus_file, caplog, monkeypatch):
    monkeypatch.chdir(tmp_path)
    caplog.clear()
    assert run(["cooccur", "--corpus", str(tiny_corpus_file),
                "--out", "nodir/out.txt"]) == 2
    message = _one_error_line(caplog)
    assert "'nodir/out.txt'" in message and ".tmp" not in message


@pytest.mark.parametrize("text", ["Unable to allocate 11.7 GiB", ""])
def test_cli_memory_error_is_one_data_error_line(monkeypatch, caplog, text):
    from embkit import cli

    def handler(args):
        raise MemoryError(text)

    monkeypatch.setattr(cli, "_cmd_cooccur", handler)
    caplog.clear()
    assert run(["cooccur", "--corpus", "c.txt", "--out", "o.txt"]) == 2
    assert _one_error_line(caplog) == (
        f"data error: out of memory: {text or 'allocation failed'}")


def test_cli_equiv_report_model_lacking_a_matrix_token(tmp_path, caplog):
    # the matrix is over a b c d, the model over x y z q
    for name, words in (("matrix", "a b c d"), ("model", "x y z q")):
        (tmp_path / f"{name}.txt").write_text(f"{words}\n" * 20,
                                              encoding="utf-8")
    assert run(["cooccur", "--corpus", str(tmp_path / "matrix.txt"), "--out",
                str(tmp_path / "cooc.tsv"), "--save-vocab",
                str(tmp_path / "vocab.tsv")]) == 0
    model = tmp_path / "sg.bin"
    assert run(["train-emb", "--kind", "skipgram", "--full-softmax",
                "--corpus", str(tmp_path / "model.txt"), "--dim", "4",
                "--epochs", "1", "--out", str(tmp_path / "sg.vec"),
                "--model-out", str(model)]) == 0
    caplog.clear()
    assert run(["equiv-report", "--cooccur", str(tmp_path / "cooc.tsv"),
                "--vocab", str(tmp_path / "vocab.tsv"),
                "--model", str(model)]) == 2
    assert re.fullmatch(rf"data error: {re.escape(str(model))}: no row for "
                        rf"the matrix token '[abcd]'", _one_error_line(caplog))


@pytest.mark.parametrize("command", ["classify-train", "eval-avg"])
def test_cli_negative_class_label_is_data_error(tmp_path, caplog, command):
    data = tmp_path / "docs.tsv"
    data.write_text("0\ta b\n-1\tb a\n1\ta a\n", encoding="utf-8")
    out = tmp_path / "model.bin"
    if command == "classify-train":
        args = ["classify-train", "--train", str(data), "--dim", "3",
                "--hidden", "3", "--epochs", "1", "--out", str(out)]
    else:
        emb = tmp_path / "e.vec"
        save_embeddings(EmbeddingTable(["a", "b"], np.eye(2)), emb)
        args = ["eval", "--embeddings", str(emb), "--task", "avg",
                "--train", str(data), "--test", str(data)]
    assert run(args) == 2
    assert _one_error_line(caplog) == f"data error: {data}:2: label -1 is negative"
    assert not out.exists()


@pytest.mark.parametrize("unusable", ["--train", "--test"])
def test_cli_eval_avg_without_usable_document_is_data_error(tmp_path, caplog,
                                                            capsys, unusable):
    emb = tmp_path / "e.vec"
    save_embeddings(EmbeddingTable(["a", "b"], np.eye(2)), emb)
    files = {}
    for flag, text in (("--train", "0\ta a\n1\tb b\n"),
                       ("--test", "0\ta\n1\tb\n")):
        files[flag] = tmp_path / f"{flag[2:]}.tsv"
        # the unusable file has no token the table knows
        files[flag].write_text(text if flag != unusable else "0\tx\n1\ty z\n",
                               encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--task", "avg",
                "--train", str(files["--train"]),
                "--test", str(files["--test"])]) == 2
    assert _one_error_line(caplog) == (f"data error: {files[unusable]}: no "
                                       f"document has an in-vocabulary token")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("header", ["-1 2", "2 -1"])
def test_cli_negative_embedding_header_is_data_error(tmp_path, caplog, header):
    emb = tmp_path / "e.vec"
    emb.write_text(f"{header}\na 1 0\nb 0 1\n", encoding="utf-8")
    data = tmp_path / "ws.tsv"
    data.write_text("a\tb\t1\na\tb\t2\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--task", "ws",
                "--dataset", str(data)]) == 2
    count, dim = header.split()
    assert _one_error_line(caplog) == (
        f"data error: {emb}:1: negative count or dim in header "
        f"['{count}', '{dim}']")


# --- training rules ------------------------------------------------------------

def _rate_argv(command, tmp_path, corpus, seg_and_clf_files, cooccur_files):
    """argv of a one-epoch `command` run that trains at its --lr."""
    out = str(tmp_path / "out.bin")
    small = ["--dim", "3", "--hidden", "3", "--epochs", "1"]
    if command in ("train-emb", "train-charword"):
        kind = ["--kind", "skipgram"] if command == "train-emb" else []
        return [command, *kind, "--corpus", str(corpus), *small, "--out", out]
    if command in seg_and_clf_files:
        return [*seg_and_clf_files[command], *small, "--out", out]
    if command == "factorize":
        vocab, cooc = cooccur_files
        return ["factorize", "--cooccur", str(cooc), "--vocab", str(vocab),
                "--dim", "3", "--epochs", "1", "--out", out]
    emb, docs = tmp_path / "e.vec", tmp_path / "docs.tsv"
    save_embeddings(EmbeddingTable(["a", "b"], np.eye(2)), emb)
    docs.write_text("0\ta\n1\tb\n", encoding="utf-8")
    return ["eval", "--embeddings", str(emb), "--task", "avg", "--train",
            str(docs), "--test", str(docs), "--epochs", "1"]


@pytest.mark.parametrize("rate", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["train-emb", "train-charword", "factorize",
                                     "segment-train", "classify-train",
                                     "eval-avg"])
def test_cli_rate_not_finite_and_positive_is_usage_error(
        tmp_path, tiny_corpus_file, seg_and_clf_files, cooccur_files, caplog,
        capsys, command, rate):
    argv = _rate_argv(command, tmp_path, tiny_corpus_file, seg_and_clf_files,
                      cooccur_files)
    caplog.clear()
    assert run([*argv, "--lr", rate]) == 1
    assert _one_error_line(caplog) == (
        "usage error: learning rate must be finite and > 0")
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("command", ["train-emb", "train-charword", "factorize",
                                     "segment-train", "classify-train",
                                     "eval-avg"])
def test_cli_rate_is_checked_before_the_first_epoch(
        tmp_path, tiny_corpus_file, seg_and_clf_files, cooccur_files, caplog,
        capsys, command):
    argv = _rate_argv(command, tmp_path, tiny_corpus_file, seg_and_clf_files,
                      cooccur_files)
    caplog.clear()
    assert run([*argv, "--epochs", "0", "--lr", "-1"]) == 1
    assert _one_error_line(caplog) == (
        "usage error: learning rate must be finite and > 0")
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("flag,value,rule", [
    ("--batch-size", "0", ">= 1"), ("--min-count", "0", ">= 1"),
    ("--epochs", "-1", ">= 0"), ("--phrase-len", "2", "odd and >= 1")],
    ids=["batch-size", "min-count", "epochs", "phrase-len"])
def test_cli_size_error_names_the_flag(tmp_path, tiny_corpus_file, model_dir,
                                       caplog, flag, value, rule):
    if flag == "--phrase-len":
        argv = ["key-phrases", "--model", str(model_dir / "rcnn.bin"),
                "--input", str(model_dir / "clf.tsv")]
    else:
        argv = ["train-emb", "--kind", "skipgram", "--corpus",
                str(tiny_corpus_file), "--dim", "3", "--epochs", "1",
                "--out", str(tmp_path / "e.vec")]
    caplog.clear()
    assert run([*argv, flag, value]) == 1
    assert _one_error_line(caplog) == f"usage error: {flag} must be {rule}"
    assert not (tmp_path / "e.vec").exists()


def test_cli_nan_subsampling_threshold_is_usage_error(tmp_path, tiny_corpus_file,
                                                      caplog):
    out = tmp_path / "e.vec"
    assert run(["train-emb", "--kind", "skipgram", "--corpus",
                str(tiny_corpus_file), "--dim", "3", "--epochs", "1", "--t",
                "nan", "--out", str(out)]) == 1
    assert _one_error_line(caplog) == (
        "usage error: subsampling threshold t must be positive")
    assert not out.exists()


@pytest.mark.parametrize("l2", ["-1", "nan", "inf"])
def test_cli_eval_avg_l2_not_finite_and_nonnegative_is_usage_error(
        tmp_path, seg_and_clf_files, cooccur_files, caplog, capsys, l2):
    argv = _rate_argv("eval-avg", tmp_path, None, seg_and_clf_files,
                      cooccur_files)
    caplog.clear()
    assert run([*argv, "--l2", l2]) == 1
    assert _one_error_line(caplog) == (
        "usage error: l2 must be finite and >= 0")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("kind", ["skipgram", "cw"])
def test_cli_one_word_vocabulary_has_no_noise_word(tmp_path, tiny_corpus_file,
                                                   caplog, kind):
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("w0\t5\n", encoding="utf-8")
    out = tmp_path / "e.vec"
    argv = ["train-emb", "--kind", kind, "--corpus", str(tiny_corpus_file),
            "--vocab", str(vocab), "--dim", "3", "--hidden", "3",
            "--epochs", "1", "--out", str(out)]
    caplog.clear()
    assert run(argv) == 2
    assert _one_error_line(caplog) == (
        "data error: noise words need a vocabulary of at least 2 words")
    assert not out.exists()
    if kind == "skipgram":  # the full softmax draws no noise word
        assert run([*argv, "--full-softmax"]) == 0
        assert load_embeddings(out).tokens == ["w0"]


def test_cli_eval_avg_prints_coverage(tmp_path, capsys):
    emb, train, test = (tmp_path / n for n in ("e.vec", "train.tsv", "test.tsv"))
    save_embeddings(EmbeddingTable(["a", "b"], np.eye(2)), emb)
    train.write_text("0\ta\n1\tb\n", encoding="utf-8")
    # of four documents only the first has a token the table knows
    test.write_text("0\ta\n1\tx\n0\ty\n1\tz\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--task", "avg", "--train",
                str(train), "--test", str(test), "--epochs", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["train_accuracy: 1.0000", "train_coverage: 2/2",
                     "accuracy: 1.0000", "coverage: 1/4"]


def _segmenter_files(tmp_path):
    gold = tmp_path / "gold.txt"
    gold.write_text("的一/是/在有/123/abc\n" * 20, encoding="utf-8")
    raw = tmp_path / "raw.txt"
    raw.write_text("的一是在有123abc\n", encoding="utf-8")
    return gold, raw


def test_cli_segmenter_decodes_as_it_was_trained(tmp_path, capsys):
    gold, raw = _segmenter_files(tmp_path)
    model, pred = tmp_path / "seg.bin", tmp_path / "pred.txt"
    assert run(["segment-train", "--corpus", str(gold), "--no-normalize",
                "--dim", "6", "--hidden", "12", "--epochs", "30",
                "--out", str(model)]) == 0
    assert load_container(model)[1]["normalize"] is False
    assert run(["segment-decode", "--model", str(model), "--input", str(raw),
                "--out", str(pred)]) == 0
    assert pred.read_text(encoding="utf-8") == "的一/是/在有/123/abc\n"
    assert run(["segment-decode", "--model", str(model), "--input", str(raw),
                "--out", str(pred), "--no-normalize"]) == 1


def test_cli_segmenter_container_normalize_key(tmp_path, caplog):
    from embkit import cli
    gold, raw = _segmenter_files(tmp_path)
    model = tmp_path / "seg.bin"
    assert run(["segment-train", "--corpus", str(gold), "--no-normalize",
                "--dim", "3", "--hidden", "3", "--epochs", "1",
                "--out", str(model)]) == 0
    arrays, meta = load_container(model)
    del meta["normalize"]  # as written before the model recorded it
    save_container(model, arrays, meta)
    assert cli._load_segmenter(model).normalize is True
    save_container(model, arrays, {**meta, "normalize": "no"})
    caplog.clear()
    assert run(["segment-decode", "--model", str(model), "--input", str(raw),
                "--out", str(tmp_path / "pred.txt")]) == 2
    assert _one_error_line(caplog) == (f"data error: {model}: normalize must "
                                       f"be true or false, not 'no'")


# --- flags that change what a run computes --------------------------------------

@pytest.mark.parametrize("flags", [["--batch-size", "7"], ["--negatives", "2"],
                                   ["--subsample-variant", "paper"]],
                         ids=["batch-size", "negatives", "subsample-variant"])
def test_cli_training_flag_changes_the_output(tmp_path, tiny_corpus_file, flags):
    def train(name, extra):
        out = tmp_path / f"{name}.vec"
        assert run(["train-emb", "--kind", "skipgram", "--corpus",
                    str(tiny_corpus_file), "--dim", "4", "--epochs", "1",
                    "--t", "0.01", *extra, "--out", str(out)]) == 0
        return out.read_bytes()
    assert train("flag", flags) != train("default", [])


def test_cli_checkpoint_dir_writes_each_epoch(tmp_path, tiny_corpus_file):
    out, ckpt = tmp_path / "e.vec", tmp_path / "ckpt"
    ckpt.mkdir()
    assert run(["train-emb", "--kind", "skipgram", "--corpus",
                str(tiny_corpus_file), "--dim", "4", "--epochs", "2",
                "--checkpoint-dir", str(ckpt), "--out", str(out)]) == 0
    assert sorted(os.listdir(ckpt)) == ["checkpoint-ep0.vec", "checkpoint-ep1.vec"]
    assert (ckpt / "checkpoint-ep1.vec").read_bytes() == out.read_bytes()


def test_cli_segment_train_init_embeddings_logs_rows_loaded(tmp_path, caplog):
    gold, _ = _segmenter_files(tmp_path)
    chars = tmp_path / "chars.vec"
    # two of the three rows are characters of the corpus
    save_embeddings(EmbeddingTable(["的", "是", "X"], np.ones((3, 3))), chars)
    caplog.set_level(logging.INFO)
    assert run(["segment-train", "--corpus", str(gold), "--dim", "3",
                "--hidden", "3", "--epochs", "0", "--init-embeddings",
                str(chars), "--out", str(tmp_path / "seg.bin")]) == 0
    assert f"initialized 2 character vectors from {chars}" in [
        r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("model", ["segmenter", "rcnn", "wincnn"])
def test_cli_embedding_file_seeds_the_model_at_its_width(
        tmp_path, seg_and_clf_files, caplog, model):
    # a token in the file gets the file's row, a token it lacks keeps the
    # row a run with the same seed and no file gives it, and the model
    # takes the file's width, not --dim's
    if model == "segmenter":
        argv, flag = seg_and_clf_files["segment-train"], "--init-embeddings"
        key, tokens, what = "chars", ["的", "是", "X"], "character"
    else:
        argv = [*seg_and_clf_files["classify-train"], "--model", model]
        flag, key, tokens, what = "--embeddings", "tokens", ["a", "d", "X"], "word"
    path = tmp_path / "seed.vec"
    save_embeddings(EmbeddingTable(tokens, np.arange(12).reshape(3, 4) / 8),
                    path)
    table = load_embeddings(path)
    seeded, plain = tmp_path / "seeded.bin", tmp_path / "plain.bin"
    argv = [*argv, "--hidden", "3", "--epochs", "0", "--seed", "5"]
    caplog.set_level(logging.INFO)
    assert run([*argv, "--dim", "2", flag, str(path), "--out", str(seeded)]) == 0
    assert f"initialized 2 {what} vectors from {path}" in [
        r.getMessage() for r in caplog.records]
    assert run([*argv, "--dim", "4", "--out", str(plain)]) == 0
    (arrays, meta), (plain_arrays, plain_meta) = map(load_container,
                                                     (seeded, plain))
    assert meta == plain_meta and meta["dim"] == 4
    rows = {t: i for i, t in enumerate(meta[key])}
    for token in ("的", "是") if model == "segmenter" else ("a", "d"):
        assert np.array_equal(arrays["e"][rows[token]],
                              table.vectors[table.token_to_id[token]])
    lacking = [i for t, i in rows.items() if t not in table]
    assert len(lacking) == len(rows) - 2
    assert np.array_equal(arrays["e"][lacking], plain_arrays["e"][lacking])
    assert all(np.array_equal(arrays[k], plain_arrays[k])
               for k in arrays if k != "e")


@pytest.mark.parametrize("command", ["segment-train", "classify-train"])
def test_cli_zero_width_embedding_file_is_data_error(tmp_path, caplog,
                                                     seg_and_clf_files, command):
    # the model would take the file's width, 0
    path = tmp_path / "zero.vec"
    path.write_text("2 0\na\n的\n", encoding="utf-8")
    flag = "--init-embeddings" if command == "segment-train" else "--embeddings"
    out = tmp_path / "model.bin"
    caplog.clear()
    assert run([*seg_and_clf_files[command], "--epochs", "0", flag, str(path),
                "--out", str(out)]) == 2
    assert _one_error_line(caplog) == f"data error: {path}: empty embedding table"
    assert not out.exists()


@pytest.mark.parametrize("container", [False, True])
def test_load_embeddings_empty_table_names_the_file(tmp_path, container):
    # "2 0", rows of width 0, is test_cli_zero_width_embedding_file_is_data_error
    path = tmp_path / "empty.vec"
    if container:
        save_container(path, {"vectors": np.zeros((0, 3), np.float32)},
                       {"format": "embedding", "tokens": []})
    else:
        path.write_text("0 3\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: empty "
                                        "embedding table$"):
        load_embeddings(path)


def test_cli_classify_train_dev_fraction_zero_holds_out_nothing(
        tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_text("0\ta b\n1\tc d\n0\ta e\n1\tc f\n", encoding="utf-8")
    out = tmp_path / "model.bin"
    assert run(["classify-train", "--train", str(train), "--dev-fraction",
                "0", "--dim", "2", "--context-dim", "2", "--hidden", "3",
                "--epochs", "2", "--out", str(out)]) == 0
    _, meta = load_container(out)
    assert set("abcdef") <= set(meta["tokens"])  # every document trained
    assert "best_dev_accuracy" not in capsys.readouterr().out


def test_cli_train_emb_logs_one_wrote_line_per_file(tmp_path,
                                                    tiny_corpus_file, caplog):
    paths = [str(tmp_path / name) for name in ("e.vec", "vocab.tsv", "m.bin")]
    caplog.set_level(logging.INFO)
    assert run(["train-emb", "--kind", "skipgram", "--corpus",
                str(tiny_corpus_file), "--dim", "2", "--epochs", "1",
                "--out", paths[0], "--save-vocab", paths[1],
                "--model-out", paths[2]]) == 0
    wrote = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("wrote")]
    assert sorted(wrote) == sorted(f"wrote {p}" for p in paths)


def test_cli_key_phrases_per_class_prints_class_headers(tmp_path, capsys,
                                                        seg_and_clf_files):
    model = tmp_path / "rcnn.bin"
    args = seg_and_clf_files["classify-train"]
    assert run([*args, "--dim", "3", "--context-dim", "2", "--hidden", "3",
                "--epochs", "1", "--out", str(model)]) == 0
    capsys.readouterr()
    assert run(["key-phrases", "--model", str(model), "--input", args[-1],
                "--per-class", "--top", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("  ")] == [
        "class 0:", "class 1:"]
    assert len(lines) == 4
