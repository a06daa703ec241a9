import os
import subprocess
import sys

import numpy as np
import pytest

import embkit
from embkit.cli import run
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


def test_embedding_empty_vocabulary_errors():
    with pytest.raises(DataError):
        EmbeddingTable([], np.zeros((0, 3)))


def test_embedding_header_mismatch_errors(tmp_path):
    path = tmp_path / "bad.vec"
    path.write_text("2 3\na 1 2 3\nb 1 2 3\nc 1 2 3\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_embeddings(path)


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


def test_cli_missing_file_is_data_error(tmp_path):
    out = tmp_path / "emb.vec"
    code = run(["train-emb", "--kind", "skipgram",
                "--corpus", str(tmp_path / "missing.txt"),
                "--out", str(out)])
    assert code == 2


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
    vocab = build_vocabulary(stream.all_tokens(), 1)
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
def cooccur_files(tmp_path, tiny_corpus_file):
    vocab_path, cooc_path = tmp_path / "vocab.tsv", tmp_path / "cooc.tsv"
    assert run(["cooccur", "--corpus", str(tiny_corpus_file), "--win", "5",
                "--out", str(cooc_path), "--save-vocab", str(vocab_path)]) == 0
    return vocab_path, cooc_path


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
    else:
        corpus = tmp_path / "seg.txt"
        corpus.write_text("的有/我/不\n一了/是/人\n" * 5, encoding="utf-8")
        args = ["segment-train", "--corpus", str(corpus), "--dim", "4",
                "--hidden", "6", "--epochs", "3"]
    code, stderr = _run_cli_process([*args, "--optimizer", "sgd", "--lr",
                                     "1e200", "--out", str(out)])
    assert code == 3
    errors = [line for line in stderr if line.startswith("[ERROR]")]
    assert len(errors) == 1 and "numeric failure" in errors[0]
    assert all(line.startswith(("[INFO]", "[ERROR]")) for line in stderr), stderr
    assert not any("Warning" in line for line in stderr)
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
