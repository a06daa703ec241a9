"""The benchmark's tracer (bench/spans.py) wraps embkit functions by name
and binds some of their parameters by name. Running small commands under it
here makes a rename that would break `bench/run.py --trace 1`, or a trainer
that stops calling a wrapped name and so zeroes a per-layer count, fail
tier-1.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from embkit import cli, evaluate
from embkit.io_formats import EmbeddingTable, save_embeddings

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


@pytest.fixture
def tracer():
    sys.path.insert(0, BENCH)
    try:
        import spans
        t = spans.Tracer()
        t.install()
        try:
            yield t
        finally:
            t.uninstall()
    finally:
        sys.path.remove(BENCH)
        sys.modules.pop("spans", None)


def test_tracer_counts_segmenter_samples_and_factorization_cells(tmp_path,
                                                                 tracer):
    seg = tmp_path / "seg.txt"
    seg.write_text("的一/是\n是/的一\n", encoding="utf-8")  # 6 characters
    assert cli.run(["segment-train", "--corpus", str(seg), "--dim", "2",
                    "--hidden", "3", "--epochs", "2",
                    "--out", str(tmp_path / "seg.bin")]) == 0

    corpus, vocab = tmp_path / "corpus.txt", tmp_path / "vocab.txt"
    cooc = tmp_path / "cooc.txt"
    corpus.write_text("a b c a b\nc a b\n", encoding="utf-8")
    assert cli.run(["cooccur", "--corpus", str(corpus), "--win", "3",
                    "--save-vocab", str(vocab), "--out", str(cooc)]) == 0
    assert cli.run(["factorize", "--cooccur", str(cooc), "--vocab", str(vocab),
                    "--win", "3", "--dim", "2", "--epochs", "3",
                    "--out", str(tmp_path / "glove.bin")]) == 0

    n_cells = len(cooc.read_text(encoding="utf-8").splitlines())
    assert n_cells > 0
    assert tracer.counts["segment.samples"] == 6 * 2
    assert tracer.counts["matrixfact.cells"] == n_cells * 3


def test_tracer_counts_embedding_units_negatives_and_subsampling(tmp_path,
                                                                 tracer):
    # 100 words twice each: --t 1e-3 keeps about 40% of them
    corpus = tmp_path / "corpus.txt"
    words = [f"w{i}" for i in range(100)] * 2
    corpus.write_text("\n".join(" ".join(words[i:i + 20])
                                for i in range(0, 200, 20)) + "\n",
                      encoding="utf-8")
    common = ["--corpus", str(corpus), "--dim", "2", "--hidden", "3",
              "--epochs", "1", "--out", str(tmp_path / "e.vec")]
    assert cli.run(["train-emb", "--kind", "skipgram", "--t", "1e-3",
                    *common]) == 0
    assert tracer.counts["embeddings.units"] > 0
    assert tracer.counts["optim.negatives_drawn"] > 0
    assert tracer.counts["corpus.subsample_in"] == len(words)

    tracer.reset()
    assert cli.run(["train-emb", "--kind", "cw", *common]) == 0
    assert tracer.counts["embeddings.units"] == len(words)


def test_tracer_counts_classifier_documents_and_dev_evaluations(tmp_path,
                                                                tracer):
    train, dev = tmp_path / "train.tsv", tmp_path / "dev.tsv"
    train.write_text("0\ta b c\n1\td e f\n0\tb a\n", encoding="utf-8")
    dev.write_text("0\ta c\n1\tf e d\n", encoding="utf-8")
    assert cli.run(["classify-train", "--model", "rcnn", "--train", str(train),
                    "--dev", str(dev), "--dim", "2", "--context-dim", "2",
                    "--hidden", "3", "--epochs", "4",
                    "--out", str(tmp_path / "rcnn.bin")]) == 0
    assert tracer.counts["textclass.docs"] == 3 * 4
    assert sum(span[0] == "textclass.dev_eval" for span in tracer.spans) == 4


def test_tracer_sees_one_analogy_span_when_blocks_run_on_threads(
        tmp_path, tracer, monkeypatch):
    # the tracer's span stack is not thread-safe: no wrapped name may run
    # on the pool threads that score the blocks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    n = 4096  # 256 query rows per block of 2**20 scores
    rng = np.random.default_rng(0)
    tokens = [f"w{i}" for i in range(n)]
    emb, ana = tmp_path / "e.vec", tmp_path / "ana.txt"
    save_embeddings(EmbeddingTable(tokens, rng.normal(size=(n, 3))), emb)
    ana.write_text("".join(" ".join(tokens[i] for i in rng.choice(n, 4)) + "\n"
                           for _ in range(600)), encoding="utf-8")
    assert -(-600 // evaluate._block_rows(n)) >= 2
    assert cli.run(["eval", "--embeddings", str(emb), "--task", "analogy",
                    "--dataset", str(ana)]) == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("evaluate.analogy") == 1
    assert names.count("evaluate.unit_vectors") == 1
