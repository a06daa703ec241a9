"""Workload definitions: generator parameters and the command cycle.

Every workload runs the same fourteen commands per cycle, so every
end-to-end metric exists on every workload. A workload's own commands read
its main corpus and inputs sized to take most of the cycle; the other
commands read a small corpus and small inputs from the same generator, so
they stay cheaper and still catch a change that hurts them in this regime.
"""

SHARED = {
    "chars": 3000, "win": 5, "doc_len": (20, 80),
    "seg_lexicon": 400, "seg_len": (5, 15),
    "clf_topics": 4, "clf_lexicon": 300, "clf_dev": 100, "clf_doc_len": (20, 40),
    "nn_queries": 100,
}

WORKLOADS = {
    "pairs-bigvocab": {
        "why": "skipgram f64/f32, charword and analogy on a large table: "
               "negative sampling and row scatter dominate; "
               "factorization, segmenter and classifier run small",
        "own": ("skipgram", "skipgram_f32", "charword", "analogy"),
        "dim": 100,
        "gen": {"lexicon": 100000, "zipf": 0.6, "corpus_tokens": 40000,
                "small_tokens": 10000, "topics": 10, "topic_words": 10,
                "topic_first_rank": 300, "topic_share": 0.8,
                "analogies": 1500, "seg_train": 60, "seg_test": 500,
                "clf_train": 120},
    },
    "windows-smallvocab": {
        "why": "cbow, order, nnlm and cw on a small hot table without "
               "subsampling: window path and dense hidden layers dominate",
        "own": ("cbow", "order", "nnlm", "cw"),
        "dim": 50,
        "gen": {"lexicon": 10000, "zipf": 0.8, "corpus_tokens": 40000,
                "small_tokens": 10000, "topics": 10, "topic_words": 10,
                "topic_first_rank": 100, "topic_share": 0.7,
                "analogies": 1500, "seg_train": 60, "seg_test": 500,
                "clf_train": 120},
    },
}

# Command id -> its throughput and unit, printed per command for reading.
THROUGHPUT = {
    "skipgram": ("skipgram_tok_s", "tok/s"),
    "skipgram_f32": ("skipgram_f32_tok_s", "tok/s"),
    "charword": ("charword_tok_s", "tok/s"), "analogy": ("analogy_q_s", "q/s"),
    "cbow": ("cbow_tok_s", "tok/s"), "order": ("order_tok_s", "tok/s"),
    "nnlm": ("nnlm_tok_s", "tok/s"), "cw": ("cw_tok_s", "tok/s"),
    "cooccur": ("cooccur_tok_s", "tok/s"), "glove": ("glove_cells_s", "cells/s"),
    "segment_train": ("segment_train_chars_s", "chars/s"),
    "segment_decode": ("segment_decode_chars_s", "chars/s"),
    "rcnn": ("rcnn_docs_s", "docs/s"),
}

# End-to-end throughput metrics: (unit, commands). A metric is the input
# units of its commands per wall second of those commands, summed over one
# cycle; the run reports the median cycle. Grouping the commands of one code
# path gives each metric several seconds of measured work per run, which
# the short commands alone do not have on a host whose speed drifts.
GROUPS = {
    "pair_tok_s": ("tok/s", ("skipgram", "skipgram_f32", "charword")),
    "window_tok_s": ("tok/s", ("cbow", "order", "nnlm", "cw")),
    "analogy_q_s": ("q/s", ("analogy",)),
}

# The factorization, segmentation and classification commands, timed as one
# pipeline: `factor_seg_clf_s` is their summed wall in the median cycle.
PIPELINE = ("cooccur", "glove", "segment_train", "segment_decode",
            "segment_score", "rcnn")

SEG_EPOCHS = 1
RCNN_EPOCHS = 3
GLOVE_EPOCHS = 2


def generator_params(name):
    return {**SHARED, **WORKLOADS[name]["gen"]}


def cycle(name, files, sizes, out, seed):
    """The command cycle of one workload: (id, argv, input units) triples.

    Units are what the throughput metric counts: corpus tokens x epochs for
    training and cooccur, questions, characters x epochs, documents x
    epochs. GloVe cells are only known after cooccur ran, so its units are
    None here and filled in by the worker."""
    w = WORKLOADS[name]
    own = w["own"]
    dim = str(w["dim"])
    win = str(SHARED["win"])

    def corpus(cmd):
        # Both skipgram precisions always read the main corpus: they compare
        # with each other, and nn_topic_p10 and the analogy questions are
        # drawn from its vocabulary.
        if cmd in own or cmd in ("skipgram", "skipgram_f32"):
            return "corpus"
        return "corpus_small"

    def emb(cmd, *extra):
        c = corpus(cmd)
        argv = ["--corpus", files[c], "--dim", dim, "--win", win,
                "--epochs", "1", "--seed", str(seed), "--workers", "1",
                "--binary", *extra]
        return argv, sizes[c + "_tokens"]

    cmds = []
    argv, n = emb("skipgram", "--t", "1e-4", "--out", out["skipgram"],
                  "--model-out", out["skipgram_model"])
    cmds.append(("skipgram", ["train-emb", "--kind", "skipgram", *argv], n))
    argv, n = emb("skipgram_f32", "--t", "1e-4", "--precision", "float32",
                  "--out", out["skipgram_f32"])
    cmds.append(("skipgram_f32", ["train-emb", "--kind", "skipgram", *argv], n))
    argv, n = emb("charword", "--t", "1e-4", "--beta", "0.5",
                  "--out", out["charword"])
    cmds.append(("charword", ["train-charword", *argv], n))
    cmds.append(("analogy", ["eval", "--task", "analogy", "--embeddings",
                             out["skipgram"], "--dataset", files["analogy"]],
                 sizes["analogy_questions"]))
    for kind in ("cbow", "order", "nnlm", "cw"):
        argv, n = emb(kind, "--out", out[kind])
        cmds.append((kind, ["train-emb", "--kind", kind, *argv], n))
    c = corpus("cooccur")
    cmds.append(("cooccur", ["cooccur", "--corpus", files[c], "--win", win,
                             "--save-vocab", out["vocab"], "--out", out["cooccur"]],
                 sizes[c + "_tokens"]))
    cmds.append(("glove", glove_argv(w, out, seed, GLOVE_EPOCHS), None))
    cmds.append(("segment_train",
                  ["segment-train", "--corpus", files["seg_train"], "--epochs",
                   str(SEG_EPOCHS), "--seed", str(seed), "--out", out["segmenter"]],
                  sizes["seg_train_chars"] * SEG_EPOCHS))
    cmds.append(("segment_decode",
                  ["segment-decode", "--model", out["segmenter"], "--input",
                   files["seg_raw"], "--out", out["seg_pred"]],
                  sizes["seg_raw_chars"]))
    cmds.append(("segment_score", ["segment-score", "--pred", out["seg_pred"],
                                   "--gold", files["seg_gold"]], None))
    cmds.append(("rcnn",
                  ["classify-train", "--model", "rcnn", "--train",
                   files["clf_train"], "--dev", files["clf_dev"], "--epochs",
                   str(RCNN_EPOCHS), "--lr", "2.0", "--dim", "20",
                   "--context-dim", "20", "--hidden", "40", "--seed", str(seed),
                   "--out", out["rcnn"]],
                  sizes["clf_train_docs"] * RCNN_EPOCHS))
    return cmds


def glove_argv(w, out, seed, epochs):
    return ["factorize", "--cooccur", out["cooccur"], "--vocab", out["vocab"],
            "--win", str(SHARED["win"]), "--objective", "glove",
            "--dim", str(w["dim"]), "--epochs", str(epochs),
            "--seed", str(seed), "--out", out["glove"]]


OUTPUTS = ("skipgram", "skipgram_model", "skipgram_f32", "charword", "cbow",
           "order", "nnlm", "cw", "vocab", "cooccur", "glove", "segmenter",
           "seg_pred", "rcnn")


def output_paths(out_dir):
    ext = {"vocab": ".txt", "cooccur": ".txt", "seg_pred": ".txt"}
    return {k: f"{out_dir}/{k}{ext.get(k, '.bin')}" for k in OUTPUTS}
