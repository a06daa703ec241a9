"""Print the SHA-256 of every output file and stdout of one bench cycle.

Generates a workload's inputs with `bench/gen.py` into a temporary
directory, runs one cycle of `bench/workloads.py`'s commands through
`embkit.cli.main` with embkit imported from `--src`, and prints one
`<sha256>  <name>` line per command's stdout and per output file. After
the cycle it runs the bench's zero-epoch GloVe command and trains the
variants the cycle does not cover: full softmax, `--char-context`,
`--beta 1`, `lbl`, two SGD epochs, float32 charword and cbow, and the
ingest flags `--shuffle-docs`, `--blank-line-docs`, `--min-count` and
`--vocab`, on the workload's small corpus; the full-softmax,
`--char-context` and `lbl` runs also write their model containers. The
`--vocab` runs close the vocabulary to the cycle's `vocab.txt`, one of them
on the main corpus. Then it runs `equiv-report` on the full-softmax model
against the cycle's co-occurrence counts, which come from the same small
corpus at the same minimum count, so both have one vocabulary. Then it
trains `train-charword --chars-out` on `PSEUDO_SENTENCES` seeded lines
whose words embed `NUMBER` or `WORD` (`PSEUDO_OUT`), so the char-word
spelling of a pseudo-token inside a word is hashed too. The other
trainers' variants follow (`OTHER_TRAINERS`): `eval --task avg --l2 0.01`
on the cycle's skipgram table and classification files, `classify-train
--model wincnn`, `factorize --objective log` and `conditional` on the
cycle's counts, `segment-train --optimizer sgd`, and the two runs seeded
from an embedding file: `segment-train --init-embeddings` on the mixed
sentences below, from the pseudo-token run's character table, which
shares their characters, and `classify-train --embeddings` from the
cycle's skipgram table.
It hashes the analogy answers over every embedding table the cycle
writes (`ANALOGY_TABLES`). It asks the bench's
questions, then `OWN_QUESTIONS` questions of three distinct words drawn
from the table's own vocabulary (seeded by `--seed`, so that the tables
trained on the small corpus answer questions too). Each question is asked
under its own category and expects this tool's own float64 3CosAdd
answer, so `eval --task analogy` prints, question by question, whether
embkit's guess equals it. On the same tables it runs `eval --task ws` on
`OWN_PAIRS` seeded pairs and `eval --task tfl` on `OWN_CHOICES` seeded
questions drawn from the table's own vocabulary, some with one OOV word,
and `eval --task nn --k 10` on `NN_QUERIES` seeded words of the table.
The mixed sentences are `MIXED_SENTENCES` seeded
segmented lines that mix CJK words, digit runs and Latin runs. Last it
trains a segmenter on them, decodes their unsegmented text (`MIXED_OUT`) and
scores the decode against them: the segmenter runs whose characters are
not all CJK, once normalized and once with `segment-train --no-normalize`
(`MIXED_RUNS`), whose decode reads the text as the model records. Two
sources produce the same bytes when their listings `diff` clean:

    python3 tools/hash_outputs.py --src src --workload pairs-bigvocab > a.txt
    python3 tools/hash_outputs.py --src /path/to/other/src \\
        --workload pairs-bigvocab > b.txt
    diff a.txt b.txt

BLAS runs on one thread, as in the bench, so dense products do not depend
on the thread count.
"""

import argparse
import contextlib
import hashlib
import io
import os
import random
import string
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

EXTRAS = {
    "full_softmax": ["train-emb", "--kind", "skipgram", "--full-softmax"],
    "char_context": ["train-charword", "--char-context"],
    "beta1": ["train-charword", "--beta", "1"],
    "lbl": ["train-emb", "--kind", "lbl", "--hidden", "50"],
    "sgd": ["train-emb", "--kind", "skipgram", "--optimizer", "sgd",
            "--epochs", "2"],
    "charword_f32": ["train-charword", "--precision", "float32"],
    "cbow_f32": ["train-emb", "--kind", "cbow", "--precision", "float32"],
    "shuffle_docs": ["train-emb", "--kind", "skipgram", "--shuffle-docs",
                     "--t", "1e-3"],
    "blank_line_docs": ["train-emb", "--kind", "cbow", "--blank-line-docs"],
    "min_count": ["train-charword", "--min-count", "3"],
    "vocab": ["train-emb", "--kind", "order", "--vocab", "{vocab}"],
    "vocab_min_count": ["train-emb", "--kind", "skipgram", "--corpus",
                        "{corpus}", "--vocab", "{vocab}", "--min-count", "2"],
}
# EXTRAS arguments name the cycle's vocab.txt as {vocab} and the main
# corpus as {corpus}
# extras that also write their model container, extra_<id>_model.bin: the
# full-softmax skipgram that equiv-report scores, one with H/b1/b2 and one
# with character rows
MODEL_OUT = ("full_softmax", "char_context", "lbl")
# trainers the cycle runs in one variant only, on its inputs and outputs
# named in braces, the mixed sentences ({mixed_gold}) and the pseudo-token
# run's character table ({pseudo_chars})
OTHER_TRAINERS = {
    "avg_l2": ["eval", "--task", "avg", "--embeddings", "{skipgram}",
               "--train", "{clf_train}", "--test", "{clf_dev}", "--l2",
               "0.01", "--seed", "{seed}"],
    "wincnn": ["classify-train", "--model", "wincnn", "--train",
               "{clf_train}", "--dev", "{clf_dev}", "--epochs", "2", "--dim",
               "20", "--hidden", "40", "--seed", "{seed}", "--out",
               "{out_dir}/wincnn.bin"],
    "factorize_log": ["factorize", "--cooccur", "{cooccur}", "--vocab",
                      "{vocab}", "--objective", "log", "--dim", "{dim}",
                      "--epochs", "2", "--seed", "{seed}", "--out",
                      "{out_dir}/factorize_log.bin"],
    "factorize_conditional": ["factorize", "--cooccur", "{cooccur}",
                              "--vocab", "{vocab}", "--objective",
                              "conditional", "--dim", "{dim}", "--epochs",
                              "2", "--seed", "{seed}", "--out",
                              "{out_dir}/factorize_conditional.bin"],
    "segment_sgd": ["segment-train", "--corpus", "{seg_train}", "--optimizer",
                    "sgd", "--epochs", "2", "--seed", "{seed}", "--out",
                    "{out_dir}/segment_sgd.bin"],
    "segment_init": ["segment-train", "--corpus", "{mixed_gold}",
                     "--init-embeddings", "{pseudo_chars}", "--dim", "8",
                     "--epochs", "2", "--seed", "{seed}", "--out",
                     "{out_dir}/segment_init.bin"],
    "classify_init": ["classify-train", "--train", "{clf_train}", "--dev",
                      "{clf_dev}", "--embeddings", "{skipgram}", "--epochs",
                      "2", "--context-dim", "20", "--hidden", "40", "--seed",
                      "{seed}", "--out", "{out_dir}/classify_init.bin"],
}
# the cycle's embedding tables whose analogy answers are hashed, as
# stdout:analogy_<table>
ANALOGY_TABLES = ("skipgram", "skipgram_f32", "charword", "cbow", "order",
                  "nnlm", "cw")
# questions drawn from each table's own vocabulary
OWN_QUESTIONS = 300
# similarity pairs and choice questions drawn from each table's own
# vocabulary, hashed as stdout:ws_<table> and stdout:tfl_<table>
OWN_PAIRS = 300
OWN_CHOICES = 300
# query words drawn from each table's own vocabulary for `eval --task nn`,
# hashed as stdout:nn_<table>_<i>
NN_QUERIES = 3
# the mixed-script segmentation runs: their sentences, the segment-train
# flags of each run by its id prefix, and their output files
MIXED_SENTENCES = 40
MIXED_RUNS = {"mixed": [], "mixed_raw": ["--no-normalize"]}
MIXED_OUT = tuple(f"{prefix}_{name}" for prefix in MIXED_RUNS
                  for name in ("segmenter.bin", "seg_pred.txt"))
# the char-word run on words that embed pseudo-tokens: its sentences and
# its word and character tables, the second as {pseudo_chars}
PSEUDO_SENTENCES = 60
PSEUDO_OUT = ("pseudo_words.vec", "pseudo_chars.vec")


def extra_commands(name, files, out, out_dir, seed):
    """The zero-epoch GloVe run, the EXTRAS variants, equiv-report, the
    char-word run on `files["pseudo"]`, then the OTHER_TRAINERS runs."""
    w = workloads.WORKLOADS[name]
    dim = str(w["dim"])
    # its own output, so the cycle's glove.bin is hashed as the cycle left it
    glove_out = {**out, "glove": os.path.join(out_dir, "glove_initial.bin")}
    cmds = [("glove_initial", workloads.glove_argv(w, glove_out, seed, 0))]
    for cmd_id, head in EXTRAS.items():
        # a later flag overrides the shared one, as `--epochs 2` does
        argv = [head[0], "--corpus", files["corpus_small"], "--dim", dim,
                "--epochs", "1", "--seed", str(seed), "--binary",
                *(a.format(corpus=files["corpus"], vocab=out["vocab"])
                  for a in head[1:]),
                "--out", os.path.join(out_dir, f"extra_{cmd_id}.bin")]
        if cmd_id in MODEL_OUT:
            argv += ["--model-out",
                     os.path.join(out_dir, f"extra_{cmd_id}_model.bin")]
        cmds.append((f"extra_{cmd_id}", argv))
    cmds.append(("equiv_report", [
        "equiv-report", "--cooccur", out["cooccur"], "--vocab", out["vocab"],
        "--model", os.path.join(out_dir, "extra_full_softmax_model.bin")]))
    words, chars = (os.path.join(out_dir, n) for n in PSEUDO_OUT)
    cmds.append(("pseudo_charword", [
        "train-charword", "--corpus", files["pseudo"], "--dim", "8",
        "--epochs", "2", "--seed", str(seed), "--out", words, "--chars-out",
        chars]))
    for cmd_id, argv in OTHER_TRAINERS.items():
        cmds.append((cmd_id, [a.format(seed=seed, dim=dim, out_dir=out_dir,
                                       pseudo_chars=chars, **files, **out)
                              for a in argv]))
    return cmds


def answer_questions(table_path, questions_path, out_path, seed):
    """Write the analogy questions of `questions_path`, then OWN_QUESTIONS
    questions of three distinct words of the table at `table_path` drawn
    with `seed`, each under its own category `q<k>` and expecting the
    3CosAdd answer over that table as computed here: the float64 argmax of
    the unit rows' dot products with the query, a, b and c excluded."""
    import numpy as np
    from embkit.evaluate import load_analogies
    from embkit.io_formats import load_embeddings

    table = load_embeddings(table_path)
    unit = table.unit_vectors()
    rng = np.random.default_rng(seed)
    questions = [q[:3] for q in load_analogies(questions_path)]
    questions += [[table.tokens[i]
                   for i in rng.choice(len(table), 3, replace=False)]
                  for _ in range(OWN_QUESTIONS)]
    lines = []
    for k, (a, b, c) in enumerate(questions):
        ids = [table.token_to_id.get(w) for w in (a, b, c)]
        if None in ids:
            continue
        v = table.vectors
        scores = unit @ (v[ids[1]] - v[ids[0]] + v[ids[2]])
        scores[ids] = -np.inf
        answer = table.tokens[int(np.argmax(scores))]
        lines.append(f": q{k}\n{a} {b} {c} {answer}\n")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def similarity_and_choice(table_path, pairs_path, choices_path, seed):
    """Write OWN_PAIRS similarity pairs with seeded scores to `pairs_path`
    and OWN_CHOICES choice questions, a query, four options and a seeded
    answer index, to `choices_path`. Words are drawn with `seed` from the
    vocabulary of the table at `table_path`; one pair or question in four
    has one word replaced by a word outside it, so no question has all its
    options OOV."""
    import numpy as np
    from embkit.io_formats import load_embeddings

    tokens = load_embeddings(table_path).tokens
    rng = np.random.default_rng([seed, 1])

    def draw(n_rows, width):
        rows = [[tokens[i] for i in rng.choice(len(tokens), width, replace=False)]
                for _ in range(n_rows)]
        for k, row in enumerate(rows):
            if rng.random() < 0.25:
                row[rng.integers(width)] = f"oov{k}"
        return rows

    with open(pairs_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{a}\t{b}\t{rng.uniform(0, 10):.2f}\n"
                      for a, b in draw(OWN_PAIRS, 2))
    with open(choices_path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + f"\t{rng.integers(4)}\n"
                      for row in draw(OWN_CHOICES, 5))


def nn_queries(table_path, seed):
    """NN_QUERIES distinct words drawn with `seed` from the vocabulary of
    the table at `table_path`."""
    import numpy as np
    from embkit.io_formats import load_embeddings

    tokens = load_embeddings(table_path).tokens
    rng = np.random.default_rng([seed, 2])
    return [tokens[i] for i in rng.choice(len(tokens), NN_QUERIES, replace=False)]


def mixed_segmentation(gold_path, raw_path, seed):
    """Write MIXED_SENTENCES segmented lines to `gold_path` and their text
    to `raw_path`. A word is CJK, a digit run, a Latin run, or a CJK word
    with a digit or Latin run inside, as in 第200号."""
    rng = random.Random(seed)
    cjk = "的一是在有了不人我他第号年说"

    def run_of(alphabet, longest):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, longest)))

    def word():
        kind = rng.randrange(5)
        if kind == 0:
            return run_of(cjk, 3)
        inner = run_of(string.digits if kind % 2 else string.ascii_letters, 4)
        return inner if kind < 3 else rng.choice(cjk) + inner + rng.choice(cjk)

    sentences = [[word() for _ in range(rng.randint(2, 8))]
                 for _ in range(MIXED_SENTENCES)]
    for path, sep in ((gold_path, "/"), (raw_path, "")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(sep.join(words) + "\n" for words in sentences)


def pseudo_corpus(path, seed):
    """Write PSEUDO_SENTENCES lines of CJK words, some with NUMBER or WORD
    before, inside or after them, as in 第NUMBER号."""
    rng = random.Random(seed)
    cjk = "的一是在有了不人我他第号年说"

    def word():
        left, right = rng.choice(cjk), rng.choice(cjk)
        pseudo = rng.choice(("NUMBER", "WORD"))
        return rng.choice((left + right, pseudo + right, left + pseudo,
                           left + pseudo + right))

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(word() for _ in range(rng.randint(3, 9))) + "\n"
                      for _ in range(PSEUDO_SENTENCES))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the embkit package to run")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)

    # before numpy loads, as in the bench worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.setdefault("EMBKIT_LOG", "WARNING")
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import gen
    import embkit.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"embkit imported from {cli.__file__}, not {src}")

    with tempfile.TemporaryDirectory() as work:
        manifest = gen.generate(os.path.join(work, "in"), args.seed,
                                workloads.generator_params(args.workload))
        out_dir = os.path.join(work, "out")
        os.makedirs(out_dir)
        out = workloads.output_paths(out_dir)
        commands = [(cmd_id, argv) for cmd_id, argv, _ in workloads.cycle(
            args.workload, manifest["files"], manifest["sizes"], out,
            args.seed)]
        pseudo = os.path.join(work, "pseudo.txt")
        pseudo_corpus(pseudo, args.seed)
        gold, raw = (os.path.join(work, f"mixed_{n}.txt") for n in ("gold", "raw"))
        mixed_segmentation(gold, raw, args.seed)
        commands += extra_commands(
            args.workload, {**manifest["files"], "pseudo": pseudo,
                            "mixed_gold": gold}, out, out_dir, args.seed)

        def run(cmd_id, cmd_argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(cmd_argv)
            text = buf.getvalue().replace(work, "<work>")
            print(f"{sha256(text.encode())}  stdout:{cmd_id} exit={rc}")

        for cmd_id, cmd_argv in commands:
            run(cmd_id, cmd_argv)
        for name in ANALOGY_TABLES:
            questions = os.path.join(work, f"answers_{name}.txt")
            answer_questions(out[name], manifest["files"]["analogy"], questions,
                             args.seed)
            run(f"analogy_{name}", ["eval", "--task", "analogy", "--embeddings",
                                    out[name], "--dataset", questions])
            datasets = {task: os.path.join(work, f"{task}_{name}.txt")
                        for task in ("ws", "tfl")}
            similarity_and_choice(out[name], datasets["ws"], datasets["tfl"],
                                  args.seed)
            for task, path in datasets.items():
                run(f"{task}_{name}", ["eval", "--task", task, "--embeddings",
                                       out[name], "--dataset", path])
            for i, word in enumerate(nn_queries(out[name], args.seed)):
                run(f"nn_{name}_{i}", ["eval", "--task", "nn", "--embeddings",
                                       out[name], "--word", word, "--k", "10"])
        for prefix, flags in MIXED_RUNS.items():
            model, pred = (os.path.join(out_dir, f"{prefix}_{n}")
                           for n in ("segmenter.bin", "seg_pred.txt"))
            run(f"{prefix}_segment_train",
                ["segment-train", "--corpus", gold, *flags, "--dim", "10",
                 "--hidden", "20", "--epochs", "2", "--dev-fraction", "0.25",
                 "--seed", str(args.seed), "--out", model])
            run(f"{prefix}_segment_decode",
                ["segment-decode", "--model", model, "--input", raw, "--out",
                 pred])
            run(f"{prefix}_segment_score",
                ["segment-score", "--pred", pred, "--gold", gold])
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                print(f"{sha256(fh.read())}  {name}")


if __name__ == "__main__":
    main()
