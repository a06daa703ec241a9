"""Time corpus ingest (read, vocabulary, encode) on a seeded Zipf corpus.

Writes the corpus to `--corpus` unless that file exists: 2M tokens drawn
from a Zipf(1.0) law over 250k random lowercase words, 1000 to a line,
seed 0. Then runs `train-emb --min-count 5 --epochs 0 --dim 1` on it
`--repeat` times, each in a fresh process with embkit imported from
`--src`: that command reads the corpus, builds the vocabulary and encodes
the corpus, and its training and output are small next to that. Prints
each run's wall and peak RSS, then the number of words kept:

    python3 tools/ingest_timing.py --src src --corpus /tmp/zipf2m.txt
"""

import argparse
import multiprocessing
import os
import subprocess
import sys
import tempfile

import numpy as np

TOKENS, LEXICON, ZIPF, LINE_TOKENS, SEED = 2_000_000, 250_000, 1.0, 1000, 0

CHILD = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
from embkit.cli import main
t0 = time.perf_counter()
rc = main(sys.argv[2:])
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"exit={rc} wall_s={wall:.3f} peak_rss_mb={rss:.1f}")
"""


def write_corpus(path):
    rng = np.random.default_rng(SEED)
    lengths = rng.integers(2, 11, size=2 * LEXICON)
    letters = rng.integers(97, 123, size=int(lengths.sum()), dtype=np.uint8)
    # twice the lexicon of random words, so that enough stay distinct
    words = list(dict.fromkeys(
        chunk.tobytes().decode()
        for chunk in np.split(letters, np.cumsum(lengths)[:-1])))[:LEXICON]
    p = 1.0 / np.arange(1, len(words) + 1) ** ZIPF
    draws = rng.choice(len(words), size=TOKENS, p=p / p.sum())
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, TOKENS, LINE_TOKENS):
            fh.write(" ".join(words[i] for i in draws[lo:lo + LINE_TOKENS]))
            fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True,
                    help="directory holding the embkit package to run")
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    if not os.path.exists(args.corpus):
        # in a child process: the runs below would inherit this one's peak RSS
        writer = multiprocessing.get_context("spawn").Process(
            target=write_corpus, args=(args.corpus,))
        writer.start()
        writer.join()
        if writer.exitcode:
            raise SystemExit(f"writing {args.corpus} failed")
    with tempfile.TemporaryDirectory() as work:
        cmd = [sys.executable, "-c", CHILD, os.path.abspath(args.src),
               "train-emb", "--kind", "skipgram", "--corpus", args.corpus,
               "--min-count", "5", "--epochs", "0", "--dim", "1",
               "--save-vocab", os.path.join(work, "vocab.txt"),
               "--out", os.path.join(work, "emb.vec")]
        env = {**os.environ, "EMBKIT_LOG": "WARNING"}
        for _ in range(args.repeat):
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            if proc.returncode:
                raise SystemExit(proc.stderr)
            print(proc.stdout.strip(), flush=True)
        with open(os.path.join(work, "vocab.txt"), encoding="utf-8") as fh:
            print(f"types_kept={sum(1 for _ in fh)}")


if __name__ == "__main__":
    main()
