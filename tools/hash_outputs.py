"""Print the SHA-256 of every output file and stdout of one bench cycle.

Generates a workload's inputs with `bench/gen.py` into a temporary
directory, runs one cycle of `bench/workloads.py`'s commands through
`embkit.cli.main` with embkit imported from `--src`, and prints one
`<sha256>  <name>` line per command's stdout and per output file. After
the cycle it runs the bench's zero-epoch GloVe command and trains the
variants the cycle does not cover: full softmax, `--char-context`,
`--beta 1`, `lbl`, two SGD epochs and float32 charword and cbow, on the
workload's small corpus; the `--char-context` and `lbl` runs also write
their model containers. Two sources produce the same bytes when their
listings `diff` clean:

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
}
# extras that also write their model container, extra_<id>_model.bin: one
# with H/b1/b2 and one with character rows
MODEL_OUT = ("char_context", "lbl")


def extra_commands(name, files, out, out_dir, seed):
    """The zero-epoch GloVe run, then the EXTRAS variants."""
    w = workloads.WORKLOADS[name]
    dim = str(w["dim"])
    # its own output, so the cycle's glove.bin is hashed as the cycle left it
    glove_out = {**out, "glove": os.path.join(out_dir, "glove_initial.bin")}
    cmds = [("glove_initial", workloads.glove_argv(w, glove_out, seed, 0))]
    for cmd_id, head in EXTRAS.items():
        # a later flag overrides the shared one, as `--epochs 2` does
        argv = [head[0], "--corpus", files["corpus_small"], "--dim", dim,
                "--epochs", "1", "--seed", str(seed), "--binary", *head[1:],
                "--out", os.path.join(out_dir, f"extra_{cmd_id}.bin")]
        if cmd_id in MODEL_OUT:
            argv += ["--model-out",
                     os.path.join(out_dir, f"extra_{cmd_id}_model.bin")]
        cmds.append((f"extra_{cmd_id}", argv))
    return cmds


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
        commands += extra_commands(args.workload, manifest["files"], out,
                                   out_dir, args.seed)
        for cmd_id, cmd_argv in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(cmd_argv)
            text = buf.getvalue().replace(work, "<work>")
            print(f"{sha256(text.encode())}  stdout:{cmd_id} exit={rc}")
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                print(f"{sha256(fh.read())}  {name}")


if __name__ == "__main__":
    main()
