"""embkit benchmark: seeded inputs, one closed-loop client, checked outputs.

    python3 bench/run.py --workload pairs-bigvocab --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload all

Run from the repository root. For each workload it generates the inputs
from the seed, times `import embkit.cli` in fresh processes, then starts
worker.py, which runs the workload's command cycle for the given seconds.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of the traced cycles and the tracing overhead. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import glob
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402

BLAS_THREADS = 1
MIN_CYCLES = 2
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150
NN_STEP = "nn_topic"

# Correctness floors, each well below what every seed reaches.
NN_TOPIC_P10_FLOOR = 0.2
SEGMENT_F1_FLOOR = 0.8
RCNN_DEV_ACC_FLOOR = 0.5  # four balanced topics: chance is 0.25

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    **{metric: unit for metric, (unit, _) in workloads.GROUPS.items()},
    "factor_seg_clf_s": "s", "nn_topic_p10": "share",
}

LOSS_RE = re.compile(r"(?:mean_loss|train_loss)=(\S+)")
EMBEDDING_TRAINING = ("skipgram", "skipgram_f32", "charword", "cbow", "order",
                      "nnlm", "cw")
TRAINING = EMBEDDING_TRAINING + ("segment_train", "rcnn")


def environment(seed, workload, gen_params, seconds, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "embkit", "*.py"))):
        with open(path, "rb") as fh:
            src_hash.update(fh.read())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git, "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS, "EMBKIT_NO_NUMBA": "1", "workers": 1,
        "generator": gen_params,
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["EMBKIT_NO_NUMBA"] = "1"  # pin the numpy path even if numba appears
    env["EMBKIT_LOG"] = "INFO"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def import_seconds(env):
    code = ("import time; t = time.perf_counter(); import embkit.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        out.append(float(proc.stdout))
    return out


class Gates:
    """Counts operations attempted and failed, keeping failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _number(pattern, text):
    m = re.search(pattern, text)
    return float(m.group(1)) if m else float("nan")


def judge(result, sizes, gates):
    """Apply the correctness gates to every cycle."""
    init = result["glove_initial"]
    gates.check(init["rc"] == 0, f"glove_initial exit {init['rc']}")
    glove_initial = _number(r"final_objective: (\S+)", init["stdout"])
    first_hash = result["cycles"][0]["skipgram_sha256"]
    for i, cyc in enumerate(result["cycles"]):
        cmds = cyc["commands"]
        for cmd_id, r in cmds.items():
            gates.check(r["rc"] == 0, f"cycle {i} {cmd_id}: exit {r['rc']}")
        for cmd_id in TRAINING:
            losses = [float(x) for line in cmds[cmd_id]["losses"]
                      for x in LOSS_RE.findall(line)]
            gates.check(losses and all(map(math.isfinite, losses)),
                        f"cycle {i} {cmd_id}: losses {losses}")
        final = _number(r"final_objective: (\S+)", cmds["glove"]["stdout"])
        gates.check(math.isfinite(final), f"cycle {i} glove: objective {final}")
        gates.check(final < glove_initial,
                    f"cycle {i} glove: final {final} >= initial {glove_initial}")
        answered = _number(r"answered: (\d+)", cmds["analogy"]["stdout"])
        gates.check(answered == sizes["analogy_questions"],
                    f"cycle {i} analogy: answered {answered}")
        f1 = _number(r"f1: (\S+)", cmds["segment_score"]["stdout"])
        gates.check(f1 >= SEGMENT_F1_FLOOR, f"cycle {i} segmenter F1 {f1}")
        acc = _number(r"best_dev_accuracy: (\S+)", cmds["rcnn"]["stdout"])
        gates.check(acc >= RCNN_DEV_ACC_FLOOR, f"cycle {i} rcnn dev acc {acc}")
        p10 = cyc["nn_topic_p10"]
        gates.check(isinstance(p10, float) and p10 >= NN_TOPIC_P10_FLOOR,
                    f"cycle {i} nn_topic_p10 {p10}")
        if i > 0:
            gates.check(first_hash is not None and cyc["skipgram_sha256"] == first_hash,
                        f"cycle {i}: float64 skipgram vectors differ from cycle 0")


def end_to_end(result, imports):
    """End-to-end metrics, and each command's median throughput for reading."""
    cycles = [c for c in result["cycles"] if not c["traced"]]
    med = statistics.median
    m = {}
    for metric, (_, group) in workloads.GROUPS.items():
        m[metric] = med(sum(c["units"][cmd] for cmd in group)
                        / sum(c["commands"][cmd]["wall"] for cmd in group)
                        for c in cycles)
    m["factor_seg_clf_s"] = med(sum(c["commands"][cmd]["wall"] for cmd in workloads.PIPELINE)
                                for c in cycles)
    # A failed neighbour check (already counted by judge) reads as 0.
    m["nn_topic_p10"] = med(p if isinstance(p, float) else 0.0
                            for p in (c["nn_topic_p10"] for c in cycles))
    m["setup_s"] = med(imports + [result["import_s"]]) + med(c["setup_s"] for c in cycles)
    m["peak_rss_mb"] = result["peak_rss_mb"]
    per_command = {metric: (med(c["units"][cmd] / c["commands"][cmd]["wall"]
                                for c in cycles), unit)
                   for cmd, (metric, unit) in workloads.THROUGHPUT.items()}
    return {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, per_command


def per_layer(result, command_ids):
    """Per-layer metrics: medians over the traced cycles, plus the tracing
    overhead against the untraced cycles of the same process. The first
    cycle warms the process up and is left out of the baseline when
    another untraced cycle exists."""
    med = statistics.median
    traced = [c for c in result["cycles"] if c["traced"]]
    plain = [c for c in result["cycles"] if not c["traced"]]
    plain = plain[1:] or plain
    m = {k: med(c["layers"][k] for c in traced) for k in traced[0]["layers"]}
    wall_t = {cmd: med(c["commands"][cmd]["wall"] for c in traced) for cmd in command_ids}
    wall_u = {cmd: med(c["commands"][cmd]["wall"] for c in plain) for cmd in command_ids}
    for cmd in command_ids:
        m[f"trace.{cmd}_overhead_s"] = wall_t[cmd] - wall_u[cmd]
    m["trace.overhead_frac"] = sum(wall_t.values()) / sum(wall_u.values()) - 1.0
    breakdown = {cmd: {layer: med(c["breakdown"][cmd].get(layer, 0.0) for c in traced)
                       for layer in LAYERS}
                 for cmd in command_ids}
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(m.items())}
    return metrics, breakdown, wall_u


def layer_unit(name):
    if name.endswith("_s") and not name.endswith("tok_s"):
        return "s"
    return {"embeddings.epochstats_tok_s": "tok/s", "io_formats.bytes_written": "B",
            "corpus.subsample_keep_ratio": "ratio", "embeddings.units_per_token": "ratio",
            "trace.overhead_frac": "ratio"}.get(name, "count")


def run_workload(name, seed, seconds, trace):
    params = workloads.generator_params(name)
    work = os.path.join(ROOT, ".bench_work", f"{name}-s{seed}-p{os.getpid()}")
    try:
        manifest = gen.generate(os.path.join(work, "in"), seed, params)
        files, sizes = manifest["files"], manifest["sizes"]
        out = workloads.output_paths(os.path.join(work, "out"))
        os.makedirs(os.path.join(work, "out"))
        commands = workloads.cycle(name, files, sizes, out, seed)
        plan = {
            "src": SRC, "commands": commands, "seconds": seconds,
            "trace": bool(trace), "min_cycles": MIN_CYCLES,
            "topics": files["topics"], "skipgram_out": out["skipgram"],
            "skipgram_model": out["skipgram_model"], "cooccur_out": out["cooccur"],
            "glove_epochs": workloads.GLOVE_EPOCHS,
            "glove_initial_argv": workloads.glove_argv(
                workloads.WORKLOADS[name], out, seed, 0),
            "embedding_tokens": sum(n for c, _, n in commands if c in EMBEDDING_TRAINING),
            "nn_step": NN_STEP,
        }
        plan_path = os.path.join(work, "plan.json")
        result_path = os.path.join(work, "result.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        env = child_env()
        imports = import_seconds(env)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               plan_path, result_path], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker failed with exit code {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only if no other run uses it

    gates = Gates()
    judge(result, sizes, gates)
    ids = [c[0] for c in commands]
    env_record = environment(seed, name, params, seconds, trace)
    env_record["cycles"] = len(result["cycles"])
    env_record["input_sizes"] = sizes
    if trace:
        metrics, breakdown, wall_u = per_layer(result, ids)
        table = format_breakdown(name, breakdown, wall_u)
    else:
        metrics, per_command = end_to_end(result, imports)
        table = [f"{name:20s} command {key:26s} {value:14.6g} {unit}"
                 for key, (value, unit) in per_command.items()]
    return env_record, gates, metrics, table


def format_breakdown(name, breakdown, wall_u):
    """Each command's traced wall split into layer self times."""
    lines = [f"{name}: traced self seconds per layer (sum = traced wall) | untraced wall",
             f"{'command':15s}" + "".join(f"{layer:>11s}" for layer in LAYERS)
             + f"{'sum':>9s}{'untraced':>10s}"]
    for cmd, row in breakdown.items():
        lines.append(f"{cmd:15s}" + "".join(f"{row[layer]:11.4f}" for layer in LAYERS)
                     + f"{sum(row.values()):9.3f}{wall_u[cmd]:10.3f}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=56)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "embkit", "cli.py")):
        sys.exit(f"no embkit sources under {SRC}")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = Gates()
    all_metrics = {}
    for name in names:
        env_record, gates, metrics, table = run_workload(
            name, args.seed, args.seconds, args.trace)
        print(json.dumps({"environment": env_record}, ensure_ascii=False))
        for line in table:
            print(line)
        for key, m in metrics.items():
            print(f"{name:20s} {key:34s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:20s} failed {len(gates.failures)} of {gates.attempted} operations")
        for msg in gates.failures:
            print(f"{name:20s} FAILED {msg}")
        total.attempted += gates.attempted
        total.failures += gates.failures
        all_metrics[name] = metrics
    result = {"correct": not total.failures, "attempted": total.attempted,
              "failed": len(total.failures),
              "metrics": all_metrics[names[0]] if len(names) == 1 else all_metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
