"""The measured process: one closed-loop client running embkit commands.

Usage: python3 worker.py PLAN.json RESULT.json

Runs the plan's command cycle back to back through `embkit.cli.main`, one
command at a time, until the plan's seconds are used (at least
`min_cycles` cycles). After each cycle it checks topical nearest
neighbours of the float64 skipgram vectors. With tracing on, cycles
alternate untraced and traced so the tracing overhead is measured in the
same process. It records walls, exit codes, printed results and logged
losses; judging them is left to run.py.
"""

import contextlib
import hashlib
import io
import json
import logging
import os
import resource
import sys
import time

perf = time.perf_counter


class LogCapture(logging.Handler):
    """Keeps the training log lines that carry a loss."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.lines = []

    def emit(self, record):
        msg = record.getMessage()
        if "loss=" in msg:
            self.lines.append(msg)


class SetupTimer:
    """Times corpus read and vocabulary build on every run, traced or not:
    two wrappers called a few times per command."""

    def __init__(self, corpus_mod):
        self.seconds = 0.0
        stream = corpus_mod.CorpusStream
        read = stream.__dict__["from_text_file"].__func__
        stream.from_text_file = classmethod(self._timed(read))
        for name in ("build_vocabulary", "load_vocabulary"):
            timed = self._timed(getattr(corpus_mod, name))
            setattr(corpus_mod, name, timed)

    def _timed(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf() - t0
        return wrapper


def file_sha256(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def count_lines(path):
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def nn_topic_p10(plan, io_formats, evaluate):
    """Share of the 10 nearest neighbours of each query word that belong
    to the query's topic, on the float64 skipgram vectors."""
    with open(plan["topics"], encoding="utf-8") as fh:
        topics = json.load(fh)
    table = io_formats.load_embeddings(plan["skipgram_out"])
    topic_of = topics["topic_of"]
    hits = total = 0
    for word in topics["queries"]:
        for other, _ in evaluate.nearest_neighbors(table, word, 10):
            hits += topic_of.get(other) == topic_of[word]
            total += 1
    return hits / total


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = perf()
    import embkit.cli as cli
    import_s = perf() - t0
    from embkit import corpus, evaluate, io_formats
    if not os.path.abspath(cli.__file__).startswith(plan["src"] + os.sep):
        raise SystemExit(f"embkit imported from {cli.__file__}, not {plan['src']}")
    import spans
    import numpy as np

    # glibc serves blocks above its mmap threshold with fresh pages and
    # raises the threshold (up to 32 MiB) each time such a block is freed.
    # A long training run reaches that ceiling in its first second; a short
    # command would spend half its time in page faults until then. Free one
    # large block so every cycle measures the same steady state.
    np.ones(31 << 17)  # 31 MiB of float64, freed at once

    capture = LogCapture()
    root = logging.getLogger()
    root.handlers[:] = [capture]  # cli's basicConfig then adds no stderr handler
    root.setLevel(logging.INFO)
    setup = SetupTimer(corpus)
    tracer = spans.Tracer() if plan["trace"] else None
    commands = plan["commands"]

    def run_command(cmd_id, argv, traced=False):
        capture.lines.clear()
        setup_before = setup.seconds
        out = io.StringIO()
        if tracer is not None:
            tracer.cmd = cmd_id
        with contextlib.redirect_stdout(out):
            t = perf()
            root_span = tracer.begin(spans.ROOT) if traced else None
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is one failed operation
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                if traced:
                    tracer.end(root_span)
            wall = perf() - t
        return {"rc": rc, "wall": wall, "stdout": out.getvalue(),
                "losses": list(capture.lines),
                "setup_s": setup.seconds - setup_before}

    cycles, glove_initial = [], None
    start = perf()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        c0 = perf()
        results, units = {}, {}
        for cmd_id, argv, n in commands:
            if cmd_id == "glove":
                n = count_lines(plan["cooccur_out"]) * plan["glove_epochs"]
            results[cmd_id] = run_command(cmd_id, argv, traced)
            units[cmd_id] = n
        cycle_s = perf() - c0
        if tracer is not None:
            tracer.cmd = plan["nn_step"]
        try:
            p10 = nn_topic_p10(plan, io_formats, evaluate)
        except Exception as exc:  # missing or unreadable vectors fail the gate
            p10 = f"{type(exc).__name__}: {exc}"
        layers = breakdown = None
        if traced:
            tracer.uninstall()
            layers, breakdown = spans.layer_metrics(
                tracer.self_times(), tracer.counts, [c[0] for c in commands],
                plan["embedding_tokens"], plan["nn_step"])
        if glove_initial is None:
            # Zero epochs: the printed objective is the one at initialisation.
            glove_initial = run_command("glove_initial", plan["glove_initial_argv"])
        cycles.append({
            "traced": traced, "seconds": cycle_s, "units": units,
            "commands": results, "nn_topic_p10": p10, "layers": layers,
            "breakdown": breakdown,
            "skipgram_sha256": file_sha256(plan["skipgram_model"]),
            "setup_s": sum(r["setup_s"] for r in results.values()),
        })
        # Start another cycle only if one as long as the last still fits.
        last = perf() - c0
        if len(cycles) >= plan["min_cycles"] and perf() - start + last > plan["seconds"]:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "cycles": cycles,
                   "glove_initial": glove_initial,
                   "peak_rss_mb": peak_kb / 1024.0}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
