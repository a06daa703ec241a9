"""Span tracing of embkit from outside the package.

`Tracer.install` replaces selected public functions and methods with
wrappers that record one span per call: name, start, end, parent span and
command id. Spans stay in memory; `layer_metrics` turns one cycle's spans
into per-layer self times and counts. A name bound by `from ... import` is
replaced in every embkit module that holds it, so callers see the wrapper.
Nothing here edits the package's files.
"""

import inspect
import os
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute path, span name). Per-element helpers called once per
# cell or pair (CooccurrenceMatrix.add, FactorModel.score, glove_weight,
# SegmenterNet.window_ids) are left unwrapped: their cost stays in the
# caller's self time instead of being inflated by the wrapper.
TARGETS = (
    ("corpus", "CorpusStream.from_text_file", "corpus.read"),
    ("corpus", "build_vocabulary", "corpus.vocab"),
    ("corpus", "load_vocabulary", "corpus.vocab"),
    ("corpus", "save_vocabulary", "corpus.save_vocab"),
    ("corpus", "Vocabulary.encode", "corpus.encode"),
    ("corpus", "subsample_ids", "corpus.subsample"),
    ("corpus", "document_window_arrays", "corpus.window"),
    ("corpus", "iter_windows", "corpus.iter_windows"),
    ("optim", "NoiseSampler.sample_matrix", "optim.sample_matrix"),
    ("optim", "sigmoid", "optim.sigmoid"),
    ("optim", "log_sigmoid", "optim.sigmoid"),
    ("optim", "softmax", "optim.softmax"),
    ("optim", "log_softmax", "optim.softmax"),
    ("embeddings", "EmbeddingModel.create", "embeddings.init"),
    ("embeddings", "train_epochs", "embeddings.train"),
    ("embeddings", "build_charword_space", "embeddings.charword_space"),
    ("matrixfact", "count_cooccurrences", "matrixfact.count"),
    ("matrixfact", "CooccurrenceMatrix.save", "matrixfact.save"),
    ("matrixfact", "CooccurrenceMatrix.load", "matrixfact.load"),
    ("matrixfact", "CooccurrenceMatrix.nonzero_arrays", "matrixfact.nonzero_arrays"),
    ("matrixfact", "train_glove", "matrixfact.glove"),
    ("segment", "load_segmented_corpus", "segment.load"),
    ("segment", "train_segmenter", "segment.train"),
    ("segment", "line_to_chars", "segment.line_to_chars"),
    ("segment", "decode_sentence", "segment.decode"),
    ("segment", "sentence_log_probs", "segment.lattice"),
    ("segment", "viterbi_decode", "segment.viterbi"),
    ("segment", "prf_corpus", "segment.prf"),
    ("textclass", "load_labeled_documents", "textclass.load"),
    ("textclass", "train_classifier", "textclass.train"),
    ("textclass", "RcnnModel.loss_grads", "textclass.loss_grads"),
    ("textclass", "_PooledClassifier.accuracy", "textclass.dev_eval"),
    ("evaluate", "load_analogies", "evaluate.load_analogies"),
    ("evaluate", "eval_analogy", "evaluate.analogy"),
    ("evaluate", "nearest_neighbors", "evaluate.nn"),
    # EmbeddingTable lives in io_formats; its normalisation serves cosine
    # evaluation, so its time is booked to evaluate.
    ("io_formats", "EmbeddingTable.unit_vectors", "evaluate.unit_vectors"),
    ("io_formats", "save_embeddings", "io_formats.save"),
    ("io_formats", "save_embeddings_binary", "io_formats.save"),
    ("io_formats", "save_container", "io_formats.save"),
    ("io_formats", "load_embeddings", "io_formats.load"),
    ("io_formats", "load_container", "io_formats.load"),
)

LAYERS = ("corpus", "optim", "embeddings", "matrixfact", "segment",
          "textclass", "evaluate", "io_formats", "cli")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_hooks(tracer):
    """Per-span-name callbacks (args, kwargs, result, original function)
    that add work counts at the boundary where the work happens."""
    c = tracer.counts

    def subsample(args, kwargs, result, fn):
        c["corpus.subsample_in"] += len(args[0])
        c["corpus.subsample_out"] += len(result)

    def sample_matrix(args, kwargs, result, fn):
        c["optim.sample_calls"] += 1
        c["optim.negatives_drawn"] += result.size

    def train(args, kwargs, result, fn):
        c["embeddings.units"] += sum(st.n_units for st in result)
        if tracer.cmd == "skipgram":
            c["embeddings.epochstats_tok_s"] = result[0].tokens_per_sec

    def glove(args, kwargs, result, fn):
        a = _bound(fn, args, kwargs)
        c["matrixfact.cells"] += len(a["matrix"]) * a["epochs"]

    def segment_train(args, kwargs, result, fn):
        a = _bound(fn, args, kwargs)
        c["segment.samples"] += sum(len(s.chars) for s in a["corpus"]) * a["epochs"]

    def loss_grads(args, kwargs, result, fn):
        c["textclass.docs"] += 1

    def saved(args, kwargs, result, fn):
        # save_embeddings_binary writes through save_container: count the
        # file once, at the outermost save.
        parent = tracer.spans[tracer.stack[-1]][0] if tracer.stack else None
        if parent != "io_formats.save":
            a = _bound(fn, args, kwargs)
            c["io_formats.bytes_written"] += os.path.getsize(a["path"])

    return {"corpus.subsample": subsample, "optim.sample_matrix": sample_matrix,
            "embeddings.train": train, "matrixfact.glove": glove,
            "segment.train": segment_train, "textclass.loss_grads": loss_grads,
            "io_formats.save": saved}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command id]
        self.stack = []
        self.counts = defaultdict(float)
        self.cmd = None
        self._undo = []

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                           self.cmd])
        self.stack.append(idx)
        self.spans[idx][1] = perf()
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf()
        self.stack.pop()

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # --- installing wrappers -------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.end(idx)
                        return
                    tracer.end(idx)
                    tracer.counts[name + "_items"] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
                if hook is not None:
                    hook(args, kwargs, result, fn)
                return result
        return wrapper

    def install(self):
        hooks = _count_hooks(self)
        modules = [m for n, m in sys.modules.items()
                   if n == "embkit" or n.startswith("embkit.")]
        for mod_name, path, name in TARGETS:
            owner = sys.modules["embkit." + mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, hooks.get(name)))
                self._set(owner, attr, raw, new)
            elif cls_path:
                self._set(owner, attr, raw, self._wrap(raw, name, hooks.get(name)))
            else:
                new = self._wrap(raw, name, hooks.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, raw, new)

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo = []

    # --- analysis --------------------------------------------------------------

    def self_times(self):
        """{(command id, span name): [self seconds, inclusive seconds, calls]}.

        Self time is a span's duration minus the part its child spans cover;
        spans nest on one thread, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, start, end, parent, cmd), covered in zip(self.spans, child):
            row = out[(cmd, name)]
            row[0] += end - start - covered
            row[1] += end - start
            row[2] += 1
        return out


# Per-layer metrics and the spans they sum. A `_s` metric is the self time
# of its spans, so the metrics of one command add up to its wall time;
# `embeddings.train_s` and `segment.train_s` are inclusive training walls.
SELF_METRICS = {
    "corpus.read_s": "corpus.read", "corpus.vocab_s": "corpus.vocab",
    "corpus.encode_s": "corpus.encode", "corpus.subsample_s": "corpus.subsample",
    "corpus.window_s": "corpus.window", "corpus.iter_windows_s": "corpus.iter_windows",
    "optim.sample_matrix_s": "optim.sample_matrix", "optim.sigmoid_s": "optim.sigmoid",
    "optim.softmax_s": "optim.softmax",
    "embeddings.self_s": "embeddings.train", "embeddings.init_s": "embeddings.init",
    "embeddings.charword_space_s": "embeddings.charword_space",
    "matrixfact.count_s": "matrixfact.count", "matrixfact.save_s": "matrixfact.save",
    "matrixfact.load_s": "matrixfact.load",
    "matrixfact.nonzero_arrays_s": "matrixfact.nonzero_arrays",
    "matrixfact.glove_s": "matrixfact.glove",
    "segment.lattice_s": "segment.lattice", "segment.viterbi_s": "segment.viterbi",
    "textclass.loss_grads_s": "textclass.loss_grads",
    "textclass.dev_eval_s": "textclass.dev_eval",
    "evaluate.analogy_s": "evaluate.analogy",
    "evaluate.unit_vectors_s": "evaluate.unit_vectors",
    "io_formats.save_s": "io_formats.save", "io_formats.load_s": "io_formats.load",
}
INCLUSIVE_METRICS = {"embeddings.train_s": "embeddings.train",
                     "segment.train_s": "segment.train"}
COUNT_METRICS = {"corpus.windows": "corpus.iter_windows_items",
                 "optim.sample_calls": "optim.sample_calls",
                 "optim.negatives_drawn": "optim.negatives_drawn",
                 "embeddings.units": "embeddings.units",
                 "embeddings.epochstats_tok_s": "embeddings.epochstats_tok_s",
                 "matrixfact.cells": "matrixfact.cells",
                 "segment.samples": "segment.samples",
                 "textclass.docs": "textclass.docs",
                 "io_formats.bytes_written": "io_formats.bytes_written"}
ROOT = "cli"


def layer_metrics(times, counts, commands, embedding_tokens, nn_step):
    """One traced cycle's per-layer metrics.

    `times` is `Tracer.self_times()`, `commands` the cycle's command ids,
    `embedding_tokens` the input tokens x epochs of the embedding-training
    commands and `nn_step` the command id of the neighbour check, whose
    spans only feed `evaluate.nn_s`. Also returns each command's self time
    per layer, which sums to the command's wall time."""
    by_name = defaultdict(lambda: [0.0, 0.0, 0])
    layer_self = defaultdict(float)
    breakdown = {cmd: defaultdict(float) for cmd in commands}
    walls = {}
    for (cmd, name), (self_s, incl_s, calls) in times.items():
        if cmd not in commands:
            continue
        row = by_name[name]
        row[0] += self_s
        row[1] += incl_s
        row[2] += calls
        layer_self[name.split(".")[0]] += self_s
        breakdown[cmd][name.split(".")[0]] += self_s
        if name == ROOT:
            walls[cmd] = incl_s
    m = {k: by_name[v][0] for k, v in SELF_METRICS.items()}
    m.update({k: by_name[v][1] for k, v in INCLUSIVE_METRICS.items()})
    m.update({k: float(counts.get(v, 0.0)) for k, v in COUNT_METRICS.items()})
    m["corpus.subsample_keep_ratio"] = (counts["corpus.subsample_out"]
                                        / max(counts["corpus.subsample_in"], 1))
    m["embeddings.units_per_token"] = m["embeddings.units"] / max(embedding_tokens, 1)
    m["evaluate.nn_s"] = sum(t[0] for (cmd, name), t in times.items()
                             if cmd == nn_step and name == "evaluate.nn")
    for layer in LAYERS:
        if layer != "embeddings":
            m[layer + ".self_s"] = layer_self[layer]
    for cmd in commands:
        m[f"cli.{cmd}_s"] = walls.get(cmd, 0.0)
    return m, breakdown
