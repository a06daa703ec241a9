"""Document classification with a recurrent convolutional network and a
fixed-window CNN baseline.

The RCNN represents each word as [left context; word vector; right context]
where the contexts come from one forward and one backward tanh scan (linear
in document length), then max-pools position-wise hidden vectors into a
document vector. The window CNN replaces the scans with a concatenation of
win word vectors, boundary slots taken by a trainable PADDING row.

Gradients flow through the pooling layer only at argmax positions (ties to
the smallest index) and through the scans by backpropagation through time,
over the full sequence unless truncated.
"""

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .corpus import window_matrix
from .errors import DataError
from .io_formats import open_text
from .optim import apply_grads, check_finite, log_softmax
from .seeding import substream

UNK_TOKEN = "\x02UNK"
PAD_TOKEN = "\x02PAD"


class LabeledDocument(NamedTuple):
    tokens: Tuple[str, ...]
    class_id: int


def load_labeled_documents(path) -> List[LabeledDocument]:
    """Lines of "label<TAB>space-separated-tokens"; labels are integers."""
    docs = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2 or not parts[1].split():
                raise DataError(f"{path}:{lineno}: expected 'label<TAB>tokens'")
            try:
                label = int(parts[0])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
            docs.append(LabeledDocument(tuple(parts[1].split()), label))
    if not docs:
        raise DataError(f"{path}: no documents")
    return docs


@dataclass
class ClassifierConfig:
    lr: float = 0.01
    epochs: int = 20
    seed: int = 0
    truncate: Optional[int] = None  # BPTT chunk length; None = full sequence


def _check_sizes(**sizes):
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


def _uniform(rng, shape, fan_in):
    return rng.uniform(-1.0, 1.0, size=shape) / math.sqrt(fan_in)


class _PooledClassifier:
    """Shared max-pooling head: y2 = tanh(W2 x + b2), y3 = max, y4 = W4 y3 + b4.

    A model supplies `_inputs(ids)`, the dict of its per-position inputs X
    and whatever its backward pass needs; `_forward` adds the head.
    """

    def _init_head(self, rng, in_dim, hidden, n_classes):
        self.W2 = _uniform(rng, (hidden, in_dim), in_dim)
        self.b2 = np.zeros(hidden)
        self.W4 = _uniform(rng, (n_classes, hidden), hidden)
        self.b4 = np.zeros(n_classes)
        self._lr_scale = {"W2": 1.0 / in_dim, "W4": 1.0 / hidden,
                          "b2": 1.0, "b4": 1.0}

    def _forward(self, ids: np.ndarray) -> dict:
        cache = self._inputs(ids)
        Y2 = np.tanh(cache["X"] @ self.W2.T + self.b2)
        argmax = Y2.argmax(axis=0)  # first index wins ties
        y3 = Y2[argmax, np.arange(Y2.shape[1])]
        y4 = self.W4 @ y3 + self.b4
        cache.update(ids=ids, Y2=Y2, argmax=argmax, y3=y3, y4=y4,
                     lsm=log_softmax(y4))
        return cache

    def _head_backward(self, cache: dict, class_id: int):
        """Cross-entropy loss, its gradients for the head and d loss / d X."""
        Y2, lsm = cache["Y2"], cache["lsm"]
        dy4 = np.exp(lsm)
        dy4[class_id] -= 1.0
        dY2 = np.zeros_like(Y2)
        dY2[cache["argmax"], np.arange(Y2.shape[1])] = self.W4.T @ dy4
        dA = dY2 * (1.0 - Y2 * Y2)
        grads = {"W2": dA.T @ cache["X"], "b2": dA.sum(axis=0),
                 "W4": np.outer(dy4, cache["y3"]), "b4": dy4}
        return -float(lsm[class_id]), grads, dA @ self.W2

    def logits(self, tokens: Sequence[str]) -> np.ndarray:
        ids = self.encode(tokens)
        if len(ids) == 0:
            raise DataError("empty document")
        return self._forward(ids)["y4"]

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        unk = self.token_to_id[UNK_TOKEN]
        return np.array([self.token_to_id.get(t, unk) for t in tokens], dtype=np.int64)

    def predict(self, tokens: Sequence[str]) -> int:
        return int(np.argmax(self.logits(tokens)))

    def accuracy(self, docs: Sequence[LabeledDocument]) -> float:
        hits = sum(self.predict(d.tokens) == d.class_id for d in docs)
        return hits / len(docs)

    def log_probs(self, tokens: Sequence[str]) -> np.ndarray:
        return log_softmax(self.logits(tokens))


class RcnnModel(_PooledClassifier):
    """Bidirectional recurrent scans feeding a max-pooled classifier."""

    def __init__(self, tokens: Sequence[str], n_classes: int, dim: int = 50,
                 context_dim: int = 50, hidden: int = 100,
                 rng: Optional[np.random.Generator] = None,
                 vectors: Optional[np.ndarray] = None):
        _check_sizes(dim=dim, context_dim=context_dim, hidden=hidden)
        rng = rng if rng is not None else np.random.default_rng(0)
        vocab = list(tokens)
        if UNK_TOKEN not in vocab:
            vocab.append(UNK_TOKEN)
        self.tokens = vocab
        self.token_to_id = {t: i for i, t in enumerate(vocab)}
        self.dim = dim
        self.context_dim = context_dim
        self.hidden = hidden
        self.n_classes = n_classes
        c, e = context_dim, dim
        self.e = rng.uniform(-1.0, 1.0, size=(len(vocab), e))
        if vectors is not None:
            if vectors.shape[1] != e:
                raise DataError("preloaded vectors have the wrong dimension")
            self.e[:vectors.shape[0]] = vectors
        self.W_l = _uniform(rng, (c, c), c)
        self.W_r = _uniform(rng, (c, c), c)
        self.W_sl = _uniform(rng, (c, e), e)
        self.W_sr = _uniform(rng, (c, e), e)
        self.cl_init = rng.uniform(-1.0, 1.0, size=c)
        self.cr_init = rng.uniform(-1.0, 1.0, size=c)
        self._init_head(rng, e + 2 * c, hidden, n_classes)
        self._lr_scale.update({
            "e": 1.0, "cl_init": 1.0, "cr_init": 1.0,
            "W_l": 1.0 / c, "W_r": 1.0 / c,
            "W_sl": 1.0 / e, "W_sr": 1.0 / e,
        })

    def params(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in
                ("e", "W_l", "W_r", "W_sl", "W_sr", "cl_init", "cr_init",
                 "W2", "b2", "W4", "b4")}

    def context_scans(self, ids: np.ndarray, E: Optional[np.ndarray] = None):
        """Left and right context sequences; one pass each direction.

        The input projections W_sl e and W_sr e are one matmul each; the
        scans keep only the recurrent matvec. `E` is `e[ids]` when the
        caller already holds it."""
        E = self.e[ids] if E is None else E
        n = len(ids)
        c = self.context_dim
        CL = np.empty((n, c))
        CR = np.empty((n, c))
        PL = E[:-1] @ self.W_sl.T  # PL[i - 1] feeds CL[i]
        PR = E[1:] @ self.W_sr.T   # PR[i] feeds CR[i]
        W_l, W_r = self.W_l, self.W_r
        CL[0] = self.cl_init
        for i in range(1, n):
            CL[i] = np.tanh(W_l @ CL[i - 1] + PL[i - 1])
        CR[n - 1] = self.cr_init
        for i in range(n - 2, -1, -1):
            CR[i] = np.tanh(W_r @ CR[i + 1] + PR[i])
        return CL, CR

    def _inputs(self, ids):
        E = self.e[ids]
        CL, CR = self.context_scans(ids, E)
        return {"CL": CL, "CR": CR, "E": E,
                "X": np.concatenate([CL, E, CR], axis=1)}

    def loss_grads(self, tokens_or_ids, class_id: int,
                   truncate: Optional[int] = None):
        """Cross-entropy loss of one document and gradients of that loss;
        the `e` gradient is an `(ids, rows)` pair.

        The backward scans keep only the recurrent chain; each step's
        pre-activation gradient is stored, and the weight gradients and
        the input contributions are one matmul each afterwards."""
        ids = tokens_or_ids if isinstance(tokens_or_ids, np.ndarray) \
            else self.encode(tokens_or_ids)
        cache = self._forward(ids)
        loss, grads, dX = self._head_backward(cache, class_id)
        c, e = self.context_dim, self.dim
        dCL = dX[:, :c].copy()
        dE = dX[:, c:c + e].copy()
        dCR = dX[:, c + e:].copy()
        n = len(ids)
        CL, CR, E = cache["CL"], cache["CR"], cache["E"]
        GL = 1.0 - CL * CL
        GR = 1.0 - CR * CR
        # DL[i] is d loss / d pre-activation of CL[i + 1]; DR[i] of CR[i]
        DL = np.empty((n - 1, c))
        DR = np.empty((n - 1, c))
        W_l, W_r = self.W_l, self.W_r
        for i in range(n - 1, 0, -1):
            dpre = DL[i - 1] = dCL[i] * GL[i]
            if truncate is None or i % truncate != 0:
                dCL[i - 1] += dpre @ W_l
        for i in range(0, n - 1):
            dpre = DR[i] = dCR[i] * GR[i]
            if truncate is None or (n - 1 - i) % truncate != 0:
                dCR[i + 1] += dpre @ W_r
        grads["W_l"] = DL.T @ CL[:-1]
        grads["W_sl"] = DL.T @ E[:-1]
        grads["W_r"] = DR.T @ CR[1:]
        grads["W_sr"] = DR.T @ E[1:]
        dE[:-1] += DL @ self.W_sl
        dE[1:] += DR @ self.W_sr
        grads["cl_init"] = dCL[0]
        grads["cr_init"] = dCR[n - 1]
        grads["e"] = (ids, dE)
        return loss, grads


class WindowCnnModel(_PooledClassifier):
    """Fixed-window convolution baseline; same pooled head as the RCNN."""

    def __init__(self, tokens: Sequence[str], n_classes: int, dim: int = 50,
                 win: int = 3, hidden: int = 100,
                 rng: Optional[np.random.Generator] = None,
                 vectors: Optional[np.ndarray] = None):
        if win % 2 == 0 or win < 1:
            raise ValueError("win must be odd")
        _check_sizes(dim=dim, hidden=hidden)
        rng = rng if rng is not None else np.random.default_rng(0)
        vocab = list(tokens)
        for special in (UNK_TOKEN, PAD_TOKEN):
            if special not in vocab:
                vocab.append(special)
        self.tokens = vocab
        self.token_to_id = {t: i for i, t in enumerate(vocab)}
        self.dim = dim
        self.win = win
        self.hidden = hidden
        self.n_classes = n_classes
        self.e = rng.uniform(-1.0, 1.0, size=(len(vocab), dim))
        if vectors is not None:
            if vectors.shape[1] != dim:
                raise DataError("preloaded vectors have the wrong dimension")
            self.e[:vectors.shape[0]] = vectors
        self._init_head(rng, win * dim, hidden, n_classes)
        self._lr_scale.update({"e": 1.0})

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD_TOKEN]

    def params(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in ("e", "W2", "b2", "W4", "b4")}

    def window_ids(self, ids: np.ndarray) -> np.ndarray:
        """(n, win) id matrix with PADDING beyond the document edges."""
        return window_matrix(ids, self.win, self.pad_id)

    def window_representation(self, ids: np.ndarray, i: int) -> np.ndarray:
        return self.e[self.window_ids(ids)[i]].reshape(-1)

    def _inputs(self, ids):
        windows = self.window_ids(ids)
        return {"windows": windows, "X": self.e[windows].reshape(len(ids), -1)}

    def loss_grads(self, tokens_or_ids, class_id: int,
                   truncate: Optional[int] = None):
        ids = tokens_or_ids if isinstance(tokens_or_ids, np.ndarray) \
            else self.encode(tokens_or_ids)
        cache = self._forward(ids)
        loss, grads, dX = self._head_backward(cache, class_id)
        grads["e"] = (cache["windows"].ravel(), dX.reshape(-1, self.dim))
        return loss, grads


def train_classifier(model, train_docs: Sequence[LabeledDocument],
                     dev_docs: Sequence[LabeledDocument],
                     cfg: ClassifierConfig, log_fn=None):
    """SGD over randomly ordered documents; keeps the best-on-dev checkpoint.

    Returns (best parameter snapshot, history). The snapshot maps parameter
    names to copies; apply with `load_params`. With zero epochs it holds
    the initial parameters.
    """
    if cfg.epochs < 0:
        raise ValueError("epochs must be >= 0")
    classes = {d.class_id for d in train_docs}
    if len(classes) < 2:
        raise DataError("training set must contain at least two classes")
    encoded = [(model.encode(d.tokens), d.class_id) for d in train_docs]
    params = model.params()
    # descent, each matrix's rate scaled by 1/fan-in
    rates = {name: -cfg.lr * scale for name, scale in model._lr_scale.items()}
    history = []
    best = None
    best_acc = -1.0
    for epoch in range(cfg.epochs):
        rng = substream(cfg.seed, f"classifier-epoch-{epoch}")
        order = rng.permutation(len(encoded))
        total = 0.0
        t0 = time.perf_counter()
        for n in order:
            ids, class_id = encoded[n]
            loss, grads = model.loss_grads(ids, class_id, truncate=cfg.truncate)
            total += check_finite(loss, "training loss")
            apply_grads(params, grads, rates)
        dev_acc = model.accuracy(dev_docs) if dev_docs else float("nan")
        entry = {"epoch": epoch, "train_loss": total / len(encoded),
                 "dev_accuracy": dev_acc,
                 "seconds": time.perf_counter() - t0}
        history.append(entry)
        if log_fn is not None:
            log_fn(f"epoch={epoch} train_loss={entry['train_loss']:.4f} "
                   f"dev_acc={dev_acc:.4f}")
        if dev_docs and dev_acc >= best_acc:
            best_acc = dev_acc
            best = {k: v.copy() for k, v in model.params().items()}
    if best is None:
        best = {k: v.copy() for k, v in model.params().items()}
    return best, history


def load_params(model, snapshot: Dict[str, np.ndarray]) -> None:
    for name, value in snapshot.items():
        getattr(model, name)[...] = value


def extract_key_phrases(model: RcnnModel, docs: Sequence[Sequence[str]],
                        phrase_len: int = 3,
                        labels: Optional[Sequence[int]] = None):
    """Most frequently max-pooled phrases.

    For every document and pooled dimension, takes the argmax position's
    center word with (phrase_len-1)/2 neighbors each side and counts how
    often each phrase is selected. Returns a ranked [(phrase, count)] list,
    or {class: ranked list} when labels are supplied.
    """
    if phrase_len % 2 == 0 or phrase_len < 1:
        raise ValueError("phrase_len must be odd")
    half = (phrase_len - 1) // 2
    counters: Dict[Optional[int], Counter] = {}
    for doc_idx, tokens in enumerate(docs):
        tokens = list(tokens)
        ids = model.encode(tokens)
        cache = model._forward(ids)
        label = labels[doc_idx] if labels is not None else None
        counter = counters.setdefault(label, Counter())
        for pos in cache["argmax"]:
            lo = max(0, int(pos) - half)
            hi = min(len(tokens), int(pos) + half + 1)
            counter[tuple(tokens[lo:hi])] += 1
    def ranked(counter):
        return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    if labels is None:
        return ranked(counters.get(None, Counter()))
    return {label: ranked(c) for label, c in counters.items()}
