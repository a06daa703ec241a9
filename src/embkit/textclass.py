"""Document classification with a recurrent convolutional network and a
fixed-window CNN baseline.

The RCNN represents each word as [left context; word vector; right context]
where the contexts come from a left-to-right and a right-to-left tanh scan
(linear in document length, run as one joint scan), then max-pools
position-wise hidden vectors into a document vector. The window CNN
replaces the scans with a concatenation of win word vectors, boundary slots
taken by a trainable PADDING row.

Gradients flow through the pooling layer only at argmax positions (ties to
the smallest index) and through the scans by backpropagation through time,
over the full sequence unless truncated.
"""

import math
from collections import Counter
from copy import deepcopy
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .corpus import UNK_TOKEN, padded_blocks, window_matrix
from .errors import DataError, check_sizes, check_window
from .io_formats import line_error, numbered_lines, strip_newline
from .optim import check_finite, run_epochs, softmax_cross_entropy
from .seeding import substream

PAD_TOKEN = "\x02PAD"
EVAL_BLOCK = 1 << 13  # padded positions per batched classifier forward


class LabeledDocument(NamedTuple):
    tokens: Tuple[str, ...]
    class_id: int


def load_labeled_documents(path) -> List[LabeledDocument]:
    """Lines of "label<TAB>space-separated-tokens"; labels are integers
    >= 0."""
    docs = []
    for lineno, line in numbered_lines(path, strip_newline):
        parts = line.split("\t", 1)
        if len(parts) != 2 or not parts[1].split():
            raise line_error(path, lineno, "expected 'label<TAB>tokens'")
        try:
            label = int(parts[0])
        except ValueError as exc:
            raise line_error(path, lineno, f"bad label {parts[0]!r}") from exc
        if label < 0:
            raise line_error(path, lineno, f"label {label} is negative")
        docs.append(LabeledDocument(tuple(parts[1].split()), label))
    if not docs:
        raise DataError(f"{path}: no documents")
    return docs


def _uniform(rng, shape, fan_in):
    return rng.uniform(-1.0, 1.0, size=shape) / math.sqrt(fan_in)


class _PooledClassifier:
    """Shared max-pooling head: y2 = tanh(W2 x + b2), y3 = max, y4 = W4 y3 + b4.

    `_forward` runs a batch of documents, left-aligned in a time-major
    padded layout. A model supplies `_inputs(docs, lengths)`, the dict of
    its (T, B, in) inputs X and whatever its backward pass needs, and
    `_input_grads(ids, cache, dX, truncate)`, the gradients of its own
    parameters from d loss / d X. Training runs a batch of one document;
    evaluation runs blocks of at most EVAL_BLOCK padded positions. `meta`
    writes a model's name `model` and its size argument named by `shape`.
    """

    def __init__(self, tokens, specials, n_classes, dim, hidden, rng):
        """The token list with `specials` appended where missing, and the
        (len(tokens), dim) table `e`, uniform in [-1, 1]."""
        self.tokens = list(tokens) + [s for s in specials if s not in tokens]
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        self.dim = dim
        self.hidden = hidden
        self.n_classes = n_classes
        self.e = rng.uniform(-1.0, 1.0, size=(len(self.tokens), dim))

    def meta(self) -> dict:
        """Container metadata: the arguments of `build_classifier`."""
        return {"model": self.model, "tokens": self.tokens,
                "n_classes": self.n_classes, "dim": self.dim,
                "hidden": self.hidden, self.shape: getattr(self, self.shape)}

    def _init_head(self, rng, in_dim):
        hidden, n_classes = self.hidden, self.n_classes
        self.W2 = _uniform(rng, (hidden, in_dim), in_dim)
        self.b2 = np.zeros(hidden)
        self.W4 = _uniform(rng, (n_classes, hidden), hidden)
        self.b4 = np.zeros(n_classes)

    def _forward(self, docs: Sequence[np.ndarray]) -> dict:
        lengths = np.array([len(d) for d in docs])
        if not lengths.all():
            raise DataError("empty document")
        cache = self._inputs(docs, lengths)
        X = cache["X"]
        T, B, m = X.shape
        Y2 = np.tanh(X.reshape(T * B, m) @ self.W2.T + self.b2).reshape(T, B, -1)
        # padded positions hold -inf, so they never win the pooling; the
        # first index wins ties
        Y2[np.arange(T)[:, None] >= lengths] = -np.inf
        y3 = Y2.max(axis=0)
        cache.update(Y2=Y2, argmax=Y2.argmax(axis=0), y3=y3,
                     y4=y3 @ self.W4.T + self.b4)
        return cache

    def loss_grads(self, ids: np.ndarray, class_id: int,
                   truncate: Optional[int] = None):
        """Cross-entropy loss of one document, given as `encode`d ids, and
        gradients of that loss; the `e` gradient is an `(ids, rows)` pair.
        The head's backward pass ends in d loss / d X, an (n, in) array, and
        the model's `_input_grads` takes it from there."""
        cache = self._forward([ids])
        X, Y2 = cache["X"][:, 0], cache["Y2"][:, 0]
        (loss,), (dy4,) = softmax_cross_entropy(cache["y4"], [class_id])
        dY2 = np.zeros_like(Y2)
        dY2[cache["argmax"][0], np.arange(Y2.shape[1])] = self.W4.T @ dy4
        dA = dY2 * (1.0 - Y2 * Y2)
        grads = {"W2": dA.T @ X, "b2": dA.sum(axis=0),
                 "W4": np.outer(dy4, cache["y3"][0]), "b4": dy4}
        grads.update(self._input_grads(ids, cache, dA @ self.W2, truncate))
        return float(loss), grads

    def _caches(self, docs: Iterable[Sequence[str]]) -> Iterator[dict]:
        """`_forward` of consecutive blocks of `docs`, each of at most
        EVAL_BLOCK padded positions."""
        for block in padded_blocks((self.encode(t) for t in docs), EVAL_BLOCK):
            yield self._forward(block)

    def batch_logits(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        """(len(docs), n_classes) logits, one row per document; they must
        be finite."""
        return check_finite(np.concatenate([c["y4"] for c in self._caches(docs)]),
                            "class scores")

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        unk = self.token_to_id[UNK_TOKEN]
        return np.array([self.token_to_id.get(t, unk) for t in tokens], dtype=np.int64)

    def predict_all(self, docs: Sequence[Sequence[str]]) -> List[int]:
        return self.batch_logits(docs).argmax(axis=1).tolist()

    def accuracy(self, docs: Sequence[LabeledDocument]) -> float:
        predicted = self.predict_all([d.tokens for d in docs])
        hits = sum(p == d.class_id for p, d in zip(predicted, docs))
        return hits / len(docs)


class RcnnModel(_PooledClassifier):
    """Bidirectional recurrent scans feeding a max-pooled classifier."""

    model, shape = "rcnn", "context_dim"

    def __init__(self, tokens: Sequence[str], n_classes: int, dim: int = 50,
                 context_dim: int = 50, hidden: int = 100,
                 rng: Optional[np.random.Generator] = None):
        check_sizes(dim=dim, context_dim=context_dim, hidden=hidden)
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(tokens, (UNK_TOKEN,), n_classes, dim, hidden, rng)
        self.context_dim = context_dim
        c, e = context_dim, dim
        self.W_l = _uniform(rng, (c, c), c)
        self.W_r = _uniform(rng, (c, c), c)
        self.W_sl = _uniform(rng, (c, e), e)
        self.W_sr = _uniform(rng, (c, e), e)
        self.cl_init = rng.uniform(-1.0, 1.0, size=c)
        self.cr_init = rng.uniform(-1.0, 1.0, size=c)
        self._init_head(rng, e + 2 * c)

    def params(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in
                ("e", "W_l", "W_r", "W_sl", "W_sr", "cl_init", "cr_init",
                 "W2", "b2", "W4", "b4")}

    def _recurrent(self) -> np.ndarray:
        c = self.context_dim
        W = np.zeros((2 * c, 2 * c))
        W[:c, :c], W[c:, c:] = self.W_l, self.W_r
        return W

    def _inputs(self, docs, lengths):
        """X from one joint scan. Row k of its state S holds [CL[k],
        CR[n-1-k]] of each document of length n: both directions run
        forward in k, with the block-diagonal recurrent matrix (W_l, W_r),
        and row k >= 1 reads E[k-1] on the left and E[n-k] on the right."""
        T, c = int(lengths.max()), self.context_dim
        ids = np.zeros((T, len(docs)), dtype=np.int64)
        for b, doc in enumerate(docs):
            ids[:len(doc), b] = doc
        # rev[k, b] = n_b - 1 - k: the right scan's position at row k
        rev = np.maximum(lengths - 1 - np.arange(T)[:, None], 0)
        batch = np.arange(len(docs))
        E = self.e[ids]
        S = self._scan(E[:-1], E[rev[:-1], batch])
        X = np.concatenate([S[:, :, :c], E, S[rev, batch, c:]], axis=2)
        return {"E": E, "S": S, "X": X}

    def _scan(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """(T, B, 2c) joint states from the (T-1, B, e) inputs of each
        direction. The input projections W_sl e and W_sr e are one matmul
        each; the loop keeps only the recurrent matmul."""
        steps, B, e = left.shape
        c = self.context_dim
        S = np.empty((steps + 1, B, 2 * c))
        S[0, :, :c], S[0, :, c:] = self.cl_init, self.cr_init
        S[1:, :, :c] = (left.reshape(-1, e) @ self.W_sl.T).reshape(steps, B, c)
        S[1:, :, c:] = (right.reshape(-1, e) @ self.W_sr.T).reshape(steps, B, c)
        WT, pre = self._recurrent().T, np.empty((B, 2 * c))
        for prev, row in zip(S[:-1], S[1:]):
            row += np.dot(prev, WT, out=pre)
            np.tanh(row, out=row)
        return S

    def _input_grads(self, ids, cache, dX, truncate):
        """The backward pass runs the joint scan back once, keeping only the
        recurrent chain; both directions cut it at rows k with
        k % truncate == 0. Each step's pre-activation gradient is stored,
        and the weight gradients and the input contributions are one
        matmul each afterwards."""
        grads = {}
        c, e, n = self.context_dim, self.dim, len(ids)
        S, E = cache["S"][:, 0], cache["E"][:, 0]
        dS = np.concatenate([dX[:, :c], dX[::-1, c + e:]], axis=1)
        dE = dX[:, c:c + e].copy()
        G = 1.0 - S * S
        D = np.empty((n - 1, 2 * c))  # D[k - 1]: d loss / d pre-activation of S[k]
        W, back, rows = self._recurrent(), np.empty(2 * c), list(dS)
        for k in range(n - 1, 0, -1):
            dpre = np.multiply(rows[k], G[k], out=D[k - 1])
            if truncate is None or k % truncate != 0:
                rows[k - 1] += np.dot(dpre, W, out=back)
        # DL[i] belongs to CL[i + 1], DR[i] to CR[i]; sums run in position order
        DL, DR = D[:, :c], D[::-1, c:]
        grads["W_l"] = DL.T @ S[:-1, :c]
        grads["W_r"] = DR.T @ S[-2::-1, c:]
        grads["W_sl"] = DL.T @ E[:-1]
        grads["W_sr"] = DR.T @ E[1:]
        dE[:-1] += DL @ self.W_sl
        dE[1:] += DR @ self.W_sr
        grads["cl_init"], grads["cr_init"] = dS[0, :c], dS[0, c:]
        grads["e"] = (ids, dE)
        return grads


class WindowCnnModel(_PooledClassifier):
    """Fixed-window convolution baseline; same pooled head as the RCNN."""

    model, shape = "wincnn", "win"

    def __init__(self, tokens: Sequence[str], n_classes: int, dim: int = 50,
                 win: int = 3, hidden: int = 100,
                 rng: Optional[np.random.Generator] = None):
        check_window(win)
        check_sizes(dim=dim, hidden=hidden)
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(tokens, (UNK_TOKEN, PAD_TOKEN), n_classes, dim,
                         hidden, rng)
        self.win = win
        self._init_head(rng, win * dim)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD_TOKEN]

    def params(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in ("e", "W2", "b2", "W4", "b4")}

    def _inputs(self, docs, lengths):
        windows = window_matrix(np.concatenate(docs), self.win, self.pad_id,
                                np.cumsum(lengths) - lengths)
        X = np.zeros((int(lengths.max()), len(docs), self.win * self.dim))
        valid = np.arange(X.shape[0]) < lengths[:, None]
        X.swapaxes(0, 1)[valid] = self.e[windows].reshape(len(windows), -1)
        return {"windows": windows, "X": X}

    def _input_grads(self, ids, cache, dX, truncate):
        return {"e": (cache["windows"].ravel(), dX.reshape(-1, self.dim))}


def build_classifier(model: str, **args) -> _PooledClassifier:
    """The classifier `model` names, built from its constructor's arguments."""
    classes = {cls.model: cls for cls in (RcnnModel, WindowCnnModel)}
    if model not in classes:
        raise DataError(f"unknown classifier model {model!r}")
    return classes[model](**args)


def train_classifier(model, train_docs: Sequence[LabeledDocument],
                     dev_docs: Sequence[LabeledDocument], lr: float = 0.01,
                     epochs: int = 20, seed: int = 0,
                     truncate: Optional[int] = None):
    """SGD over randomly ordered documents; keeps the best-on-dev checkpoint.
    `truncate` is the BPTT chunk length, None for the full sequence.

    Returns (best parameter snapshot, epoch records). The snapshot maps
    parameter names to copies; apply with `io_formats.restore_params`.
    Without dev documents, or with zero epochs, it holds the final
    parameters.
    """
    check_sizes(truncate=truncate)
    classes = {d.class_id for d in train_docs}
    if len(classes) < 2:
        raise DataError("training set must contain at least two classes")
    encoded = [(model.encode(d.tokens), d.class_id) for d in train_docs]
    n_tokens = sum(len(ids) for ids, _ in encoded)
    params = model.params()

    def batches(epoch):
        for n in substream(seed, f"classifier-epoch-{epoch}").permutation(
                len(encoded)):
            ids, class_id = encoded[n]
            yield (*model.loss_grads(ids, class_id, truncate=truncate), 1)

    best = [-1.0, None]  # best dev accuracy so far and its snapshot

    def evaluate_dev(record):
        if dev_docs:
            record.dev_accuracy = model.accuracy(dev_docs)
            if record.dev_accuracy >= best[0]:
                best[:] = record.dev_accuracy, deepcopy(params)

    # each matrix's rate but e's scaled by 1/fan-in
    rates = {name: lr * (1.0 / value.shape[1] if value.ndim == 2
                         and name != "e" else 1.0)
             for name, value in params.items()}
    records = run_epochs(epochs, lambda epoch: (n_tokens, [batches(epoch)]),
                         params, rates, end_epoch=evaluate_dev)
    return best[1] or deepcopy(params), records


def extract_key_phrases(model: RcnnModel, docs: Sequence[Sequence[str]],
                        phrase_len: int = 3,
                        labels: Optional[Sequence[int]] = None):
    """Most frequently max-pooled phrases.

    For every document and pooled dimension, takes the argmax position's
    center word with (phrase_len-1)/2 neighbors each side and counts how
    often each phrase is selected. Returns a ranked [(phrase, count)] list,
    or {class: ranked list} when labels are supplied.
    """
    check_window(phrase_len, name="phrase_len")
    half = (phrase_len - 1) // 2
    counters: Dict[Optional[int], Counter] = {}
    docs = [list(tokens) for tokens in docs]
    argmaxes = (row for cache in model._caches(docs)
                for row in cache["argmax"].tolist())
    for doc_idx, (tokens, positions) in enumerate(zip(docs, argmaxes)):
        label = labels[doc_idx] if labels is not None else None
        counter = counters.setdefault(label, Counter())
        for pos in positions:
            lo = max(0, pos - half)
            hi = min(len(tokens), pos + half + 1)
            counter[tuple(tokens[lo:hi])] += 1
    def ranked(counter):
        return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    if labels is None:
        return ranked(counters.get(None, Counter()))
    return {label: ranked(c) for label, c in counters.items()}
