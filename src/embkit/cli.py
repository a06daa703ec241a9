"""Command-line entry points for reproducible training and evaluation runs.

Every subcommand logs its resolved configuration and seed, is deterministic
given (inputs, config, seed) in single-worker mode, and never mutates its
input files. Exit codes: 0 success, 1 usage, 2 data error (a bad or
unreadable input, or one too large for the memory), 3 numeric failure.
"""

import argparse
import itertools
import logging
import os
import sys
from functools import partial

import numpy as np

from . import corpus as corpus_mod
from . import embeddings as emb
from . import evaluate as ev
from . import matrixfact as mf
from . import segment as seg
from . import textclass as tc
from .errors import DataError, NumericError
from .io_formats import (EmbeddingTable, _atomic_open, line_error,
                         load_container, load_embeddings, open_text,
                         restore_params, save_container, save_embeddings,
                         save_embeddings_binary, seed_rows)
from .optim import OPTIMIZERS
from .seeding import substream

log = logging.getLogger("embkit")


def _setup_logging():
    level = os.environ.get("EMBKIT_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="[%(levelname)s] %(message)s")


def main(argv=None) -> int:
    return run(argv if argv is not None else sys.argv[1:])


def run(argv) -> int:
    _setup_logging()
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "handler"):
        parser.print_help()
        return 1
    log.info("config: %s", {k: v for k, v in vars(args).items() if k != "handler"})
    try:
        # overflow on the way to a non-finite value is reported by the
        # finite checks as one NumericError line, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            args.handler(args)
        return 0
    except (DataError, OSError) as exc:
        log.error("data error: %s", exc)
        return 2
    except MemoryError as exc:  # an input too large for the memory
        log.error("data error: out of memory: %s", str(exc) or "allocation failed")
        return 2
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return 3
    except ValueError as exc:
        log.error("usage error: %s", exc)
        return 1


# --- shared helpers -----------------------------------------------------------

def _build_vocab(args, stream) -> corpus_mod.Vocabulary:
    """The corpus vocabulary, closed to `--vocab` if given, and written to
    `--save-vocab` if given."""
    fixed = corpus_mod.load_vocabulary(args.vocab).tokens if args.vocab else None
    vocab = corpus_mod.build_vocabulary(stream, args.min_count, fixed_vocab=fixed)
    if args.save_vocab:
        corpus_mod.save_vocabulary(vocab, args.save_vocab)
    return vocab


def _check_dev_fraction(args):
    if not 0.0 <= args.dev_fraction < 1.0:
        raise ValueError("--dev-fraction must lie in [0, 1)")


def _split_dev(items, n_dev, seed, stream):
    """(train, dev): the first `n_dev` of a seeded permutation go to dev,
    and both keep the input order."""
    dev_idx = set(substream(seed, stream).permutation(len(items))[:n_dev].tolist())
    return ([x for i, x in enumerate(items) if i not in dev_idx],
            [x for i, x in enumerate(items) if i in dev_idx])


def _seeded_model(build, dim, path, what):
    """`build(dim=dim)`, or given an embedding file `path`, `build` at the
    file's width with the file's rows copied in by `seed_rows`."""
    if not path:
        return build(dim=dim)
    table = load_embeddings(path)
    model = build(dim=table.dim)
    log.info("initialized %d %s vectors from %s", seed_rows(model, table), what, path)
    return model


def _save_model(model, path):
    """Write `model.params()` and, as metadata, `model.meta()`."""
    save_container(path, model.params(), model.meta())


def _load_model(marker, what, build, path):
    """The model of a container: `build(**meta)`, its arrays copied in by
    `restore_params`. Metadata without `marker` is not `what`; metadata the
    constructors refuse, or of the wrong type, is a data error naming `path`."""
    arrays, meta = load_container(path)
    if marker not in meta:
        raise DataError(f"{path}: container is not {what}")
    try:
        model = build(**meta)
    except (ValueError, TypeError, AttributeError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    restore_params(model, arrays, path)
    return model


_load_embedding_model = partial(_load_model, "kind", "an embedding model",
                                emb.EmbeddingModel.rebuild)
_load_segmenter = partial(_load_model, "chars", "a segmenter model",
                          seg.SegmenterNet)
_load_classifier = partial(_load_model, "model", "a classifier model",
                           tc.build_classifier)


# --- train-emb / train-charword ------------------------------------------------

def _cmd_train_emb(args):
    """train-emb, and train-charword: skipgram over the joint char-word
    space, its word rows written to --out and its character rows to
    --chars-out."""
    charword = args.command == "train-charword"
    stream = corpus_mod.CorpusStream.from_text_file(
        args.corpus, blank_line_docs=args.blank_line_docs)
    if args.shuffle_docs:
        stream = corpus_mod.shuffle_documents(
            stream, substream(args.seed, "doc-shuffle"))
    vocab = _build_vocab(args, stream)
    space = emb.build_charword_space(vocab) if charword else None
    model = emb.EmbeddingModel.create(
        "skipgram" if charword else args.kind, vocab, args.dim, args.win,
        args.hidden, substream(args.seed, "init"),
        tokens=space.tokens if charword else None)
    extra = ({"beta": args.beta, "char_context": args.char_context} if charword
             else {"full_softmax": args.full_softmax})
    cfg = emb.TrainConfig(
        negatives=args.negatives, lr=args.lr, optimizer=args.optimizer,
        epochs=args.epochs, subsample_t=args.t,
        subsample_variant=args.subsample_variant, seed=args.seed,
        workers=args.workers, batch_size=args.batch_size,
        precision=args.precision, **extra)
    emb.train_epochs(model, stream, cfg, space=space,
                     checkpoint_dir=args.checkpoint_dir)
    n = space.n_words if charword else model.n_rows
    write = save_embeddings_binary if args.binary else save_embeddings
    write(EmbeddingTable(model.tokens[:n], model.e[:n]), args.out)
    if charword and args.chars_out:
        write(EmbeddingTable(space.char_tokens, model.e[n:]), args.chars_out)
    if args.model_out:
        _save_model(model, args.model_out)


# --- co-occurrence and factorization -------------------------------------------

def _cmd_cooccur(args):
    stream = corpus_mod.CorpusStream.from_text_file(
        args.corpus, blank_line_docs=args.blank_line_docs)
    vocab = _build_vocab(args, stream)
    matrix = mf.count_cooccurrences(stream, vocab, args.win)
    log.info("counted %d nonzero cells", len(matrix))
    matrix.save(args.out)


def _cmd_factorize(args):
    vocab = corpus_mod.load_vocabulary(args.vocab)
    matrix = mf.CooccurrenceMatrix.load(args.cooccur, vocab)
    if args.objective == "glove":
        model, objective = mf.train_glove(matrix, args.dim, args.epochs,
                                          args.lr, seed=args.seed)
    else:
        mode = "raw_log" if args.objective == "log" else "conditional_log"
        model, objective = mf.factorize_log_counts(matrix, args.dim, mode,
                                                   args.epochs, args.lr,
                                                   seed=args.seed)
    arrays = {"P": model.P, "Q": model.Q}
    if model.bias1 is not None:
        arrays["bias1"] = model.bias1
        arrays["bias2"] = model.bias2
    save_container(args.out, arrays,
                   {"objective": args.objective, "final_objective": objective,
                    "dim": args.dim})
    print(f"final_objective: {objective:.6f}")


def _cmd_equiv_report(args):
    model = _load_embedding_model(args.model)
    if model.kind not in ("skipgram", "cbow"):
        raise DataError(f"{args.model}: equiv-report scores skipgram and "
                        f"cbow models, not {model.kind}")
    vocab = corpus_mod.load_vocabulary(args.vocab)
    matrix = mf.CooccurrenceMatrix.load(args.cooccur, vocab)
    report = mf.skipgram_equivalence_report(matrix, model, args.model)
    print(f"mean_kl: {report['mean_kl']:.6f}")
    print(f"max_kl: {report['max_kl']:.6f}")
    print(f"columns: {report['columns']}")
    if report["skipped_columns"]:
        print(f"skipped_columns: {len(report['skipped_columns'])}")


# --- evaluation ----------------------------------------------------------------

def _cmd_eval(args):
    table = load_embeddings(args.embeddings)
    if args.task == "ws":
        result = ev.eval_similarity(table, ev.load_similarity(args.dataset))
        score = result["pearson"]
        print(f"pearson: {score:.4f}")
        print(f"coverage: {result['covered_pairs']}/{result['total_pairs']}")
    elif args.task == "tfl":
        score = ev.eval_choice(table, ev.load_choice(args.dataset))
        print(f"accuracy: {score:.4f}")
    elif args.task == "analogy":
        result = ev.eval_analogy(table, ev.load_analogies(args.dataset))
        score = result["accuracy"]
        print(f"accuracy: {score:.4f}")
        print(f"answered: {result['answered']} skipped: {result['skipped']}")
        for cat, acc in sorted(result["per_category"].items()):
            print(f"category {cat or '(none)'}: {acc:.4f}")
    elif args.task == "avg":
        score = _eval_avg(args, table)
    elif args.task == "nn":
        if not args.word:
            raise ValueError("--word is required for the nn task")
        if args.k < 0:
            raise ValueError("--k must be >= 0")
        for token, sim in ev.nearest_neighbors(table, args.word, args.k):
            print(f"{token}\t{sim:.4f}")
        return
    if args.pgr_rand is not None and args.pgr_best is not None:
        ratio = ev.pgr(score * args.scale, args.pgr_rand, args.pgr_best)
        print(f"pgr: {ratio:.4f} ({ev.pgr_percent(ratio)}%)")


def _eval_avg(args, table) -> float:
    """Train on the average vectors of --train; print the accuracy and the
    coverage, scored/documents, of both files; the test accuracy."""
    if not args.train or not args.test:
        raise ValueError("avg task needs --train and --test labeled files")
    def featurize(path):
        """Average vectors and labels of the documents of `path` that have
        an in-vocabulary token, and the number of documents."""
        docs = tc.load_labeled_documents(path)
        scored = [d for d in docs if any(t in table for t in d.tokens)]
        if not scored:
            raise DataError(f"{path}: no document has an in-vocabulary token")
        feats = [ev.avg_document_vector(table, d.tokens) for d in scored]
        return np.array(feats), [d.class_id for d in scored], len(docs)
    train, test = featurize(args.train), featurize(args.test)
    clf = ev.train_logistic_classifier(*train[:2], l2=args.l2, epochs=args.epochs,
                                       lr=args.lr, seed=args.seed)
    for prefix, (x, y, n_docs) in (("train_", train), ("", test)):
        score = clf.accuracy(x, y)
        print(f"{prefix}accuracy: {score:.4f}")
        print(f"{prefix}coverage: {len(y)}/{n_docs}")
    return score  # the test file's


# --- segmentation ----------------------------------------------------------------

def _cmd_segment_train(args):
    _check_dev_fraction(args)
    sentences, _ = seg.load_segmented_corpus(args.corpus, normalize=not args.no_normalize)
    train, dev = _split_dev(sentences, int(len(sentences) * args.dev_fraction),
                            args.seed, "segment-split")
    tagged = [seg.tags_from_segmentation(words) for words in train]
    chars = sorted({c for t in tagged for c in t.chars})
    net = _seeded_model(partial(
        seg.SegmenterNet, chars, hidden=args.hidden, win=args.win,
        rng=substream(args.seed, "init"), normalize=not args.no_normalize),
        args.dim, args.init_embeddings, "character")
    seg.train_segmenter(net, tagged, lr=args.lr, epochs=args.epochs,
                        seed=args.seed, optimizer=args.optimizer)
    _save_model(net, args.out)
    if dev:
        pred = list(seg.decode_sentences(
            net, (seg.tags_from_segmentation(w).chars for w in dev)))
        scores = seg.prf_corpus(pred, dev)
        print(f"dev_precision: {scores['precision']:.4f}")
        print(f"dev_recall: {scores['recall']:.4f}")
        print(f"dev_f1: {scores['f1']:.4f}")


def _cmd_segment_decode(args):
    net = _load_segmenter(args.model)
    with open_text(args.input) as fh, \
            _atomic_open(args.out, "w", encoding="utf-8") as out:
        # each line's characters, and the text each one was read from
        chars, texts = itertools.tee(
            seg.line_to_chars(line, net.normalize, texts=True)
            for line in fh)
        for words in seg.decode_sentences(net, (c for c, _ in chars),
                                          (t for _, t in texts)):
            out.write("/".join(words) + "\n")


def _cmd_segment_score(args):
    pred, pred_lines = seg.load_segmented_corpus(args.pred, normalize=False)
    gold, gold_lines = seg.load_segmented_corpus(args.gold, normalize=False)
    if len(pred) != len(gold):
        raise DataError(f"prediction and gold files differ in sentence count: "
                        f"{args.pred} has {len(pred)}, {args.gold} has {len(gold)}")
    for p, g, p_line, g_line in zip(pred, gold, pred_lines, gold_lines):
        if "".join(p) != "".join(g):
            raise line_error(args.gold, g_line, f"covers different text than "
                             f"{args.pred}:{p_line}")
    scores = seg.prf_corpus(pred, gold)
    print(f"precision: {scores['precision']:.4f}")
    print(f"recall: {scores['recall']:.4f}")
    print(f"f1: {scores['f1']:.4f}")


# --- classification ---------------------------------------------------------------

def _cmd_classify_train(args):
    _check_dev_fraction(args)
    train = tc.load_labeled_documents(args.train)
    if args.dev:
        dev = tc.load_labeled_documents(args.dev)
    else:
        # a positive fraction holds out at least one document, 0 none
        n_dev = max(1, int(len(train) * args.dev_fraction)) if args.dev_fraction else 0
        train, dev = _split_dev(train, n_dev, args.seed, "classify-split")
    n_classes = max(d.class_id for d in train + dev) + 1
    tokens = list(dict.fromkeys(t for d in train for t in d.tokens))
    shape = "context_dim" if args.model == "rcnn" else "win"
    model = _seeded_model(partial(
        tc.build_classifier, args.model, tokens=tokens, n_classes=n_classes,
        hidden=args.hidden, rng=substream(args.seed, "init"),
        **{shape: getattr(args, shape)}), args.dim, args.embeddings, "word")
    best, records = tc.train_classifier(model, train, dev, lr=args.lr,
                                        epochs=args.epochs, seed=args.seed,
                                        truncate=args.truncate)
    restore_params(model, best, "best-on-dev snapshot")
    _save_model(model, args.out)
    if dev and records:
        print(f"best_dev_accuracy: {max(r.dev_accuracy for r in records):.4f}")


def _cmd_classify_predict(args):
    model = _load_classifier(args.model)
    docs = tc.load_labeled_documents(args.input)
    predicted = model.predict_all([d.tokens for d in docs])
    hits = sum(p == d.class_id for p, d in zip(predicted, docs))
    with _atomic_open(args.out, "w", encoding="utf-8") as out:
        out.writelines(f"{p}\n" for p in predicted)
    print(f"accuracy: {hits / len(docs):.4f}")


def _cmd_key_phrases(args):
    if args.top < 0:
        raise ValueError("--top must be >= 0")
    model = _load_classifier(args.model)
    if not isinstance(model, tc.RcnnModel):
        raise DataError("key-phrases requires an rcnn model")
    docs = tc.load_labeled_documents(args.input)
    labels = [d.class_id for d in docs] if args.per_class else None
    ranked = tc.extract_key_phrases(model, [d.tokens for d in docs],
                                    args.phrase_len, labels)
    def show(items, prefix=""):
        for phrase, count in items[:args.top]:
            print(f"{prefix}{count}\t{' '.join(phrase)}")
    if args.per_class:
        for label in sorted(ranked):
            print(f"class {label}:")
            show(ranked[label], prefix="  ")
    else:
        show(ranked)


# --- parser ----------------------------------------------------------------------

def _add_corpus_args(p, training=True):
    """The corpus flags, and with `training` the document shuffle and
    subsampling, which only a trainer reads."""
    p.add_argument("--corpus", required=True)
    p.add_argument("--blank-line-docs", action="store_true")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--vocab", help="closed vocabulary file (token<TAB>count)")
    p.add_argument("--save-vocab")
    if training:
        p.add_argument("--shuffle-docs", action="store_true")
        p.add_argument("--t", type=float, default=None,
                       help="subsampling threshold; omit to disable")
        p.add_argument("--subsample-variant", choices=["paper", "toolkit"],
                       default="toolkit")


def _add_train_args(p):
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--win", type=int, default=5)
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="adagrad")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--precision", choices=["float64", "float32"],
                   default="float64",
                   help="training storage precision (float32 is faster)")
    p.add_argument("--checkpoint-dir")
    p.add_argument("--model-out", help="binary model container")
    p.add_argument("--binary", action="store_true",
                   help="write --out as the bit-exact binary variant")
    p.add_argument("--out", required=True, help="embedding file")


def _args_train_emb(p):
    _add_corpus_args(p)
    _add_train_args(p)
    p.add_argument("--kind", choices=list(emb.KINDS), required=True)
    p.add_argument("--full-softmax", action="store_true",
                   help="exact softmax output layer (skipgram, small vocabularies)")
    p.set_defaults(handler=_cmd_train_emb)


def _args_train_charword(p):
    _add_corpus_args(p)
    _add_train_args(p)
    p.add_argument("--beta", type=float, default=0.5,
                   help="character modeling share in [0, 1]")
    p.add_argument("--char-context", action="store_true",
                   help="characters also join the context side")
    p.add_argument("--chars-out", help="embedding file for bare characters")
    p.set_defaults(handler=_cmd_train_emb)


def _args_cooccur(p):
    _add_corpus_args(p, training=False)
    p.add_argument("--win", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_cooccur)


def _args_factorize(p):
    p.add_argument("--cooccur", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--win", type=int, default=5)
    p.add_argument("--objective", choices=["glove", "log", "conditional"],
                   default="glove")
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_factorize)


def _args_equiv_report(p):
    p.add_argument("--cooccur", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True, help="container from train-emb")
    p.set_defaults(handler=_cmd_equiv_report)


def _args_eval(p):
    p.add_argument("--embeddings", required=True)
    p.add_argument("--task", choices=["ws", "tfl", "analogy", "avg", "nn"],
                   required=True)
    p.add_argument("--dataset", help="task dataset file (ws, tfl, analogy)")
    p.add_argument("--train", help="labeled documents (avg task)")
    p.add_argument("--test", help="labeled documents (avg task)")
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--word", help="query word (nn task)")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--pgr-rand", type=float, default=None)
    p.add_argument("--pgr-best", type=float, default=None)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the score before PGR (e.g. 100 for percents)")
    p.set_defaults(handler=_cmd_eval)


def _args_segment_train(p):
    p.add_argument("--corpus", required=True, help="segmented sentences")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--win", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="adagrad")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dev-fraction", type=float, default=0.0)
    p.add_argument("--init-embeddings", help="character embedding file")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_segment_train)


def _args_segment_decode(p):
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_segment_decode)


def _args_segment_score(p):
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(handler=_cmd_segment_score)


def _args_classify_train(p):
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--dev-fraction", type=float, default=0.1)
    p.add_argument("--model", choices=["rcnn", "wincnn"], default="rcnn")
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--context-dim", type=int, default=50)
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--win", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncate", type=int, default=None)
    p.add_argument("--embeddings", help="pretrained word vectors to load")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_classify_train)


def _args_classify_predict(p):
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_classify_predict)


def _args_key_phrases(p):
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--phrase-len", type=int, default=3)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--per-class", action="store_true")
    p.set_defaults(handler=_cmd_key_phrases)


# subcommand -> its help line and the function that adds its arguments
_COMMANDS = {
    "train-emb": ("train one of the six embedding kinds", _args_train_emb),
    "train-charword": ("joint character/word training", _args_train_charword),
    "cooccur": ("count a word-word co-occurrence matrix", _args_cooccur),
    "factorize": ("factorize a co-occurrence matrix", _args_factorize),
    "equiv-report": ("KL between co-occurrence conditionals and a "
                     "full-softmax skipgram model", _args_equiv_report),
    "eval": ("evaluate an embedding file", _args_eval),
    "segment-train": ("train the BMES segmenter", _args_segment_train),
    "segment-decode": ("segment raw text", _args_segment_decode),
    "segment-score": ("P/R/F of predictions vs gold", _args_segment_score),
    "classify-train": ("train rcnn or window-cnn", _args_classify_train),
    "classify-predict": ("predict labels for documents",
                         _args_classify_predict),
    "key-phrases": ("max-pooling phrase extraction", _args_key_phrases),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every subcommand registered. Only `command`'s
    arguments are added when it names a subcommand, since argparse parses
    with that subcommand alone; otherwise every subcommand gets its own."""
    parser = argparse.ArgumentParser(
        prog="embkit",
        description="word/character embedding and text representation workbench")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in _COMMANDS or command == name:
            add_args(p)
    return parser


if __name__ == "__main__":
    sys.exit(main())
