"""Command-line entry points for reproducible training and evaluation runs.

Every subcommand logs its resolved configuration and seed, is deterministic
given (inputs, config, seed) in single-worker mode, and never mutates its
input files. Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
"""

import argparse
import logging
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import embeddings as emb
from . import evaluate as ev
from . import matrixfact as mf
from . import segment as seg
from . import textclass as tc
from .errors import DataError, NumericError
from .io_formats import (EmbeddingTable, load_container, load_embeddings,
                         open_text, save_container, save_embeddings,
                         save_embeddings_binary)
from .optim import Param
from .seeding import substream

log = logging.getLogger("embkit")


def _setup_logging():
    level = os.environ.get("EMBKIT_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="[%(levelname)s] %(message)s")


def main(argv=None) -> int:
    code = run(argv if argv is not None else sys.argv[1:])
    return code


def run(argv) -> int:
    _setup_logging()
    parser = _build_parser()
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
    except (DataError, FileNotFoundError, IsADirectoryError) as exc:
        log.error("data error: %s", exc)
        return 2
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return 3
    except ValueError as exc:
        log.error("usage error: %s", exc)
        return 1


# --- shared helpers -----------------------------------------------------------

def _load_corpus(args) -> corpus_mod.CorpusStream:
    stream = corpus_mod.CorpusStream.from_text_file(
        args.corpus, blank_line_docs=getattr(args, "blank_line_docs", False))
    if getattr(args, "shuffle_docs", False):
        stream = corpus_mod.shuffle_documents(
            stream, substream(args.seed, "doc-shuffle"))
    return stream


def _build_vocab(args, stream) -> corpus_mod.Vocabulary:
    if getattr(args, "vocab", None):
        fixed = corpus_mod.load_vocabulary(args.vocab)
        return corpus_mod.build_vocabulary(stream.all_tokens(), args.min_count,
                                           fixed_vocab=fixed.tokens)
    return corpus_mod.build_vocabulary(stream.all_tokens(), args.min_count)


def _train_config(args, **overrides) -> emb.TrainConfig:
    cfg = emb.TrainConfig(
        negatives=args.negatives, lr=args.lr, optimizer=args.optimizer,
        epochs=args.epochs, subsample_t=args.t,
        subsample_variant=args.subsample_variant, seed=args.seed,
        workers=args.workers, batch_size=args.batch_size,
        precision=args.precision,
        full_softmax=getattr(args, "full_softmax", False))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _save_embedding_model(model, path):
    arrays = {name: p.value for name, p in model.params().items()}
    meta = {"kind": model.kind, "dim": model.dim, "win": model.win,
            "hidden": model.hidden, "tokens": model.tokens,
            "vocab_tokens": model.vocab.tokens,
            "vocab_counts": [int(c) for c in model.vocab.counts]}
    save_container(path, arrays, meta)


def _load_embedding_model(path) -> emb.EmbeddingModel:
    arrays, meta = load_container(path)
    vocab = corpus_mod.Vocabulary(meta["vocab_tokens"], meta["vocab_counts"])
    model = emb.EmbeddingModel(meta["kind"], vocab, meta["dim"], meta["win"],
                               meta["hidden"], tokens=meta["tokens"])
    model._params = {name: Param(arr) for name, arr in arrays.items()}
    return model


# --- train-emb / train-charword ------------------------------------------------

def _write_embeddings(args, table, path):
    if args.binary:
        save_embeddings_binary(table, path)
    else:
        save_embeddings(table, path)


def _cmd_train_emb(args):
    stream = _load_corpus(args)
    vocab = _build_vocab(args, stream)
    if args.save_vocab:
        corpus_mod.save_vocabulary(vocab, args.save_vocab)
    rng = substream(args.seed, "init")
    model = emb.EmbeddingModel.create(args.kind, vocab, args.dim, args.win,
                                      args.hidden, rng)
    cfg = _train_config(args)
    stats = emb.train_epochs(model, stream, cfg,
                             checkpoint_dir=args.checkpoint_dir, log_fn=log.info)
    for st in stats:
        log.info("epoch %d: mean_loss=%.6f tokens/s=%.0f",
                 st.epoch, st.mean_loss, st.tokens_per_sec)
    _write_embeddings(args, EmbeddingTable(model.tokens, model.e), args.out)
    if args.model_out:
        _save_embedding_model(model, args.model_out)
    log.info("wrote %s", args.out)


def _cmd_train_charword(args):
    stream = _load_corpus(args)
    vocab = _build_vocab(args, stream)
    if args.save_vocab:
        corpus_mod.save_vocabulary(vocab, args.save_vocab)
    space = emb.build_charword_space(vocab)
    rng = substream(args.seed, "init")
    model = emb.EmbeddingModel.create("skipgram", vocab, args.dim, args.win,
                                      rng=rng, tokens=space.tokens)
    cfg = _train_config(args, beta=args.beta, char_context=args.char_context)
    emb.train_epochs(model, stream, cfg, space=space,
                     checkpoint_dir=args.checkpoint_dir, log_fn=log.info)
    n = space.n_words
    _write_embeddings(args, EmbeddingTable(model.tokens[:n], model.e[:n]),
                      args.out)
    if args.chars_out:
        _write_embeddings(args, EmbeddingTable(space.char_tokens, model.e[n:]),
                          args.chars_out)
    if args.model_out:
        _save_embedding_model(model, args.model_out)
    log.info("wrote %s", args.out)


# --- co-occurrence and factorization -------------------------------------------

def _cmd_cooccur(args):
    stream = _load_corpus(args)
    vocab = _build_vocab(args, stream)
    if args.save_vocab:
        corpus_mod.save_vocabulary(vocab, args.save_vocab)
    matrix = mf.count_cooccurrences(stream, vocab, args.win)
    matrix.save(args.out)
    log.info("wrote %d nonzero cells to %s", len(matrix), args.out)


def _cmd_factorize(args):
    vocab = corpus_mod.load_vocabulary(args.vocab)
    matrix = mf.CooccurrenceMatrix.load(args.cooccur, vocab, args.win)
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
    log.info("wrote %s", args.out)


def _cmd_equiv_report(args):
    vocab = corpus_mod.load_vocabulary(args.vocab)
    matrix = mf.CooccurrenceMatrix.load(args.cooccur, vocab, args.win)
    model = _load_embedding_model(args.model)
    report = mf.skipgram_equivalence_report(matrix, model)
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
        print(f"accuracy: {score:.4f}")
    elif args.task == "nn":
        if not args.word:
            raise ValueError("--word is required for the nn task")
        for token, sim in ev.nearest_neighbors(table, args.word, args.k):
            print(f"{token}\t{sim:.4f}")
        return
    else:
        raise ValueError(f"unknown task {args.task!r}")
    if args.pgr_rand is not None and args.pgr_best is not None:
        ratio = ev.pgr(ev.PgrInput(score * args.scale, args.pgr_rand, args.pgr_best))
        print(f"pgr: {ratio:.4f} ({ev.pgr_percent(ratio)}%)")


def _eval_avg(args, table) -> float:
    if not args.train or not args.test:
        raise ValueError("avg task needs --train and --test labeled files")
    train = tc.load_labeled_documents(args.train)
    test = tc.load_labeled_documents(args.test)
    def featurize(docs):
        feats, labels = [], []
        for d in docs:
            try:
                feats.append(ev.avg_document_vector(table, d.tokens))
                labels.append(d.class_id)
            except DataError:
                continue
        return np.asarray(feats), labels
    xs, ys = featurize(train)
    clf = ev.train_logistic_classifier(xs, ys, l2=args.l2, epochs=args.epochs,
                                       lr=args.lr, seed=args.seed)
    xt, yt = featurize(test)
    print(f"train_accuracy: {clf.accuracy(xs, ys):.4f}")
    return clf.accuracy(xt, yt)


# --- segmentation ----------------------------------------------------------------

def _cmd_segment_train(args):
    sentences = seg.load_segmented_corpus(args.corpus, normalize=not args.no_normalize)
    rng = substream(args.seed, "segment-split")
    order = rng.permutation(len(sentences))
    n_dev = int(len(sentences) * args.dev_fraction)
    dev_idx = set(order[:n_dev].tolist())
    train = [sentences[i] for i in range(len(sentences)) if i not in dev_idx]
    dev = [sentences[i] for i in range(len(sentences)) if i in dev_idx]
    tagged = [seg.tags_from_segmentation(words) for words in train]
    chars = sorted({c for t in tagged for c in t.chars})
    net = seg.SegmenterNet(chars, args.dim, args.hidden, args.win,
                           rng=substream(args.seed, "init"))
    if args.init_embeddings:
        loaded = net.load_char_vectors(load_embeddings(args.init_embeddings))
        log.info("initialized %d character vectors from %s",
                 loaded, args.init_embeddings)
    seg.train_segmenter(net, tagged, lr=args.lr, epochs=args.epochs,
                        seed=args.seed, optimizer=args.optimizer,
                        log_fn=log.info)
    save_container(args.out, net.params(),
                   {"chars": net.chars, "dim": net.dim,
                    "hidden": net.hidden, "win": net.win})
    if dev:
        pred = [seg.decode_sentence(net, seg.tags_from_segmentation(w).chars)
                for w in dev]
        scores = seg.prf_corpus(pred, dev)
        print(f"dev_precision: {scores['precision']:.4f}")
        print(f"dev_recall: {scores['recall']:.4f}")
        print(f"dev_f1: {scores['f1']:.4f}")
    log.info("wrote %s", args.out)


def _load_segmenter(path) -> seg.SegmenterNet:
    arrays, meta = load_container(path)
    net = seg.SegmenterNet(meta["chars"], meta["dim"], meta["hidden"], meta["win"])
    for name, arr in arrays.items():
        getattr(net, name)[...] = arr
    return net


def _cmd_segment_decode(args):
    net = _load_segmenter(args.model)
    with open_text(args.input) as fh, \
            open(args.out, "w", encoding="utf-8") as out:
        for line in fh:
            chars = seg.line_to_chars(line, normalize=not args.no_normalize)
            if not chars:
                out.write("\n")
                continue
            out.write("/".join(seg.decode_sentence(net, chars)) + "\n")
    log.info("wrote %s", args.out)


def _cmd_segment_score(args):
    pred = seg.load_segmented_corpus(args.pred, normalize=False)
    gold = seg.load_segmented_corpus(args.gold, normalize=False)
    if len(pred) != len(gold):
        raise DataError("prediction and gold files differ in sentence count")
    scores = seg.prf_corpus(pred, gold)
    print(f"precision: {scores['precision']:.4f}")
    print(f"recall: {scores['recall']:.4f}")
    print(f"f1: {scores['f1']:.4f}")


# --- classification ---------------------------------------------------------------

def _classifier_vocab(docs):
    seen = {}
    for d in docs:
        for t in d.tokens:
            seen.setdefault(t, len(seen))
    return sorted(seen, key=seen.get)


def _cmd_classify_train(args):
    train = tc.load_labeled_documents(args.train)
    if args.dev:
        dev = tc.load_labeled_documents(args.dev)
    else:
        rng = substream(args.seed, "classify-split")
        order = rng.permutation(len(train))
        n_dev = max(1, int(len(train) * args.dev_fraction))
        dev_idx = set(order[:n_dev].tolist())
        dev = [train[i] for i in range(len(train)) if i in dev_idx]
        train = [train[i] for i in range(len(train)) if i not in dev_idx]
    n_classes = max(d.class_id for d in train + dev) + 1
    tokens = _classifier_vocab(train)
    vectors = None
    if args.embeddings:
        table = load_embeddings(args.embeddings)
        vectors = np.array([table.vector(t) if t in table
                            else np.zeros(table.dim) for t in tokens])
        args.dim = table.dim
    rng = substream(args.seed, "init")
    if args.model == "rcnn":
        model = tc.RcnnModel(tokens, n_classes, args.dim, args.context_dim,
                             args.hidden, rng=rng, vectors=vectors)
    else:
        model = tc.WindowCnnModel(tokens, n_classes, args.dim, args.win,
                                  args.hidden, rng=rng, vectors=vectors)
    cfg = tc.ClassifierConfig(lr=args.lr, epochs=args.epochs, seed=args.seed,
                              truncate=args.truncate)
    best, history = tc.train_classifier(model, train, dev, cfg, log_fn=log.info)
    tc.load_params(model, best)
    meta = {"model": args.model, "tokens": model.tokens,
            "n_classes": n_classes, "dim": args.dim, "hidden": args.hidden}
    if args.model == "rcnn":
        meta["context_dim"] = args.context_dim
    else:
        meta["win"] = args.win
    save_container(args.out, model.params(), meta)
    best_epoch = max(history, key=lambda h: h["dev_accuracy"])
    print(f"best_dev_accuracy: {best_epoch['dev_accuracy']:.4f}")
    log.info("wrote %s", args.out)


def _load_classifier(path):
    arrays, meta = load_container(path)
    if meta["model"] == "rcnn":
        model = tc.RcnnModel(meta["tokens"], meta["n_classes"], meta["dim"],
                             meta["context_dim"], meta["hidden"])
    else:
        model = tc.WindowCnnModel(meta["tokens"], meta["n_classes"],
                                  meta["dim"], meta["win"], meta["hidden"])
    tc.load_params(model, arrays)
    return model


def _cmd_classify_predict(args):
    model = _load_classifier(args.model)
    docs = tc.load_labeled_documents(args.input)
    hits = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for d in docs:
            pred = model.predict(d.tokens)
            hits += int(pred == d.class_id)
            out.write(f"{pred}\n")
    print(f"accuracy: {hits / len(docs):.4f}")
    log.info("wrote %s", args.out)


def _cmd_key_phrases(args):
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

def _add_corpus_args(p, with_subsample=True):
    p.add_argument("--corpus", required=True)
    p.add_argument("--blank-line-docs", action="store_true")
    p.add_argument("--shuffle-docs", action="store_true")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--vocab", help="closed vocabulary file (token<TAB>count)")
    p.add_argument("--save-vocab")
    if with_subsample:
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
    p.add_argument("--optimizer", choices=["sgd", "adagrad"], default="adagrad")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embkit",
        description="word/character embedding and text representation workbench")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("train-emb", help="train one of the six embedding kinds")
    _add_corpus_args(p)
    _add_train_args(p)
    p.add_argument("--kind", choices=list(emb.KINDS), required=True)
    p.add_argument("--full-softmax", action="store_true",
                   help="exact softmax output layer (skipgram, small vocabularies)")
    p.set_defaults(handler=_cmd_train_emb)

    p = sub.add_parser("train-charword", help="joint character/word training")
    _add_corpus_args(p)
    _add_train_args(p)
    p.add_argument("--beta", type=float, default=0.5,
                   help="character modeling share in [0, 1]")
    p.add_argument("--char-context", action="store_true",
                   help="characters also join the context side")
    p.add_argument("--chars-out", help="embedding file for bare characters")
    p.set_defaults(handler=_cmd_train_charword)

    p = sub.add_parser("cooccur", help="count a word-word co-occurrence matrix")
    _add_corpus_args(p, with_subsample=False)
    p.add_argument("--win", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_cooccur)

    p = sub.add_parser("factorize", help="factorize a co-occurrence matrix")
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

    p = sub.add_parser("equiv-report",
                       help="KL between co-occurrence conditionals and a "
                            "full-softmax skipgram model")
    p.add_argument("--cooccur", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--win", type=int, default=5)
    p.add_argument("--model", required=True, help="container from train-emb")
    p.set_defaults(handler=_cmd_equiv_report)

    p = sub.add_parser("eval", help="evaluate an embedding file")
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

    p = sub.add_parser("segment-train", help="train the BMES segmenter")
    p.add_argument("--corpus", required=True, help="segmented sentences")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--win", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--optimizer", choices=["sgd", "adagrad"], default="adagrad")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dev-fraction", type=float, default=0.0)
    p.add_argument("--init-embeddings", help="character embedding file")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_segment_train)

    p = sub.add_parser("segment-decode", help="segment raw text")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_segment_decode)

    p = sub.add_parser("segment-score", help="P/R/F of predictions vs gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(handler=_cmd_segment_score)

    p = sub.add_parser("classify-train", help="train rcnn or window-cnn")
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

    p = sub.add_parser("classify-predict", help="predict labels for documents")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_classify_predict)

    p = sub.add_parser("key-phrases", help="max-pooling phrase extraction")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--phrase-len", type=int, default=3)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--per-class", action="store_true")
    p.set_defaults(handler=_cmd_key_phrases)

    return parser


if __name__ == "__main__":
    sys.exit(main())
