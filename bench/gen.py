"""Seeded input generator for the benchmark.

Everything the program reads is written here, before the measured process
starts: a topic-planted Zipf corpus, segmented gold and raw lines, labelled
documents for the classifier and random analogy questions. Words are strings
of 1-4 characters drawn from one CJK-like character inventory, so all inputs
share their characters. The same seed and parameters give the same files.
"""

import json
import os

import numpy as np

CHAR_BASE = 0x4E00  # start of the CJK unified ideographs block
WORD_LENGTHS = (1, 2, 3, 4)
WORD_LENGTH_P = (0.15, 0.5, 0.25, 0.1)


def make_lexicon(rng, n_words, n_chars):
    """`n_words` distinct words of 1-4 characters; list order is rank order."""
    words, seen = [], set()
    while len(words) < n_words:
        batch = 2 * (n_words - len(words)) + 16
        lengths = rng.choice(WORD_LENGTHS, size=batch, p=WORD_LENGTH_P)
        codes = rng.integers(n_chars, size=(batch, max(WORD_LENGTHS))) + CHAR_BASE
        for n, row in zip(lengths.tolist(), codes.tolist()):
            w = "".join(map(chr, row[:n]))
            if w not in seen and len(words) < n_words:
                seen.add(w)
                words.append(w)
    return words


def zipf_probs(n, exponent):
    p = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return p / p.sum()


def topic_words(n_words, n_topics, per_topic, first_rank):
    """Disjoint topic subsets taken from the middle of the frequency ranks."""
    ids = np.arange(first_rank, first_rank + n_topics * per_topic)
    if ids[-1] >= n_words:
        raise ValueError("lexicon too small for the topic subsets")
    return ids.reshape(n_topics, per_topic)


def topic_documents(rng, lengths, background, topics, topic_share):
    """Documents as (topic id, word-id array) pairs, one per length.

    Each token is a topic word of the document's topic with probability
    `topic_share`, otherwise a draw from the Zipf `background`."""
    lengths = np.asarray(lengths)
    doc_topic = rng.integers(len(topics), size=len(lengths))
    ids = rng.choice(len(background), size=int(lengths.sum()), p=background)
    token_topic = np.repeat(doc_topic, lengths)
    planted = rng.random(len(ids)) < topic_share
    slot = rng.integers(topics.shape[1], size=len(ids))
    ids[planted] = topics[token_topic[planted], slot[planted]]
    bounds = np.cumsum(lengths)[:-1]
    return list(zip(doc_topic.tolist(), np.split(ids, bounds)))


def doc_lengths(rng, doc_len, n_tokens):
    """Lengths in `doc_len` (inclusive) whose sum is exactly `n_tokens`."""
    lo, hi = doc_len
    lengths = rng.integers(lo, hi + 1, size=n_tokens // lo + 1)
    cut = int(np.searchsorted(np.cumsum(lengths), n_tokens))
    lengths = lengths[:cut + 1]
    lengths[-1] -= int(lengths.sum()) - n_tokens
    return lengths


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def generate(out_dir, seed, p):
    """Write every input file of one workload under `out_dir`.

    `p` is the workload's generator parameter dict (see workloads.py).
    Returns a manifest with the file paths and the input sizes the
    throughput metrics divide by."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 0xE3B])
    lexicon = make_lexicon(rng, p["lexicon"], p["chars"])
    background = zipf_probs(p["lexicon"], p["zipf"])
    topics = topic_words(p["lexicon"], p["topics"], p["topic_words"],
                         p["topic_first_rank"])
    files, sizes = {}, {}

    def corpus(name, n_tokens):
        lengths = doc_lengths(rng, p["doc_len"], n_tokens)
        docs = [ids for _, ids in topic_documents(
            rng, lengths, background, topics, p["topic_share"])]
        path = os.path.join(out_dir, name + ".txt")
        write_lines(path, (" ".join(lexicon[i] for i in d) for d in docs))
        files[name] = path
        sizes[name + "_tokens"] = n_tokens
        sizes[name + "_types"] = len(np.unique(np.concatenate(docs)))
        return docs

    main_docs = corpus("corpus", p["corpus_tokens"])
    corpus("corpus_small", p["small_tokens"])

    # Topical query words for nn_topic_p10: the most frequent planted words.
    counts = np.bincount(np.concatenate(main_docs), minlength=p["lexicon"])
    topic_of = {int(w): k for k, ws in enumerate(topics) for w in ws}
    planted = sorted(topic_of, key=lambda w: (-counts[w], w))
    queries = [w for w in planted[:p["nn_queries"]] if counts[w] > 0]
    with open(os.path.join(out_dir, "topics.json"), "w", encoding="utf-8") as fh:
        json.dump({"queries": [lexicon[w] for w in queries],
                   "topic_of": {lexicon[w]: k for w, k in topic_of.items()
                                if counts[w] > 0}}, fh, ensure_ascii=False)
    files["topics"] = os.path.join(out_dir, "topics.json")

    # Analogy questions: random quadruples of in-corpus words.
    present = np.nonzero(counts)[0]
    quads = rng.choice(present, size=(p["analogies"], 4))
    path = os.path.join(out_dir, "analogy.txt")
    write_lines(path, [": random"] + [" ".join(lexicon[i] for i in q) for q in quads])
    files["analogy"] = path
    sizes["analogy_questions"] = p["analogies"]

    # Segmentation: sentences over the head of the lexicon, gold and raw.
    seg_vocab = zipf_probs(p["seg_lexicon"], 1.0)
    sentences = []
    for _ in range(p["seg_train"] + p["seg_test"]):
        n = int(rng.integers(p["seg_len"][0], p["seg_len"][1] + 1))
        sentences.append([lexicon[i] for i in rng.choice(len(seg_vocab), size=n, p=seg_vocab)])
    train, test = sentences[:p["seg_train"]], sentences[p["seg_train"]:]
    for name, sents in (("seg_train", train), ("seg_gold", test)):
        path = os.path.join(out_dir, name + ".txt")
        write_lines(path, ("/".join(s) for s in sents))
        files[name] = path
    path = os.path.join(out_dir, "seg_raw.txt")
    write_lines(path, ("".join(s) for s in test))
    files["seg_raw"] = path
    sizes["seg_train_chars"] = sum(len("".join(s)) for s in train)
    sizes["seg_raw_chars"] = sum(len("".join(s)) for s in test)

    # Classification: topic-labelled documents over the first `clf_topics`.
    clf_topics = topics[:p["clf_topics"]]
    clf_background = zipf_probs(p["clf_lexicon"], p["zipf"])
    for name, n_docs in (("clf_train", p["clf_train"]), ("clf_dev", p["clf_dev"])):
        lengths = rng.integers(p["clf_doc_len"][0], p["clf_doc_len"][1] + 1,
                               size=n_docs)
        docs = topic_documents(rng, lengths, clf_background, clf_topics,
                               p["topic_share"])
        path = os.path.join(out_dir, name + ".txt")
        write_lines(path, (f"{k}\t" + " ".join(lexicon[i] for i in ids)
                           for k, ids in docs))
        files[name] = path
        sizes[name + "_docs"] = n_docs
    return {"files": files, "sizes": sizes}
