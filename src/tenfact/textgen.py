"""Deterministic synthetic corpora for the embedding pipeline.

``zipf_corpus`` produces a desk-scale text with a Zipfian unigram
distribution and mild topical clustering, enough structure for the pipeline
to chew on.  ``planted_analogy_corpus`` builds a vocabulary of group/form
word pairs whose co-occurrence statistics make analogies exactly solvable:
words sharing a group co-occur in group sentences, words sharing a form
co-occur in form sentences, so embeddings decompose additively into a group
part and a form part.

Both outputs are byte-stable per seed: each is a fixed function of one
``np.random.default_rng(seed)`` stream, drawn in a fixed order.
``zipf_corpus`` first draws ``rng.random(vocab_size)`` once per topic for
its boosted words; then, per sentence, ``rng.integers(n_topics)`` for the
topic, ``rng.integers(5, 13)`` for the length and ``rng.random(length)``
for the words, each mapped through the topic's CDF as
``Generator.choice(words, size, p=probs)`` maps it.
``planted_analogy_corpus`` draws ``rng.integers(0, len(pool), size=3)``
per sentence, as ``Generator.choice(pool, size=3)`` does, then one
``rng.permutation`` of the sentences.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipf_corpus", "planted_analogy_corpus", "analogy_quads", "write_corpus"]


def _require_at_least(floor, **sizes):
    for name, value in sizes.items():
        if value < floor:
            raise ValueError(f"{name} must be at least {floor}, got {value}")


def _word(g, f):
    """The planted word of group ``g`` in form ``f``: ``g00x``, ``g00y``, ..."""
    return f"g{g:02d}{chr(ord('x') + f)}"


def zipf_corpus(n_tokens=200_000, vocab_size=3000, n_topics=20, seed=0):
    """Generate one long text string with Zipf-distributed topical words."""
    _require_at_least(1, n_tokens=n_tokens, vocab_size=vocab_size, n_topics=n_topics)
    rng = np.random.default_rng(seed)
    words = [f"w{i:04d}" for i in range(vocab_size)]
    base = 1.0 / np.arange(1, vocab_size + 1)
    base /= base.sum()
    # Each topic boosts a random slice of the vocabulary.  Its CDF takes
    # Generator.choice's own arithmetic, so that the words drawn are choice's.
    cdfs = []
    for _ in range(n_topics):
        probs = base * np.where(rng.random(vocab_size) < 0.05, 20.0, 1.0)
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        cdfs.append(cdf)
    out = []
    produced = 0
    while produced < n_tokens:
        cdf = cdfs[rng.integers(n_topics)]
        length = int(rng.integers(5, 13))
        idx = cdf.searchsorted(rng.random(length), side="right")
        out.append(" ".join([words[i] for i in idx.tolist()]))
        produced += length
    return "\n".join(out) + "\n"


def planted_analogy_corpus(n_groups=20, n_forms=2, sentences_per_context=400, seed=0):
    """Corpus whose word statistics plant an exact analogy structure.

    The vocabulary is one word per (group, form) cell.  Half the sentences
    draw three words from a single group (forms mixed), half draw three
    words from a single form (groups mixed), in a deterministic round-robin
    so every context gets identical mass.
    """
    _require_at_least(1, n_groups=n_groups, n_forms=n_forms)
    _require_at_least(0, sentences_per_context=sentences_per_context)
    rng = np.random.default_rng(seed)
    pools = [[_word(g, f) for f in range(n_forms)] for g in range(n_groups)]
    pools += [[_word(g, f) for g in range(n_groups)] for f in range(n_forms)]
    sentences = []
    for pool in pools:
        for _ in range(sentences_per_context):
            idx = rng.integers(0, len(pool), size=3)
            sentences.append(" ".join([pool[i] for i in idx.tolist()]))
    order = rng.permutation(len(sentences))
    return "\n".join(sentences[i] for i in order) + "\n"


def analogy_quads(n_groups=20):
    """Every ordered pair of distinct groups as (a, a*, b, b*) quads: the
    planted words of forms ``x`` and ``y``."""
    return [
        (_word(g1, 0), _word(g1, 1), _word(g2, 0), _word(g2, 1))
        for g1 in range(n_groups)
        for g2 in range(n_groups)
        if g1 != g2
    ]


def write_corpus(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
