import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfact.textgen import planted_analogy_corpus, zipf_corpus


def reference_zipf_corpus(n_tokens, vocab_size, n_topics, seed):
    """The generator as it stood with one ``Generator.choice`` per sentence."""
    rng = np.random.default_rng(seed)
    words = np.array([f"w{i:04d}" for i in range(vocab_size)])
    base = 1.0 / np.arange(1, vocab_size + 1)
    base /= base.sum()
    topic_boost = np.ones((n_topics, vocab_size))
    for t in range(n_topics):
        member = rng.random(vocab_size) < 0.05
        topic_boost[t, member] = 20.0
    out = []
    produced = 0
    while produced < n_tokens:
        topic = rng.integers(n_topics)
        probs = base * topic_boost[topic]
        probs /= probs.sum()
        length = int(rng.integers(5, 13))
        out.append(" ".join(rng.choice(words, size=length, p=probs)))
        produced += length
    return "\n".join(out) + "\n"


def reference_planted_corpus(n_groups, n_forms, sentences_per_context, seed):
    """The planted generator as it stood with ``Generator.choice(pool, size=3)``."""
    rng = np.random.default_rng(seed)
    form_names = [chr(ord("x") + f) for f in range(n_forms)]

    def word(g, f):
        return f"g{g:02d}{form_names[f]}"

    sentences = []
    for g in range(n_groups):
        pool = [word(g, f) for f in range(n_forms)]
        for _ in range(sentences_per_context):
            sentences.append(" ".join(rng.choice(pool, size=3)))
    for f in range(n_forms):
        pool = [word(g, f) for g in range(n_groups)]
        for _ in range(sentences_per_context):
            sentences.append(" ".join(rng.choice(pool, size=3)))
    order = rng.permutation(len(sentences))
    return "\n".join(sentences[i] for i in order) + "\n"


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=60)
@given(
    seed=SEEDS,
    n_tokens=st.integers(1, 3000),
    vocab_size=st.integers(1, 12_000),
    n_topics=st.integers(1, 6),
)
def test_zipf_corpus_draws_as_generator_choice(seed, n_tokens, vocab_size, n_topics):
    assert zipf_corpus(n_tokens, vocab_size, n_topics, seed) == reference_zipf_corpus(
        n_tokens, vocab_size, n_topics, seed
    )


@settings(max_examples=60)
@given(
    seed=SEEDS,
    n_groups=st.integers(1, 12),
    n_forms=st.integers(1, 3),
    sentences_per_context=st.integers(0, 8),
)
def test_planted_corpus_draws_as_generator_choice(seed, n_groups, n_forms, sentences_per_context):
    args = (n_groups, n_forms, sentences_per_context, seed)
    assert planted_analogy_corpus(*args) == reference_planted_corpus(*args)


@pytest.mark.parametrize(
    "text, digest",
    [
        (
            lambda: zipf_corpus(200_000, seed=901),
            "61db0535b107255a60bcd32e5ba9ad9124dafefbf812fd87c43a3cc4332d1014",
        ),
        (
            lambda: planted_analogy_corpus(seed=11),
            "c6491420bcde0f6a1acc072e26985511ac3da805993e4a7983ce319ebb254e6e",
        ),
    ],
    ids=["desk-901", "planted-11"],
)
def test_pinned_bytes(text, digest):
    assert hashlib.sha256(text().encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["n_tokens", "vocab_size", "n_topics"])
@pytest.mark.parametrize("value", [0, -3])
def test_zipf_corpus_rejects_sizes_below_1(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
        zipf_corpus(**{name: value})


@pytest.mark.parametrize(
    "name, floor", [("n_groups", 1), ("n_forms", 1), ("sentences_per_context", 0)]
)
@pytest.mark.parametrize("below", [1, 4])
def test_planted_corpus_rejects_sizes_below_floor(name, floor, below):
    value = floor - below
    with pytest.raises(ValueError, match=f"^{name} must be at least {floor}, got {value}$"):
        planted_analogy_corpus(**{name: value})
