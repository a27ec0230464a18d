"""Word-embedding pipeline: corpus -> tri-occurrence tensor -> CP factors -> evaluation.

The tri-occurrence tensor counts, for every unordered triple of distinct
token positions spanning at most the sliding-window length, the word triple
at those positions; each position triple is counted once however many
windows contain it.  Counts are symmetrized: all six index permutations of a
triple carry the same value.  After an elementwise ``log(1 + x)`` rescaling
the tensor is factorized, the three factor matrices are concatenated
horizontally, and the rows are normalized to unit length; row i is the
embedding of word i.

Evaluation follows the standard protocols: Spearman correlation of cosine
similarities against human similarity judgements, and analogy completion by
nearest neighbor of ``w(a*) - w(a) + w(b)`` with the three query words
excluded from the candidate set.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.stats import spearmanr

from .errors import UndefinedResultError
from .tensors import SparseTensor3, _linear_keys

__all__ = [
    "Vocab",
    "EmbeddingMatrix",
    "tokenize",
    "build_trioccurrence",
    "scale_log1p",
    "extract_embeddings",
    "eval_similarity",
    "eval_analogy",
    "SimilarityEval",
    "AnalogyEval",
]

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text):
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocab:
    """Ordered vocabulary: descending corpus frequency, ties lexicographic."""

    words: tuple
    index: dict

    @classmethod
    def from_counts(cls, counts, cap):
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
        words = tuple(w for w, _ in ranked)
        return cls(words=words, index={w: i for i, w in enumerate(words)})

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self.index

    def __getitem__(self, word):
        return self.index[word]


def build_trioccurrence(corpus, max_vocab, window):
    """Count word triples co-occurring within a sliding window.

    ``corpus`` is a file path or an iterable of text chunks, read as one
    text (the chunks joined) and tokenized at once.  The vocabulary keeps
    the ``max_vocab`` most frequent words.  Every unordered triple of distinct
    positions ``p1 < p2 < p3`` with ``p3 - p1 < window`` whose words are all
    in the vocabulary counts once.  It adds 1 to each distinct permutation
    of its sorted word triple ``x <= y <= z``, so every permutation of a
    word triple holds the same count and the tensor is fully symmetric.
    """
    if window < 3:
        raise ValueError(f"window must be >= 3, got {window}")
    if max_vocab < 1:
        raise ValueError(f"max_vocab must be >= 1, got {max_vocab}")
    if isinstance(corpus, str):
        with open(corpus, "r", encoding="utf-8") as fh:
            corpus = [fh.read()]
    tokens = tokenize("".join(corpus))
    vocab = Vocab.from_counts(Counter(tokens), max_vocab)
    v = len(vocab)
    if v == 0:
        return vocab, SparseTensor3.empty((1, 1, 1))
    ids = np.fromiter(
        (vocab.index.get(t, -1) for t in tokens), dtype=np.int64, count=len(tokens)
    )

    code_chunks = []
    n = ids.size
    for o1 in range(1, window - 1):
        for o2 in range(o1 + 1, window):
            if n <= o2:
                continue
            first = ids[: n - o2]
            second = ids[o1 : n - o2 + o1]
            third = ids[o2:]
            keep = (first >= 0) & (second >= 0) & (third >= 0)
            if not keep.any():
                continue
            x, y, z = np.sort(np.stack([first[keep], second[keep], third[keep]]), axis=0)
            xy, yz = x != y, y != z
            # Each permutation's mask drops it where it equals an earlier one.
            for a, b, c, m in (
                (x, y, z, None), (x, z, y, yz), (y, x, z, xy),
                (y, z, x, xy), (z, x, y, yz), (z, y, x, xy & yz),
            ):
                code = _linear_keys(a, b, c, (v, v, v))
                code_chunks.append(code if m is None else code[m])
    if not code_chunks:
        return vocab, SparseTensor3.empty((v, v, v))
    codes, counts = np.unique(np.concatenate(code_chunks), return_counts=True)
    idx = np.column_stack([codes // (v * v), (codes // v) % v, codes % v])
    return vocab, SparseTensor3((v, v, v), idx, counts.astype(np.float64))


def scale_log1p(tensor):
    """Elementwise ``log(1 + x)`` on the stored values; sparsity preserved.

    Counts are non-negative, and ``log1p`` keeps a positive count positive,
    so the result has the same stored entries and shares the tensor's
    read-only index array; only its values are new.
    """
    if tensor.nnz and tensor.values.min() < 0:
        raise ValueError("log1p scaling requires non-negative counts")
    return tensor._with_values(np.log1p(tensor.values))


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Unit-row embedding table indexed by vocabulary position.

    Rows whose concatenated factor entries were all zero cannot be
    normalized; they are flagged in ``valid`` and excluded from evaluation.
    """

    words: tuple
    vectors: np.ndarray
    valid: np.ndarray

    def __len__(self):
        return len(self.words)

    def row(self, word):
        return self.vectors[self.words.index(word)]


def extract_embeddings(model, vocab):
    """Concatenate the factor matrices and normalize the rows."""
    v = len(vocab)
    dims = model.dims
    if dims != (v, v, v):
        raise ValueError(f"model dims {dims} do not match vocabulary size {v}")
    concat = np.hstack([model.A, model.B, model.C])
    norms = np.linalg.norm(concat, axis=1)
    valid = norms > 1e-12
    if not valid.all():
        logger.warning(
            "%d embedding rows are zero and excluded from evaluation",
            int((~valid).sum()),
        )
    safe = np.where(valid, norms, 1.0)
    vectors = concat / safe[:, None]
    vectors[~valid] = 0.0
    return EmbeddingMatrix(words=tuple(vocab.words), vectors=vectors, valid=valid)


@dataclass(frozen=True)
class SimilarityEval:
    correlation: float
    pairs_used: int
    pairs_skipped: int


@dataclass(frozen=True)
class AnalogyEval:
    accuracy: float
    quads_used: int
    quads_skipped: int


def eval_similarity(embeddings, pairs):
    """Spearman correlation of embedding cosine similarity vs human scores.

    Pairs with an out-of-vocabulary (or zero-row) word are skipped and
    counted.  Fewer than two usable pairs leaves the rank correlation
    undefined and raises :class:`UndefinedResultError`.
    """
    index = {w: i for i, w in enumerate(embeddings.words)}
    sims = []
    human = []
    skipped = 0
    for w1, w2, score in pairs:
        i = index.get(w1)
        j = index.get(w2)
        if i is None or j is None or not (embeddings.valid[i] and embeddings.valid[j]):
            skipped += 1
            continue
        sims.append(float(embeddings.vectors[i] @ embeddings.vectors[j]))
        human.append(float(score))
    if len(sims) < 2:
        raise UndefinedResultError(
            f"need at least 2 usable pairs, got {len(sims)} ({skipped} skipped)"
        )
    if len(set(sims)) == 1 or len(set(human)) == 1:
        raise UndefinedResultError("rank correlation undefined for constant input")
    rho = spearmanr(sims, human).statistic
    return SimilarityEval(correlation=float(rho), pairs_used=len(sims), pairs_skipped=skipped)


def eval_analogy(embeddings, quads):
    """Analogy accuracy: a is to a* as b is to the nearest-neighbor answer.

    For each quad (a, a*, b, b*) the query ``w(a*) - w(a) + w(b)`` is matched
    by cosine similarity against every vocabulary word except a, a* and b;
    the quad scores when the argmax equals b*.  Quads with out-of-vocabulary
    words are skipped and counted.
    """
    index = {w: i for i, w in enumerate(embeddings.words)}
    rows = []
    skipped = 0
    for quad in quads:
        a, a_star, b, b_star = quad
        ids = [index.get(w) for w in (a, a_star, b, b_star)]
        if any(i is None or not embeddings.valid[i] for i in ids):
            skipped += 1
            continue
        rows.append(ids)
    if not rows:
        raise UndefinedResultError(f"no usable analogy quads ({skipped} skipped)")
    rows = np.asarray(rows, dtype=np.int64)
    vecs = embeddings.vectors
    queries = vecs[rows[:, 1]] - vecs[rows[:, 0]] + vecs[rows[:, 2]]
    qnorm = np.linalg.norm(queries, axis=1)
    qnorm[qnorm == 0.0] = 1.0
    scores = (queries / qnorm[:, None]) @ vecs.T
    scores[:, :] = np.where(embeddings.valid[None, :], scores, -np.inf)
    for col in range(3):
        scores[np.arange(rows.shape[0]), rows[:, col]] = -np.inf
    predictions = np.argmax(scores, axis=1)
    correct = int((predictions == rows[:, 3]).sum())
    return AnalogyEval(
        accuracy=correct / rows.shape[0],
        quads_used=rows.shape[0],
        quads_skipped=skipped,
    )
