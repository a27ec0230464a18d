import itertools
import math
import string

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tenfact.embed import (
    EmbeddingMatrix,
    Vocab,
    build_trioccurrence,
    eval_analogy,
    eval_similarity,
    extract_embeddings,
    scale_log1p,
    tokenize,
)
from tenfact.errors import UndefinedResultError
from tenfact.fileio import read_coo, write_coo
from tenfact.tensors import CpModel, SparseTensor3

from conftest import random_model


def brute_force_counts(tokens, vocab, window):
    """Exhaustive enumeration oracle: every unordered position triple with
    span < window counts once toward its sorted word triple."""
    counts = {}
    n = len(tokens)
    for p1, p2, p3 in itertools.combinations(range(n), 3):
        if p3 - p1 >= window:
            continue
        words = (tokens[p1], tokens[p2], tokens[p3])
        if any(w not in vocab.index for w in words):
            continue
        key = tuple(sorted(vocab.index[w] for w in words))
        counts[key] = counts.get(key, 0) + 1
    return counts


# Corpora named for the sorted word-id pattern, (i, i, i), (i, i, j),
# (i, j, j) or (i, j, k), that their window triples are built around; where
# words repeat, some permutations of a word triple coincide and count once.
REPEAT_PATTERNS = {
    "iii": "a a a b b b b c c c",
    "iij": "a a b a a b b b c c d c c d",
    "ijj": "a b b a c c b d d",
    "ijk": "a b c d e a c e b d",
}


def logical_value(tensor, i, j, k):
    match = (tensor.indices == np.array([i, j, k])).all(axis=1)
    return float(tensor.values[match][0]) if match.any() else 0.0


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Hello, World! x2") == ["hello", "world", "x2"]

    def test_empty(self):
        assert tokenize("...") == []


class TestBuildTrioccurrence:
    def test_single_window(self):
        vocab, tensor = build_trioccurrence(["a b c"], max_vocab=3, window=3)
        assert len(vocab) == 3
        ia, ib, ic = vocab["a"], vocab["b"], vocab["c"]
        # Symmetric: all six permutations carry the count 1.
        for perm in itertools.permutations((ia, ib, ic)):
            assert logical_value(tensor, *perm) == 1.0
        assert tensor.nnz == 6

    def test_repeated_word_diagonal_only(self):
        vocab, tensor = build_trioccurrence(["z z z z"], max_vocab=5, window=3)
        assert len(vocab) == 1
        assert tensor.nnz == 1
        assert logical_value(tensor, 0, 0, 0) == 2.0  # two position triples

    def test_empty_corpus(self):
        vocab, tensor = build_trioccurrence([""], max_vocab=5, window=3)
        assert len(vocab) == 0
        assert tensor.nnz == 0

    @pytest.mark.parametrize(
        "corpus",
        ["the cat sat on the mat the cat ran off the mat", *REPEAT_PATTERNS.values()],
        ids=["words", *REPEAT_PATTERNS],
    )
    def test_exhaustive_window_enumeration_oracle(self, corpus):
        for window in (3, 4, 5):
            vocab, tensor = build_trioccurrence([corpus], max_vocab=10, window=window)
            tokens = tokenize(corpus)
            expect = brute_force_counts(tokens, vocab, window)
            for (i, j, k), count in expect.items():
                assert logical_value(tensor, i, j, k) == count, (i, j, k, window)
            # No spurious entries: stored sorted triples match the oracle.
            stored = {
                tuple(idx): v
                for idx, v in zip(tensor.indices, tensor.values)
                if idx[0] <= idx[1] <= idx[2]
            }
            assert stored == {key: float(v) for key, v in expect.items()}

    def test_vocab_cap_and_order(self):
        vocab, _ = build_trioccurrence(["b b b a a c"], max_vocab=2, window=3)
        assert vocab.words == ("b", "a")  # frequency desc, then lexicographic

    def test_chunk_boundary_invariance(self):
        text = "alpha beta gamma delta epsilon zeta eta theta"
        whole = build_trioccurrence([text], max_vocab=10, window=4)
        # Chunks split mid-word and mid-stream.
        ragged = build_trioccurrence(
            ["alpha be", "ta gamma d", "elta epsilon", " zeta eta theta"],
            max_vocab=10,
            window=4,
        )
        assert whole[0].words == ragged[0].words
        np.testing.assert_array_equal(whole[1].indices, ragged[1].indices)
        np.testing.assert_array_equal(whole[1].values, ragged[1].values)

    @given(
        text=st.text(alphabet=string.ascii_letters + string.digits + string.punctuation + " \n", max_size=120),
        cuts=st.lists(st.integers(0, 120), max_size=6),
        window=st.integers(3, 5),
    )
    @example(text="abcdefgh ij", cuts=[2, 2, 5], window=3)  # an empty chunk, then one fragment
    @example(text="Ab1 cd, x12\nCD ab1", cuts=[0, 2, 2, 10, 13], window=4)  # "Ab|1", "x1|2", "C|D"
    @example(text="ab\u212acd ef gh", cuts=[3], window=3)  # Kelvin sign: "ab\u212a" lowers to "abk"
    def test_chunking_property(self, text, cuts, window):
        """Cutting a text into chunks anywhere, even into empty chunks or
        chunks inside one token, builds the whole text's tensor."""
        bounds = [0, *sorted(c % (len(text) + 1) for c in cuts), len(text)]
        chunks = [text[a:b] for a, b in zip(bounds, bounds[1:])]
        whole = build_trioccurrence([text], max_vocab=8, window=window)
        cut = build_trioccurrence(chunks, max_vocab=8, window=window)
        assert cut[0].words == whole[0].words
        assert cut[1].dims == whole[1].dims
        np.testing.assert_array_equal(cut[1].indices, whole[1].indices)
        np.testing.assert_array_equal(cut[1].values, whole[1].values)

    def test_symmetry_invariant(self, rng):
        words = " ".join(rng.choice(list("abcde"), size=40))
        _, tensor = build_trioccurrence([words], max_vocab=5, window=5)
        for idx, v in zip(tensor.indices[:20], tensor.values[:20]):
            for perm in itertools.permutations(idx):
                assert logical_value(tensor, *perm) == v

    def test_window_validation(self):
        with pytest.raises(ValueError):
            build_trioccurrence(["a b c"], max_vocab=3, window=2)

    @pytest.mark.parametrize("max_vocab", [0, -2])
    def test_max_vocab_validation(self, max_vocab):
        with pytest.raises(ValueError, match="max_vocab"):
            build_trioccurrence(["a a a b b c d e f g"], max_vocab=max_vocab, window=3)


class TestCountsOracle:
    @pytest.mark.parametrize(
        "corpus",
        [
            "the cat sat on the mat the cat ran off the mat and the dog sat on the cat",
            *REPEAT_PATTERNS.values(),
        ],
        ids=["words", *REPEAT_PATTERNS],
    )
    @pytest.mark.parametrize("window", [3, 4])
    def test_build_and_coo_round_trip_match_dict_oracle(self, tmp_path, window, corpus):
        vocab, tensor = build_trioccurrence([corpus], max_vocab=7, window=window)
        expect = {}
        for key, count in brute_force_counts(tokenize(corpus), vocab, window).items():
            for perm in itertools.permutations(key):
                expect[perm] = float(count)
        keys = sorted(expect)
        assert tensor.indices.tolist() == [list(key) for key in keys]
        assert tensor.values.tolist() == [expect[key] for key in keys]
        path = tmp_path / "counts.coo"
        write_coo(path, tensor)
        loaded = read_coo(path)
        assert loaded.dims == tensor.dims
        for got, want in ((loaded.indices, tensor.indices), (loaded.values, tensor.values)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestScaleLog1p:
    @pytest.mark.parametrize("nnz", [0, 1, 50])
    def test_shares_read_only_indices(self, rng, nnz):
        idx = np.column_stack([rng.integers(0, d, nnz) for d in (5, 6, 7)])
        t = SparseTensor3((5, 6, 7), idx, rng.integers(1, 20, nnz).astype(np.float64))
        before = t.indices.copy(), t.values.copy()
        scaled = scale_log1p(t)
        assert scaled.dims == t.dims
        assert np.shares_memory(scaled.indices, t.indices) or nnz == 0
        assert not np.shares_memory(scaled.values, t.values)
        assert scaled.values.tobytes() == np.log1p(t.values).tobytes()
        for arr in (t.indices, t.values, scaled.indices, scaled.values):
            assert not arr.flags.writeable
        assert t.indices.tobytes() == before[0].tobytes() and t.values.tobytes() == before[1].tobytes()

    def test_with_values_falls_back_to_constructor(self):
        t = SparseTensor3.from_entries((2, 2, 2), [(0, 0, 0, 1.0), (1, 0, 1, 2.0), (1, 1, 1, 3.0)])
        dropped = t._with_values(np.array([4.0, 0.0, -0.0]))
        assert dropped.indices.tolist() == [[0, 0, 0]] and dropped.values.tolist() == [4.0]
        assert not np.shares_memory(dropped.indices, t.indices)
        for bad in ([1.0, np.nan, 1.0], [1.0, 1.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                t._with_values(np.array(bad))
        with pytest.raises(ValueError, match="entry count"):
            t._with_values(np.array([1.0, 2.0]))

    def test_empty_stays_empty(self):
        empty = SparseTensor3.empty((3, 3, 3))
        assert scale_log1p(empty).nnz == 0

    def test_absent_zero_stays_absent(self):
        t = SparseTensor3.from_entries((3, 3, 3), [(0, 0, 0, 1.0)])
        out = scale_log1p(t)
        assert out.nnz == 1
        assert logical_value(out, 1, 1, 1) == 0.0

    def test_e_minus_one_maps_to_one(self):
        t = SparseTensor3.from_entries((2, 2, 2), [(0, 0, 0, math.e - 1.0)])
        assert scale_log1p(t).values[0] == pytest.approx(1.0)

    def test_monotone(self):
        t = SparseTensor3.from_entries((3, 1, 1), [(0, 0, 0, 1.0), (1, 0, 0, 2.0), (2, 0, 0, 3.0)])
        out = scale_log1p(t)
        assert (np.diff(out.values) > 0).all()

    def test_rejects_negative(self):
        t = SparseTensor3.from_entries((2, 2, 2), [(0, 0, 0, -1.0)])
        with pytest.raises(ValueError):
            scale_log1p(t)


def make_vocab(words):
    return Vocab(words=tuple(words), index={w: i for i, w in enumerate(words)})


class TestExtractEmbeddings:
    def test_one_hot_rows(self):
        vocab = make_vocab(["u", "v", "w"])
        eye = np.eye(3)[:, :1]
        model = CpModel([1.0], eye, eye, eye)
        emb = extract_embeddings(model, vocab)
        np.testing.assert_allclose(np.linalg.norm(emb.vectors[0]), 1.0)
        assert emb.valid[0]
        assert not emb.valid[1] and not emb.valid[2]

    def test_rows_unit_norm(self, rng):
        vocab = make_vocab([f"w{i}" for i in range(6)])
        model = random_model(rng, (6, 6, 6), 2)
        emb = extract_embeddings(model, vocab)
        np.testing.assert_allclose(np.linalg.norm(emb.vectors, axis=1), 1.0, atol=1e-12)

    def test_concatenate_then_normalize_oracle(self, rng):
        vocab = make_vocab([f"w{i}" for i in range(5)])
        model = random_model(rng, (5, 5, 5), 3)
        emb = extract_embeddings(model, vocab)
        concat = np.hstack([model.A, model.B, model.C])
        expect = concat / np.linalg.norm(concat, axis=1)[:, None]
        np.testing.assert_allclose(emb.vectors, expect, atol=1e-12)

    def test_dims_must_match_vocab(self, rng):
        model = random_model(rng, (4, 4, 4), 2)
        with pytest.raises(ValueError):
            extract_embeddings(model, make_vocab(["a", "b"]))


def embedding_from_rows(words, rows):
    rows = np.asarray(rows, dtype=float)
    rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    return EmbeddingMatrix(words=tuple(words), vectors=rows, valid=np.ones(len(words), bool))


class TestEvalSimilarity:
    def test_perfect_agreement(self):
        emb = embedding_from_rows(["a", "b", "c"], [[1, 0], [1, 0.2], [0, 1]])
        sim_ab = float(emb.vectors[0] @ emb.vectors[1])
        sim_ac = float(emb.vectors[0] @ emb.vectors[2])
        pairs = [("a", "b", 0.9), ("a", "c", 0.1), ("b", "c", 0.5)]
        # Human scores ranked like cosines -> correlation 1.
        sim_bc = float(emb.vectors[1] @ emb.vectors[2])
        order = np.argsort([sim_ab, sim_ac, sim_bc])
        scores = np.empty(3)
        scores[order] = [0.1, 0.5, 0.9]
        pairs = [("a", "b", scores[0]), ("a", "c", scores[1]), ("b", "c", scores[2])]
        result = eval_similarity(emb, pairs)
        assert result.correlation == pytest.approx(1.0)

    def test_reversed_ranks(self):
        emb = embedding_from_rows(["a", "b", "c", "d"], np.eye(4) + 0.1)
        sims = [
            (w1, w2, -float(emb.vectors[i] @ emb.vectors[j]))
            for (i, w1), (j, w2) in itertools.combinations(enumerate(emb.words), 2)
        ]
        result = eval_similarity(emb, sims)
        assert result.correlation == pytest.approx(-1.0)

    def test_hand_rank_correlation_oracle(self):
        emb = embedding_from_rows(
            ["a", "b", "c", "d", "e"],
            [[1, 0], [0.9, 0.1], [0.5, 0.5], [0.1, 0.9], [0, 1]],
        )
        pairs = [("a", "b", 3.0), ("a", "c", 2.0), ("a", "d", 2.5), ("a", "e", 1.0), ("b", "c", 2.2)]
        sims = [float(emb.vectors[emb.words.index(w1)] @ emb.vectors[emb.words.index(w2)]) for w1, w2, _ in pairs]
        scores = [s for _, _, s in pairs]

        def ranks(v):
            order = np.argsort(v)
            r = np.empty(len(v))
            r[order] = np.arange(len(v))
            return r

        rs, rh = ranks(sims), ranks(scores)
        expect = np.corrcoef(rs, rh)[0, 1]
        assert eval_similarity(emb, pairs).correlation == pytest.approx(expect)

    def test_skip_report(self):
        emb = embedding_from_rows(["a", "b", "c"], [[1, 0], [0.8, 0.6], [0.2, 0.98]])
        pairs = [("a", "b", 1.0), ("a", "zz", 2.0), ("b", "c", 3.0)]
        result = eval_similarity(emb, pairs)
        assert result.pairs_used == 2 and result.pairs_skipped == 1

    def test_constant_similarities_undefined(self):
        emb = embedding_from_rows(["a", "b", "c"], np.eye(3))
        with pytest.raises(UndefinedResultError):
            eval_similarity(emb, [("a", "b", 1.0), ("b", "c", 3.0)])

    def test_too_few_pairs(self):
        emb = embedding_from_rows(["a", "b"], np.eye(2))
        with pytest.raises(UndefinedResultError):
            eval_similarity(emb, [("a", "b", 1.0)])


class TestEvalAnalogy:
    def test_exact_parallelogram(self):
        # w(b*) == w(a*) - w(a) + w(b) by construction.
        base = {
            "king": [1.0, 1.0, 0.0],
            "queen": [1.0, 0.0, 1.0],
            "man": [0.5, 1.0, 0.0],
            "woman": [0.5, 0.0, 1.0],
            "filler": [0.2, 0.3, 0.9],
        }
        emb = embedding_from_rows(list(base), list(base.values()))
        result = eval_analogy(emb, [("man", "woman", "king", "queen")])
        assert result.accuracy == 1.0

    def test_out_of_vocab_skipped(self):
        emb = embedding_from_rows(["a", "b", "c", "d", "e"], np.eye(5))
        result = eval_analogy(emb, [("a", "b", "c", "d"), ("a", "b", "c", "zz")])
        assert result.quads_used == 1 and result.quads_skipped == 1

    def test_query_words_excluded(self):
        # Nearest neighbor of the query is the query word 'a*' itself;
        # exclusion forces the next best.
        rows = {"a": [1, 0, 0], "astar": [0, 1, 0], "b": [0.9, 0.1, 0], "bstar": [0.05, 1, 0.02], "x": [0, 0, 1]}
        emb = embedding_from_rows(list(rows), list(rows.values()))
        result = eval_analogy(emb, [("a", "astar", "b", "bstar")])
        assert result.accuracy == 1.0

    def test_chance_level_random_embeddings(self):
        rng = np.random.default_rng(5)
        v = 200
        words = [f"w{i}" for i in range(v)]
        emb = embedding_from_rows(words, rng.standard_normal((v, 8)))
        quads = [tuple(rng.choice(words, size=4, replace=False)) for _ in range(400)]
        result = eval_analogy(emb, quads)
        assert result.accuracy <= 0.05

    def test_empty_usable_set(self):
        emb = embedding_from_rows(["a", "b", "c", "d"], np.eye(4))
        with pytest.raises(UndefinedResultError):
            eval_analogy(emb, [("a", "b", "c", "zz")])
