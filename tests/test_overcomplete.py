import numpy as np
import pytest

from tenfact.bench import SynthSpec, gen_random_cp
from tenfact.decompose import DecompConfig, hybrid_run
from tenfact.errors import NumericalFailureError
from tenfact.linalg import match_factors
from tenfact.overcomplete import deflate_overcomplete
from tenfact.tensors import (
    DenseTensor3,
    SparseTensor3,
    _working_form,
    cp_reconstruct,
    residual_ratio,
)

from conftest import random_model
from test_decompose import count_explicit, sparse_factor_model


def skewed_model(seed, d, r, consecutive_ratio=1.05):
    weights = consecutive_ratio ** (-np.arange(r, dtype=float))
    return random_model(np.random.default_rng(seed), (d, d, d), r, weights=weights)


class TestDeflateOvercomplete:
    def test_single_block_identical_to_inner(self):
        m = skewed_model((1, 0), 12, 8)
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=8, max_iters=40, seed=7)
        deflated = deflate_overcomplete(t, 8, cfg, inner="hybrid")
        direct = hybrid_run(t, cfg).model
        np.testing.assert_array_equal(deflated.weights, direct.weights)
        np.testing.assert_array_equal(deflated.A, direct.A)

    def test_exact_rank_d_terminates_first_block(self):
        m = skewed_model((2, 0), 10, 10)
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=10, max_iters=80, seed=3)
        out = deflate_overcomplete(t, 10, cfg, inner="hybrid")
        assert out.k == 10
        assert residual_ratio(t, out) < 1e-6

    def test_overcomplete_recovery_beats_dimension(self):
        d, r = 12, 16
        m = skewed_model((3, 0), d, r)
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=d, max_iters=80, seed=5)
        out = deflate_overcomplete(t, r, cfg, inner="hybrid")
        assert out.k == r
        assert match_factors(m, out, 0.9).recovered_count >= r - 2

    def test_block_residual_non_increasing(self):
        d = 10
        m = skewed_model((4, 0), d, 2 * d)
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=d, max_iters=60, seed=11)
        first = deflate_overcomplete(t, d, cfg, inner="hybrid")
        both = deflate_overcomplete(t, 2 * d, cfg, inner="hybrid")
        assert residual_ratio(t, both) <= residual_ratio(t, first) + 1e-12

    def test_partial_model_attached_on_failure(self, monkeypatch):
        m = skewed_model((5, 0), 8, 12)
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=8, max_iters=20, seed=2)

        calls = {"n": 0}
        from tenfact import overcomplete as oc

        real = oc._INNER_RUNNERS["hybrid"]

        def failing(tensor, inner_cfg):
            calls["n"] += 1
            if calls["n"] > 1:
                raise NumericalFailureError("synthetic block failure")
            return real(tensor, inner_cfg)

        monkeypatch.setitem(oc._INNER_RUNNERS, "hybrid", failing)
        with pytest.raises(NumericalFailureError) as err:
            deflate_overcomplete(t, 12, cfg, inner="hybrid")
        assert err.value.partial is not None
        assert err.value.partial.k == 8

    @pytest.mark.parametrize("inner", ["hybrid", "als"])
    def test_blocks_above_refine_level_read_only_the_gram_identity(self, inner, monkeypatch):
        """No block of a d = 30, r = 40 deflation fits below the refine
        level, so no sweep forms the model for an exact residual."""
        spec = SynthSpec(d=30, k=40, weight_scheme="geometric", weight_ratio=1.05**39, seed=0)
        _, t = gen_random_cp(spec)
        calls = count_explicit(monkeypatch)
        out = deflate_overcomplete(t, 40, DecompConfig(rank=30, max_iters=60, seed=0), inner=inner)
        assert out.k == 40
        assert calls == []

    def test_sparse_input_above_cap_deflates_without_dense_copy(self, monkeypatch):
        # Above the 4M-entry cap a sparse tensor stays sparse, and every block
        # past the first fits the implicit residual, so no dense copy exists.
        rng = np.random.default_rng(4)
        dims = (200, 200, 200)
        flat = rng.choice(dims[0] * dims[1] * dims[2], size=300, replace=False)
        idx = np.column_stack(np.unravel_index(flat, dims))
        sparse = SparseTensor3(dims, idx, rng.uniform(0.5, 2.0, 300))
        cfg = DecompConfig(rank=3, max_iters=20)

        def no_dense(tensor):
            raise AssertionError("a dense copy was formed")

        monkeypatch.setattr(SparseTensor3, "to_dense", no_dense)
        one = deflate_overcomplete(sparse, 3, cfg, block=3)
        two = deflate_overcomplete(sparse, 4, cfg, block=3)
        assert two.k == 4
        assert residual_ratio(sparse, two) <= residual_ratio(sparse, one)

    def test_sparse_input_needing_two_blocks_matches_dense(self, monkeypatch):
        """Under the cap the deflation forms one dense copy, which every block
        and refine sweep computes on, so a multi-block sparse deflation gives
        the dense one bit for bit."""
        dense = gen_random_cp(SynthSpec(d=6, k=8, seed=1))[1]
        idx = np.argwhere(np.ones(dense.dims, dtype=bool))
        sparse = SparseTensor3(dense.dims, idx, dense.array[tuple(idx.T)])
        cfg = DecompConfig(rank=6, max_iters=20)
        copies = []
        to_dense = SparseTensor3.to_dense
        monkeypatch.setattr(SparseTensor3, "to_dense", lambda s: copies.append(s) or to_dense(s))
        got = deflate_overcomplete(sparse, 8, cfg)
        assert len(copies) == 1
        expect = deflate_overcomplete(dense, 8, cfg)
        assert got.k == 8
        for g, e in zip((got.weights, *got.factors), (expect.weights, *expect.factors)):
            assert g.tobytes() == e.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("inner", ["hybrid", "als"])
    def test_low_density_sparse_matches_dense_in_short_fits(self, inner, seed):
        """A sparse tensor below the density threshold deflates on the fiber
        kernel, its dense copy on the dense one; with 10 sweeps per block the
        models agree to about 1e-6.  This checks the kernels, not the
        optimum: the two differ in the last bits from the first sweep, and
        long fits, or fits whose QR step re-randomizes degenerate columns, let
        that grow until the two reach different optima (at 24^3, rank 30,
        about 5% stored, even the first block's fits part after two sweeps)."""
        rng = np.random.default_rng(seed)
        dims = (16, 18, 20)
        exact = cp_reconstruct(sparse_factor_model(rng, dims, 6)).array
        idx = np.argwhere(exact != 0.0)
        vals = exact[tuple(idx.T)] * (1.0 + 1e-3 * rng.standard_normal(len(idx)))
        sparse = SparseTensor3(dims, idx, vals)
        assert _working_form(sparse) is sparse
        cfg = DecompConfig(rank=2, max_iters=10, tol=1e-300, seed=seed)
        got = deflate_overcomplete(sparse, 6, cfg, block=2, inner=inner)
        expect = deflate_overcomplete(sparse.to_dense(), 6, cfg, block=2, inner=inner)
        assert got.k == expect.k == 6
        np.testing.assert_allclose(got.weights, expect.weights, rtol=1e-6)
        for g, e in zip(got.factors, expect.factors):
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-6)

    def test_validates_arguments(self):
        t = DenseTensor3.zeros((4, 4, 4))
        with pytest.raises(ValueError):
            deflate_overcomplete(t, 0)
        with pytest.raises(ValueError):
            deflate_overcomplete(t, 4, inner="other")
