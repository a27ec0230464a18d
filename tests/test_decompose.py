import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfact import decompose, tensors
from tenfact.decompose import (
    ALGORITHMS,
    ALS_RUNNERS,
    DecompConfig,
    _Deflated,
    _Workspace,
    als_run,
    als_sweep,
    beta_bound,
    hybrid_run,
    orth_als_run,
    orth_tpm_run,
    simdiag,
    svd_init,
    tpm_correlation_trace,
    tpm_multi,
    tpm_run,
)
from tenfact.errors import InvalidConfigError, NumericalFailureError, TenfactError
from tenfact.linalg import ls_solve_kr, match_factors
from tenfact.tensors import (
    CpModel,
    DenseTensor3,
    SparseTensor3,
    contract3,
    cp_reconstruct,
    khatri_rao,
    matricize,
    mttkrp,
    residual_ratio,
    _working_form,
)

from conftest import diagonal_tensor, random_model, random_sparse, unit_columns


class TestAlsSweep:
    def test_fixed_point_at_truth(self, rng):
        m = random_model(rng, (5, 5, 5), 2)
        t = cp_reconstruct(m)
        a1, b1, c1 = als_sweep(t, m.A * m.weights, m.B, m.C)
        np.testing.assert_allclose(a1, m.A * m.weights, atol=1e-8)
        np.testing.assert_allclose(b1, m.B, atol=1e-8)
        np.testing.assert_allclose(c1, m.C, atol=1e-8)

    def test_zero_tensor_gives_zero_factors(self, rng):
        t = DenseTensor3.zeros((4, 4, 4))
        a1, b1, c1 = als_sweep(t, unit_columns(rng, 4, 2), unit_columns(rng, 4, 2), unit_columns(rng, 4, 2))
        for f in (a1, b1, c1):
            assert not f.any()

    def test_matches_matricized_ls_updates(self, rng):
        t = DenseTensor3(rng.standard_normal((4, 7, 5)))
        a, b, c = (rng.standard_normal((d, 3)) for d in t.dims)
        a1 = ls_solve_kr(matricize(t, 1), b, c)
        b1 = ls_solve_kr(matricize(t, 2), a1, c)
        c1 = ls_solve_kr(matricize(t, 3), a1, b1)
        for got, expect in zip(als_sweep(t, a, b, c), (a1, b1, c1)):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    def test_sweep_never_increases_residual(self, rng):
        m = random_model(rng, (4, 4, 4), 2)
        t = cp_reconstruct(m)
        a = unit_columns(rng, 4, 2)
        b = unit_columns(rng, 4, 2)
        c = unit_columns(rng, 4, 2)
        before = np.linalg.norm(matricize(t, 3) - c @ khatri_rao(b, a).T)
        a1, b1, c1 = als_sweep(t, a, b, c)
        after = np.linalg.norm(matricize(t, 3) - c1 @ khatri_rao(b1, a1).T)
        assert after <= before + 1e-12


class TestAlsRun:
    def test_truth_init_stays_exact(self, rng):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 8)
        cfg = DecompConfig(
            rank=3, max_iters=10, seed=0, init="given",
            given=(model.A, model.B, model.C), record_trace=True,
        )
        result = als_run(t, cfg)
        assert (result.residual_trace < 1e-10).all()
        assert residual_ratio(t, result.model) < 1e-10

    def test_residual_trace_non_increasing(self, rng):
        for seed in range(5):
            m = random_model(np.random.default_rng(seed), (8, 8, 8), 3)
            t = cp_reconstruct(m)
            result = als_run(t, DecompConfig(rank=3, max_iters=40, seed=seed, record_trace=True))
            tr = result.residual_trace
            assert (np.diff(tr) <= 1e-12).all()

    def test_trace_length_matches_iterations(self, rng):
        m = random_model(rng, (6, 6, 6), 2)
        result = als_run(cp_reconstruct(m), DecompConfig(rank=2, max_iters=7, tol=1e-300, record_trace=True))
        assert result.iterations_used == 7
        assert len(result.residual_trace) == 7


    def test_singular_grams_match_pinv_reference(self, rng, monkeypatch):
        """Every Gram of this fit is singular, so every solve is the old pinv one."""
        m = random_model(rng, (8, 8, 8), 1)
        t = cp_reconstruct(m)
        given = tuple(np.repeat(unit_columns(rng, 8, 1), 3, axis=1) for _ in range(3))
        cfg = DecompConfig(
            rank=3, max_iters=15, tol=1e-300, init="given", given=given, record_trace=True
        )
        got = als_run(t, cfg)
        monkeypatch.setattr(
            decompose,
            "_gram_solve",
            lambda mtt, p, q, rcond=1e-12: mtt @ np.linalg.pinv((q.T @ q) * (p.T @ p), rcond=rcond),
        )
        expect = als_run(t, cfg)
        assert got.iterations_used == expect.iterations_used
        np.testing.assert_array_equal(got.residual_trace, expect.residual_trace)
        np.testing.assert_array_equal(got.model.weights, expect.model.weights)
        for g, e in zip(got.model.factors, expect.model.factors):
            np.testing.assert_array_equal(g, e)


    def test_zeroed_column_keeps_weight_zero(self):
        """The mode-1 solve zeroes column 1; as unnormalized, it stays zero in
        the sweep's other solves, so column 0 keeps the tensor's weight 3."""
        arr = np.zeros((4, 4, 4))
        arr[0, 0, 0] = 3.0
        a = np.array([[0.6, 0.8], [0.8, -0.6], [0.0, 0.0], [0.0, 0.0]])
        bc = np.eye(4)[:, :2]
        cfg = DecompConfig(rank=2, max_iters=1, init="given", given=(a, bc, bc))
        result = als_run(DenseTensor3(arr), cfg)
        np.testing.assert_allclose(result.model.weights, [3.0, 0.0], rtol=0, atol=1e-15)


class TestOrthAlsRun:
    def test_diagonal_exact_recovery(self):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 10)
        result = orth_als_run(t, DecompConfig(rank=3, max_iters=50, seed=1, record_trace=True))
        assert residual_ratio(t, result.model) < 1e-10
        np.testing.assert_allclose(np.sort(result.model.weights)[::-1], [3.0, 2.0, 1.0], atol=1e-8)
        assert match_factors(model, result.model, 0.9).recovered_count == 3

    def test_skewed_small_instance(self):
        weights = 100.0 ** (-np.arange(3) / 2.0)
        m = random_model(np.random.default_rng((11, 0)), (10, 10, 10), 3, weights=weights)
        t = cp_reconstruct(m)
        result = orth_als_run(t, DecompConfig(rank=3, max_iters=60, seed=0))
        assert match_factors(m, result.model, 0.9).recovered_count == 3
        # Per-iteration orthogonalization keeps perturbing the fit, so the
        # exact-reconstruction check belongs to the hybrid variant.
        refined = hybrid_run(t, DecompConfig(rank=3, max_iters=60, seed=0))
        assert match_factors(m, refined.model, 0.9).recovered_count == 3
        assert residual_ratio(t, refined.model) < 1e-6

    def test_rank_above_dimension_rejected(self):
        _, t = diagonal_tensor([1.0], 4)
        with pytest.raises(InvalidConfigError, match="deflate"):
            orth_als_run(t, DecompConfig(rank=5))

    def test_degenerate_init_rerandomized(self):
        model, t = diagonal_tensor([2.0, 1.0], 6)
        col = unit_columns(np.random.default_rng(0), 6, 1)
        dup = np.hstack([col, col])
        cfg = DecompConfig(rank=2, max_iters=40, seed=3, init="given", given=(dup, dup, dup))
        result = orth_als_run(t, cfg)
        assert match_factors(model, result.model, 0.9).recovered_count == 2

    def test_rerandomization_schedule_still_converges(self):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 10)
        cfg = DecompConfig(rank=3, max_iters=60, seed=4, rerandomize_period=4)
        result = orth_als_run(t, cfg)
        assert match_factors(model, result.model, 0.9).recovered_count == 3

    def test_factor_convergence_steps_recorded(self):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 10)
        result = orth_als_run(t, DecompConfig(rank=3, max_iters=50, seed=1, record_trace=True))
        steps = result.factor_convergence_steps
        assert steps is not None and steps.shape == (3,)
        assert (steps >= 1).all() and (steps <= result.iterations_used).all()

    @pytest.mark.parametrize("runner", [orth_als_run, hybrid_run])
    @pytest.mark.parametrize("sweeps", [1, 3])
    def test_sparse_fit_runs_three_mttkrps_per_sweep(self, rng, monkeypatch, runner, sweeps):
        """The final weights are read from the last sweep's mode-3 MTTKRP, so
        an orthogonalized fit of ``sweeps`` sweeps on a tensor that stays
        sparse runs three fiber MTTKRPs per sweep and no more."""
        t = random_sparse(rng, (20, 21, 22), 400)
        assert _working_form(t) is t
        calls = []
        real = decompose._fiber_mttkrp
        monkeypatch.setattr(
            decompose, "_fiber_mttkrp", lambda plan, p, q: calls.append(plan) or real(plan, p, q)
        )
        result = runner(t, DecompConfig(rank=3, max_iters=sweeps, tol=1e-300, seed=2))
        assert result.iterations_used == sweeps
        assert len(calls) == 3 * sweeps

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_weights_are_full_contractions_of_the_returned_factors(self, rng, fmt):
        dims = (12, 13, 14)
        if fmt == "dense":
            t = DenseTensor3(rng.standard_normal(dims))
        else:
            t = random_sparse(rng, dims, 150)
            assert _working_form(t) is t
        m = orth_als_run(t, DecompConfig(rank=4, max_iters=6, tol=1e-300, seed=1)).model
        expect = np.einsum("ir,ir->r", m.A, mttkrp(t, m.factors, 1))
        np.testing.assert_allclose(m.weights, expect, rtol=1e-12, atol=0)


class TestHybridRun:
    def test_s_zero_identical_to_als(self, rng):
        m = random_model(rng, (8, 8, 8), 3)
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=3, max_iters=15, tol=1e-300, seed=9, orth_steps=0, record_trace=True)
        r_hybrid = hybrid_run(t, cfg)
        r_als = als_run(t, cfg)
        np.testing.assert_array_equal(r_hybrid.residual_trace, r_als.residual_trace)
        np.testing.assert_array_equal(r_hybrid.model.weights, r_als.model.weights)
        np.testing.assert_array_equal(r_hybrid.model.A, r_als.model.A)

    def test_s_equal_n_identical_to_orth_als(self, rng):
        m = random_model(rng, (8, 8, 8), 3)
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=3, max_iters=12, tol=1e-300, seed=9, orth_steps=12, record_trace=True)
        r_hybrid = hybrid_run(t, cfg)
        r_orth = orth_als_run(t, cfg)
        np.testing.assert_array_equal(r_hybrid.residual_trace, r_orth.residual_trace)
        np.testing.assert_array_equal(r_hybrid.model.A, r_orth.model.A)
        np.testing.assert_array_equal(r_hybrid.model.weights, r_orth.model.weights)


class TestDimensionTree:
    """A dense workspace keeps one partial ``T x_m F``, so that each
    tensor-sized GEMM serves two consecutive mode updates, across sweep
    boundaries too (Ma & Solomonik, IPDPS 2021)."""

    @staticmethod
    def count_partials(monkeypatch):
        formed = []
        real = tensors._dense_partial
        monkeypatch.setattr(
            tensors, "_dense_partial", lambda arr, mode, f: formed.append(mode) or real(arr, mode, f)
        )
        return formed

    def test_plain_sweeps_form_three_partials_per_two_sweeps(self, rng, monkeypatch):
        """1.5 tensor-sized GEMMs per plain sweep: modes 3 and 2 in odd
        sweeps, mode 1 in even ones; the parent took 2 per sweep."""
        t = DenseTensor3(rng.standard_normal((9, 10, 11)))
        formed = self.count_partials(monkeypatch)
        result = als_run(t, DecompConfig(rank=4, max_iters=12, tol=1e-300, seed=5))
        assert result.iterations_used == 12
        assert len(formed) <= 1 + 18
        assert formed == [3, 2, 1] * 6

    def test_orthogonalized_sweeps_form_two_partials_each(self, rng, monkeypatch):
        """QR changes every factor, so each sweep forms modes 3 and 2; the
        final weights come from the last sweep's mode-3 MTTKRP."""
        t = DenseTensor3(rng.standard_normal((9, 10, 11)))
        formed = self.count_partials(monkeypatch)
        result = orth_als_run(t, DecompConfig(rank=4, max_iters=12, tol=1e-300, seed=5))
        assert result.iterations_used == 12
        assert formed == [3, 2] * 12

    def test_svd_start_feeds_the_first_sweep(self, rng, monkeypatch):
        """The start's mode-3 solve forms mode 2's partial, which sweep 1's
        mode-1 update reuses."""
        t = DenseTensor3(rng.standard_normal((9, 10, 11)))
        formed = self.count_partials(monkeypatch)
        als_run(t, DecompConfig(rank=4, max_iters=2, tol=1e-300, seed=5, init="svd"))
        assert formed == [2, 1, 3, 2]

    def test_power_updates_form_no_mode_2_partial(self, rng, monkeypatch):
        """Each power iteration forms the partials of modes 1 and 3, single
        GEMMs, and the final weight one more of mode 3."""
        t = DenseTensor3(rng.standard_normal((9, 10, 11)))
        x, y, z = (unit_columns(rng, d, 1)[:, 0] for d in t.dims)
        formed = self.count_partials(monkeypatch)
        tpm_run(t, x, y, z, 4)
        assert formed == [1, 3] * 4 + [3]


def reference_explicit_ratio(ws, w, a, b, c):
    """The exact residual as one reconstruction and one difference, both fresh,
    and the sum of squares in numpy's own loop, as the tensor norm takes it."""
    diff = (ws.tensor.array.reshape(ws.dims[0], -1) - (a * w) @ khatri_rao(b, c).T).reshape(-1)
    return math.sqrt(np.einsum("i,i->", diff, diff)) / ws.tnorm


def count_explicit(monkeypatch):
    """Record the value of every ``_Workspace.explicit_ratio`` call from now on."""
    calls = []
    real = _Workspace.explicit_ratio

    def counted(ws, w, a, b, c):
        calls.append(real(ws, w, a, b, c))
        return calls[-1]

    monkeypatch.setattr(_Workspace, "explicit_ratio", counted)
    return calls


class TestExplicitResidual:
    """``_Workspace.explicit_ratio`` subtracts in a reused buffer, with the reference's bits."""

    def test_matches_reference_bits(self, rng):
        m = random_model(rng, (6, 7, 8), 3)
        t = DenseTensor3(cp_reconstruct(m).array + 1e-7 * rng.standard_normal((6, 7, 8)))
        before = t.array.copy()
        ws = _Workspace(t)
        # A near-exact model, where the cancellation happens, then a poor one.
        for model in (m, random_model(rng, (6, 7, 8), 3)):
            got = ws.explicit_ratio(model.weights, *model.factors)
            assert got == reference_explicit_ratio(ws, model.weights, *model.factors)
        np.testing.assert_array_equal(t.array, before)

    def test_hybrid_run_bits_match_reference(self, rng, monkeypatch):
        """An exact fit whose last sweeps, below ``_EXPLICIT_REFINE_LEVEL``,
        take the explicit residual, with the reference's bits."""
        m = random_model(rng, (30, 30, 30), 8)
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=8, max_iters=60, seed=3, record_trace=True)
        got = hybrid_run(t, cfg)
        monkeypatch.setattr(_Workspace, "explicit_ratio", reference_explicit_ratio)
        expect = hybrid_run(t, cfg)
        assert got.residual_trace[-1] < 1e-6
        assert got.iterations_used == expect.iterations_used
        np.testing.assert_array_equal(got.residual_trace, expect.residual_trace)
        np.testing.assert_array_equal(got.model.weights, expect.model.weights)
        for g, e in zip(got.model.factors, expect.model.factors):
            np.testing.assert_array_equal(g, e)

    def test_noisy_fit_reads_only_the_gram_identity(self, rng, monkeypatch):
        m = random_model(rng, (30, 30, 30), 8)
        arr = cp_reconstruct(m).array
        t = DenseTensor3(arr + 1e-3 * np.linalg.norm(arr) / 30**1.5 * rng.standard_normal(arr.shape))
        calls = count_explicit(monkeypatch)
        got = hybrid_run(t, DecompConfig(rank=8, max_iters=60, seed=3, record_trace=True))
        assert got.residual_trace.min() > decompose._EXPLICIT_REFINE_LEVEL
        assert calls == []

    def test_exact_fit_takes_exact_residual_below_refine_level(self, rng, monkeypatch):
        m = random_model(rng, (30, 30, 30), 8)
        calls = count_explicit(monkeypatch)
        got = hybrid_run(cp_reconstruct(m), DecompConfig(rank=8, max_iters=60, seed=3, record_trace=True))
        trace, n = got.residual_trace, len(calls)
        assert 0 < n < got.iterations_used
        assert trace[-n:].tolist() == calls
        assert (trace[:-n] >= decompose._EXPLICIT_REFINE_LEVEL).all()

    def test_later_calls_allocate_less_than_the_tensor(self, rng):
        """Only the first explicit residual of a run allocates a tensor-sized buffer."""
        t = DenseTensor3(rng.standard_normal((40, 40, 40)))
        m = random_model(rng, t.dims, 5)
        ws = _Workspace(t)
        ws.explicit_ratio(m.weights, *m.factors)
        tracemalloc.start()
        try:
            ws.explicit_ratio(m.weights, *m.factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.array.nbytes, peak


class TestDeflatedWorkspace:
    """``_Workspace(_Deflated(T, M))`` against a workspace on the formed ``T - M``,
    for a dense ``T`` and a sparse one that stays sparse; both have an exact
    residual (``explicit_ratio``) to compare."""

    @staticmethod
    def assert_close(got, expect):
        expect = np.asarray(expect)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_matches_formed_residual(self, rng, fmt):
        dims = (14, 15, 16)
        if fmt == "dense":
            t = DenseTensor3(rng.standard_normal(dims))
        else:
            # About 2% stored, so the workspace keeps the fiber kernel.
            t = random_sparse(rng, dims, round(0.02 * math.prod(dims)))
            assert _working_form(t) is t
        m = random_model(rng, dims, 5)
        implicit = _Workspace(_Deflated(t, m))
        dense_t = t if fmt == "dense" else t.to_dense()
        formed = _Workspace(DenseTensor3(dense_t.array - cp_reconstruct(m).array))
        assert implicit.dense == (fmt == "dense")
        self.assert_close(implicit.tnorm, formed.tnorm)
        fit = random_model(rng, dims, 3)
        for mode in (1, 2, 3):
            p, q = (f for i, f in enumerate(fit.factors) if i != mode - 1)
            self.assert_close(implicit.mttkrp(mode, p, q), formed.mttkrp(mode, p, q))
        v = rng.standard_normal(dims[2])
        self.assert_close(implicit.contract_mode3(v), formed.contract_mode3(v))
        got = implicit.explicit_ratio(fit.weights, *fit.factors)
        self.assert_close(got, formed.explicit_ratio(fit.weights, *fit.factors))

    @pytest.mark.parametrize("w3", [1e-3, 1e-5, 1e-7])
    def test_sparse_tnorm_is_exact_near_cancellation(self, w3):
        """Deflating a sparse rank-3 tensor by its two heavy components
        leaves a residual of norm about ``w3``, which the Gram identity
        ``||T||^2 - 2 <T, M> + ||M||^2`` would read with an error of order
        ``eps / w3``; ``tnorm`` forms it exactly instead."""
        base = sparse_factor_model(np.random.default_rng(40), (20, 20, 20), 3)
        arr = cp_reconstruct(CpModel([2.0, 1.0, w3], *base.factors)).array
        idx = np.argwhere(arr != 0.0)
        t = SparseTensor3(arr.shape, idx, arr[tuple(idx.T)])
        assert _working_form(t) is t
        m = CpModel([2.0, 1.0], *(f[:, :2] for f in base.factors))
        expect = np.linalg.norm(arr - cp_reconstruct(m).array)
        got = _Workspace(_Deflated(t, m)).tnorm
        assert abs(got - expect) <= 1e-12 * expect


class TestTpmRun:
    def test_diagonal_fixed_point(self):
        model, t = diagonal_tensor([3.0, 1.0], 6)
        e1 = np.eye(6)[:, 0]
        w, x, y, z = tpm_run(t, e1, e1, e1, 5)
        assert w == pytest.approx(3.0)
        for v in (x, y, z):
            np.testing.assert_allclose(np.abs(v), e1, atol=1e-12)

    def test_zero_update_raises(self):
        model, t = diagonal_tensor([2.0, 1.0], 5)
        e5 = np.eye(5)[:, 4]  # orthogonal to every component
        with pytest.raises(NumericalFailureError):
            tpm_run(t, e5, e5, e5, 3)

    def test_requires_unit_init(self, rng):
        _, t = diagonal_tensor([1.0], 4)
        with pytest.raises(ValueError):
            tpm_run(t, np.ones(4), np.ones(4) / 2.0, np.ones(4) / 2.0, 2)

    def test_random_tensor_converges_to_some_factor(self):
        m = random_model(np.random.default_rng(5), (50, 50, 50), 5, symmetric=True)
        t = cp_reconstruct(m)
        rng = np.random.default_rng(17)
        x0 = unit_columns(rng, 50, 1)[:, 0]
        w, x, y, z = tpm_run(t, x0, x0, x0, 30)
        errs = [
            min(np.linalg.norm(m.A[:, r] - s * x) for s in (-1.0, 1.0))
            for r in range(5)
        ]
        assert min(errs) < 0.2


class TestSquareLaw:
    def test_hand_sequence(self):
        # Diagonal weights (2, 1), equal initial correlations: the lighter
        # factor's ratio follows 0.5, 0.125, 0.0078125 after 1, 2, 3 steps.
        model, t = diagonal_tensor([2.0, 1.0], 5)
        x0 = np.zeros(5)
        x0[:2] = 1.0 / math.sqrt(2)
        trace = tpm_correlation_trace(t, model, 3, x0=x0)
        assert trace.target == 0
        np.testing.assert_allclose(trace.ratios[1, 1], 0.5, atol=1e-12)
        np.testing.assert_allclose(trace.ratios[2, 1], 0.125, atol=1e-12)
        np.testing.assert_allclose(trace.ratios[3, 1], 0.0078125, atol=1e-12)

    def test_square_law_random_diagonal(self):
        for seed in range(5):
            rng = np.random.default_rng((77, seed))
            w = rng.uniform(1.0, 2.0, 4)
            model, t = diagonal_tensor(w, 9)
            trace = tpm_correlation_trace(t, model, 4, seed=seed + 1)
            hat_w = w / w[trace.target]
            for step in range(4):
                predicted = hat_w * trace.ratios[step] ** 2
                np.testing.assert_allclose(trace.ratios[step + 1], predicted, atol=1e-10)


class TestWeightEstimateConsistency:
    def test_small_perturbation_small_weight_error(self):
        w = np.array([2.0, 1.5, 1.0])
        model, t = diagonal_tensor(w, 8)
        rng = np.random.default_rng(3)
        for eps in (1e-3, 1e-2, 5e-2):
            bump = rng.standard_normal(8)
            bump /= np.linalg.norm(bump)
            a_hat = model.A[:, 0] + eps * bump
            a_hat /= np.linalg.norm(a_hat)
            err = np.linalg.norm(model.A[:, 0] - a_hat)
            w_hat = contract3(t, a_hat, a_hat, a_hat)
            assert abs(1.0 - w_hat / w[0]) <= 4.0 * err


class TestTpmMulti:
    def test_diagonal_clusters_exact(self):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 8)
        out = tpm_multi(t, n_inits=30, iters=40, rank=3, seed=6)
        assert out.k == 3
        assert match_factors(model, out, 0.9).recovered_count == 3
        np.testing.assert_allclose(np.sort(out.weights)[::-1], [3.0, 2.0, 1.0], atol=1e-8)

    def test_true_factor_inits_reproduce_model(self):
        # The true factors of an orthogonal tensor are fixed points of the batch kernel.
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 8)
        w, xs, ys, zs, alive = decompose._power_kernel(_Workspace(t), *model.factors, 5)
        assert alive.all()
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0], atol=1e-12)
        assert match_factors(model, CpModel(w, xs, ys, zs), 0.9).recovered_count == 3

    def test_batched_equals_sequential(self, rng):
        m = random_model(rng, (10, 10, 10), 3)
        ws = _Workspace(cp_reconstruct(m))
        starts = [
            np.column_stack(
                [unit_columns(np.random.default_rng((55, i, mode)), 10, 1)[:, 0] for i in range(4)]
            )
            for mode in range(3)
        ]
        batch = decompose._power_kernel(ws, *starts, 12)
        for i in range(4):
            single = decompose._power_kernel(ws, *(s[:, [i]] for s in starts), 12)
            for got, want in zip(batch, single):
                np.testing.assert_allclose(got[..., i], want[..., 0], rtol=0, atol=1e-10)

    def test_requires_enough_inits(self, rng):
        _, t = diagonal_tensor([1.0], 4)
        with pytest.raises(ValueError):
            tpm_multi(t, n_inits=1, iters=3, rank=2)

    def test_unknown_init(self):
        _, t = diagonal_tensor([1.0], 4)
        with pytest.raises(InvalidConfigError, match="init"):
            tpm_multi(t, n_inits=2, iters=3, rank=1, init="bogus")


class TestOrthTpm:
    def test_diagonal_recovers_all(self):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 8)
        out = orth_tpm_run(t, 3, 40, seed=8)
        assert match_factors(model, out, 0.9).recovered_count == 3

    def test_k1_equals_tpm_run(self):
        model, t = diagonal_tensor([2.0, 1.0], 6)
        seed = 12
        out = orth_tpm_run(t, 1, 10, seed=seed)
        rng = np.random.default_rng(seed)
        draws = [unit_columns(rng, 6, 1)[:, 0] for _ in range(3)]
        w, x, y, z = tpm_run(t, *draws, 10)
        canon = CpModel(np.array([w]), x[:, None], y[:, None], z[:, None]).canonical()
        np.testing.assert_allclose(out.weights, canon.weights, atol=1e-12)
        np.testing.assert_allclose(out.A, canon.A, atol=1e-12)

    def test_random_instance_full_recovery(self):
        m = random_model(np.random.default_rng((21, 0)), (50, 50, 50), 10, weights=np.ones(10))
        t = cp_reconstruct(m)
        out = orth_tpm_run(t, 10, 40, seed=0)
        assert match_factors(m, out, 0.9).recovered_count == 10


class TestSvdInit:
    def test_diagonal_gives_axes(self):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 6)
        a0, b0, c0 = svd_init(t, 3, seed=2)
        # Columns are coordinate axes up to sign and permutation.
        for col in a0.T:
            assert np.sort(np.abs(col))[-1] == pytest.approx(1.0, abs=1e-9)
        assert match_factors(model, CpModel(np.ones(3), a0, b0, c0).canonical(), 0.9).recovered_count == 3

    def test_rank1_recovers_leading_factor(self, rng):
        m = random_model(rng, (6, 6, 6), 1)
        t = cp_reconstruct(m)
        a0, _, _ = svd_init(t, 1, seed=0)
        assert abs(a0[:, 0] @ m.A[:, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_downstream_als_converges(self):
        m = random_model(np.random.default_rng((9, 0)), (20, 20, 20), 4, weights=np.ones(4))
        t = cp_reconstruct(m)
        result = als_run(t, DecompConfig(rank=4, max_iters=100, seed=0, init="svd"))
        assert residual_ratio(t, result.model) < 1e-4

    def test_rank_padding_logged(self, rng, caplog):
        m = random_model(rng, (6, 6, 6), 1)  # projection has rank 1
        t = cp_reconstruct(m)
        import logging

        with caplog.at_level(logging.WARNING, logger="tenfact.decompose"):
            a0, b0, c0 = svd_init(t, 3, seed=1)
        assert a0.shape == (6, 3)
        assert any("padding" in r.message for r in caplog.records)


class TestSimdiag:
    def test_noiseless_recovery_oracle(self):
        for seed in range(3):
            m = random_model(np.random.default_rng((42, seed)), (10, 10, 10), 5)
            t = cp_reconstruct(m)
            out = simdiag(t, 5, seed=seed)
            result = match_factors(m, out, 0.9)
            assert result.recovered_count == 5
            assert residual_ratio(t, out) < 1e-6

    def test_rank1_exact(self, rng):
        m = random_model(rng, (6, 6, 6), 1)
        t = cp_reconstruct(m)
        out = simdiag(t, 1, seed=0)
        assert abs(out.A[:, 0] @ m.A[:, 0]) == pytest.approx(1.0, abs=1e-8)
        assert out.weights[0] == pytest.approx(m.weights[0], rel=1e-8)

    def test_rank_above_dims_rejected(self):
        _, t = diagonal_tensor([1.0], 4)
        with pytest.raises(ValueError):
            simdiag(t, 5)


class TestBetaBound:
    def test_cmax_zero_is_pure_squaring(self):
        out = beta_bound(0.7, 1.5, 10, 0.0, 6)
        np.testing.assert_allclose(out, 0.7 ** (2 ** np.arange(7)))

    def test_beta0_zero_fixed_scale(self):
        gamma, cmax = 1.5, 1e-3
        out = beta_bound(0.0, gamma, 10, cmax, 5)
        assert out[0] == 0.0
        for value in out[1:]:
            assert value == pytest.approx(gamma * cmax, rel=1e-2)

    def test_direct_iteration_oracle(self):
        beta0, gamma, k, cmax = 0.9, 1.0, 30, 1e-4
        out = beta_bound(beta0, gamma, k, cmax, 5)
        b = beta0
        for t in range(1, 6):
            b = gamma * cmax + b * b + 3 * gamma * k * cmax * b * b
            assert out[t] == pytest.approx(b, rel=1e-15)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            beta_bound(1.0, 1.0, 3, 0.0, 2)
        with pytest.raises(ValueError):
            beta_bound(0.5, 0.5, 3, 0.0, 2)


class TestPermutationEquivariance:
    def test_relabeling_does_not_change_recovery(self):
        rng = np.random.default_rng(31)
        m = random_model(rng, (12, 12, 12), 4, weights=np.array([4.0, 3.0, 2.0, 1.0]))
        t = cp_reconstruct(m)
        cfg = DecompConfig(rank=4, max_iters=60, seed=77)
        base = orth_als_run(t, cfg)
        perm = np.array([2, 0, 3, 1])
        m_perm = m.permuted(perm)
        # Same tensor, same seed: only the labeling in matching changes.
        np.testing.assert_allclose(cp_reconstruct(m_perm).array, t.array, atol=1e-12)
        again = orth_als_run(t, cfg)
        assert (
            match_factors(m, base.model, 0.9).recovered_count
            == match_factors(m_perm, again.model, 0.9).recovered_count
        )


class TestConfigValidation:
    def test_bad_rank(self):
        with pytest.raises(InvalidConfigError):
            DecompConfig(rank=0)

    def test_bad_tol(self):
        with pytest.raises(InvalidConfigError):
            DecompConfig(rank=1, tol=0.0)

    def test_given_requires_factors(self):
        with pytest.raises(InvalidConfigError):
            DecompConfig(rank=1, init="given")

    @pytest.mark.parametrize("run", [als_run, hybrid_run])
    def test_given_factor_shapes_checked(self, run, rng):
        m = random_model(rng, (6, 6, 6), 3)
        t = cp_reconstruct(m)
        a, b, c = m.factors
        too_few_columns = (a[:, :2], b[:, :2], c[:, :2])
        too_few_rows = (a[:4], b, c)
        for given in (too_few_columns, too_few_rows):
            with pytest.raises(InvalidConfigError, match="given"):
                run(t, DecompConfig(rank=3, init="given", given=given))

    def test_bad_orth_mode(self):
        with pytest.raises(InvalidConfigError):
            DecompConfig(rank=1, orth_mode="sometimes")


# Library calls outside the registry, each with a rank below 1 or a negative count.
BAD_COUNTS = {
    "tpm_multi rank -1": (lambda m, t: tpm_multi(t, 4, 3, rank=-1), "rank must be >= 1, got -1"),
    "tpm_multi rank 0": (lambda m, t: tpm_multi(t, 4, 3, rank=0), "rank must be >= 1, got 0"),
    "tpm_multi iters": (lambda m, t: tpm_multi(t, 4, -2, rank=1), "iters must be >= 0, got -2"),
    "orth_tpm_run rank": (lambda m, t: orth_tpm_run(t, 0, 3), "rank must be >= 1, got 0"),
    "orth_tpm_run iters": (lambda m, t: orth_tpm_run(t, 1, -1), "iters must be >= 0, got -1"),
    "simdiag rank": (lambda m, t: simdiag(t, 0), "rank must be >= 1, got 0"),
    "svd_init rank": (lambda m, t: svd_init(t, 0), "rank must be >= 1, got 0"),
    "tpm_run iters": (lambda m, t: tpm_run(t, m.A[:, 0], m.B[:, 0], m.C[:, 0], -5), "iters must be >= 0, got -5"),
    "beta_bound steps": (lambda m, t: beta_bound(0.5, 1.0, 3, 0.0, -1), "steps must be >= 0, got -1"),
    "trace steps": (lambda m, t: tpm_correlation_trace(t, m, -1), "steps must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", list(BAD_COUNTS))
def test_rank_below_one_and_negative_counts_rejected(case):
    call, message = BAD_COUNTS[case]
    model, t = diagonal_tensor([3.0, 2.0, 1.0], 5)
    with pytest.raises(InvalidConfigError, match=f"^{message}$"):
        call(model, t)


def registry_outcomes(name, tensors, cfg):
    """The registry entry's result on each tensor, or the type of the typed error it raised."""
    outcomes = []
    for t in tensors:
        try:
            outcomes.append(ALGORITHMS[name](t, cfg, 8))
        except TenfactError as exc:
            outcomes.append(type(exc))
    return outcomes


# The starts each registry entry takes, of every ``init`` DecompConfig accepts.
ENTRY_INITS = {
    **{name: ("random", "svd", "given") for name in ALS_RUNNERS},
    "tpm": ("random", "svd"),
    "orth-tpm": ("random",),
    "simdiag": ("random",),
}


class TestRegistryContract:
    """Every entry is ``run(tensor, cfg, n_inits)``: it checks the start it
    is given, and only the ALS entries record a trace."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return cp_reconstruct(random_model(np.random.default_rng(41), (6, 7, 8), 3))

    def test_every_entry_is_covered(self):
        assert set(ENTRY_INITS) == set(ALGORITHMS)

    @pytest.mark.parametrize("init", ["random", "svd", "given"])
    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_rejects_every_start_it_cannot_take(self, tensor, name, init):
        rng = np.random.default_rng(7)
        given = tuple(unit_columns(rng, d, 3) for d in tensor.dims)
        cfg = DecompConfig(rank=3, max_iters=10, init=init, given=given)
        if init in ENTRY_INITS[name]:
            assert ALGORITHMS[name](tensor, cfg, 8).model.dims == tensor.dims
        else:
            with pytest.raises(InvalidConfigError, match=f"^{name} takes init in "):
                ALGORITHMS[name](tensor, cfg, 8)

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_trace_only_from_als_entries(self, tensor, name):
        cfg = DecompConfig(rank=3, max_iters=10, record_trace=True)
        result = ALGORITHMS[name](tensor, cfg, 8)
        if name in ALS_RUNNERS:
            assert len(result.residual_trace) == result.iterations_used
        else:
            assert result.residual_trace is None


class TestDenseSparseEquivalence:
    """A sparse tensor and its dense copy give the same model for the same seed."""

    @pytest.fixture(scope="class")
    def pair(self):
        sparse = random_sparse(np.random.default_rng(31), (6, 8, 7), 120)
        return sparse, sparse.to_dense()

    @staticmethod
    def assert_same_model(got, expect):
        np.testing.assert_allclose(
            got.weights, expect.weights, rtol=0, atol=1e-9 * np.abs(expect.weights).max()
        )
        for g, e in zip(got.factors, expect.factors):
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("init", ["random", "svd"])
    @pytest.mark.parametrize("runner", [als_run, orth_als_run, hybrid_run])
    def test_als_family(self, pair, runner, init):
        cfg = DecompConfig(rank=4, max_iters=15, tol=1e-300, init=init, seed=5)
        sparse, dense = (runner(t, cfg) for t in pair)
        assert sparse.iterations_used == dense.iterations_used == 15
        self.assert_same_model(sparse.model, dense.model)

    @pytest.mark.parametrize("init", ["random", "svd"])
    def test_tpm_multi(self, pair, init):
        sparse, dense = (tpm_multi(t, 12, 15, 4, seed=5, init=init) for t in pair)
        assert sparse.k == dense.k
        self.assert_same_model(sparse, dense)

    def test_orth_tpm(self, pair):
        sparse, dense = (orth_tpm_run(t, 4, 15, seed=5) for t in pair)
        self.assert_same_model(sparse, dense)

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    @settings(max_examples=25)
    @given(
        dims=st.tuples(st.integers(4, 8), st.integers(4, 8), st.integers(4, 8)),
        data=st.data(),
    )
    def test_every_registry_entry(self, name, dims, data):
        k = data.draw(st.integers(1, min(dims) - 1), label="k")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        dense = cp_reconstruct(random_model(np.random.default_rng(seed), dims, k))
        idx = np.argwhere(np.ones(dims, dtype=bool))
        sparse = SparseTensor3(dims, idx, dense.array[tuple(idx.T)])
        cfg = DecompConfig(rank=k, max_iters=10, seed=seed)
        got, expect = registry_outcomes(name, (sparse, dense), cfg)
        if isinstance(expect, type) or isinstance(got, type):
            assert got is expect
        else:
            self.assert_same_model(got.model, expect.model)

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_dense_enough_sparse_input_gives_dense_bits(self, pair, name):
        """Above the density threshold the workspace runs the dense copy,
        so the result is bitwise that of the dense input."""
        sparse, dense = pair
        assert _working_form(sparse) is not sparse
        cfg = DecompConfig(rank=3, max_iters=15, tol=1e-300, seed=5)
        got, expect = registry_outcomes(name, pair, cfg)
        if isinstance(expect, type) or isinstance(got, type):
            assert got is expect
            return
        assert got.iterations_used == expect.iterations_used
        for g, e in zip((got.model.weights, *got.model.factors), (expect.model.weights, *expect.model.factors)):
            assert g.tobytes() == e.tobytes()


def sparse_factor_model(rng, dims, k, share=0.25):
    """A CP model whose unit columns each have ``share`` of their entries nonzero.

    Row 0 is nonzero in every column, so that the sign rule of
    ``CpModel.canonical`` reads a true entry, not roundoff at a zero one.
    """
    factors = []
    for d in dims:
        f = np.zeros((d, k))
        for r in range(k):
            rows = np.append(0, 1 + rng.choice(d - 1, round(share * d) - 1, replace=False))
            f[rows, r] = rng.standard_normal(rows.size)
        factors.append(f / np.linalg.norm(f, axis=0))
    return CpModel(rng.uniform(0.5, 2.0, k), *factors)


class TestDenseSparseEquivalenceLowDensity(TestDenseSparseEquivalence):
    """The same equivalences on tensors about 2% stored, below the density
    threshold, so the sparse side runs the fiber kernel."""

    @pytest.fixture(scope="class")
    def pair(self):
        sparse = random_sparse(np.random.default_rng(32), (24, 20, 28), 270)
        assert _working_form(sparse) is sparse
        return sparse, sparse.to_dense()

    # The dense bits need the dense copy; below the threshold there is none.
    test_dense_enough_sparse_input_gives_dense_bits = None

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    @settings(max_examples=25)
    @given(
        dims=st.tuples(st.integers(20, 30), st.integers(20, 30), st.integers(20, 30)),
        data=st.data(),
    )
    def test_every_registry_entry(self, name, dims, data):
        k = data.draw(st.integers(1, 3), label="k")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        exact = cp_reconstruct(sparse_factor_model(rng, dims, k)).array
        # The stored entries carry 0.1% noise, so that no fit is exact: near
        # an exact fit the relative-change stop rule reads roundoff, in which
        # the fiber and GEMM kernels differ, and the two runs may stop a
        # sweep apart.
        idx = np.argwhere(exact != 0.0)
        vals = exact[tuple(idx.T)] * (1.0 + 1e-3 * rng.standard_normal(len(idx)))
        sparse = SparseTensor3(dims, idx, vals)
        dense = sparse.to_dense()
        assert _working_form(sparse) is sparse
        cfg = DecompConfig(rank=k, max_iters=10, tol=1e-300, seed=seed)
        got, expect = registry_outcomes(name, (sparse, dense), cfg)
        if isinstance(expect, type) or isinstance(got, type):
            assert got is expect
        elif name == "tpm":
            # Restarts that reach one component tie in weight to the last
            # bits, and which of them heads its cluster may differ between
            # the kernels; such heads agree to about 1e-8.
            got, expect = got.model, expect.model
            np.testing.assert_allclose(
                got.weights, expect.weights, rtol=0, atol=1e-9 * np.abs(expect.weights).max()
            )
            for g, e in zip(got.factors, expect.factors):
                np.testing.assert_allclose(g, e, rtol=0, atol=1e-6)
        else:
            self.assert_same_model(got.model, expect.model)


class TestSparseExactFit:
    """A sparse tensor that stays sparse reads the exact residual below
    ``_EXPLICIT_REFINE_LEVEL``, as its dense copy does, so an exact fit is
    not cut short by the Gram identity cancelling to 0.0."""

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_like_its_dense_copy(self, seed):
        exact = cp_reconstruct(sparse_factor_model(np.random.default_rng(seed), (20, 20, 20), 2))
        idx = np.argwhere(exact.array != 0.0)
        sparse = SparseTensor3(exact.dims, idx, exact.array[tuple(idx.T)])
        assert _working_form(sparse) is sparse
        cfg = DecompConfig(rank=2, max_iters=100, tol=1e-300, seed=0, record_trace=True)
        got, expect = als_run(sparse, cfg), als_run(exact, cfg)
        assert got.iterations_used == expect.iterations_used
        assert got.residual_trace[-1] < 1e-13


# Prints one SHA-256 per dense d=100, k=30 ALS-family model: the paper's
# ratio-100 instance, 40 sweeps, random and SVD starts.
_DENSE_FIT_PROBE = """
import hashlib
import numpy as np
from tenfact.bench import SynthSpec, gen_random_cp
from tenfact.decompose import ALS_RUNNERS, DecompConfig

spec = SynthSpec(d=100, k=30, weight_scheme="geometric", weight_ratio=100.0, seed=1)
_, tensor = gen_random_cp(spec)
for init in ("random", "svd"):
    for name in ("als", "orth-als", "hybrid"):
        m = ALS_RUNNERS[name](tensor, DecompConfig(rank=30, max_iters=40, tol=1e-300, seed=2, init=init)).model
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(x).tobytes() for x in (m.weights, *m.factors)))
        print(name, init, digest.hexdigest())
"""


def test_dense_fits_do_not_depend_on_blas_threads():
    """The README's promise that the d=100, k=30 dense fits keep their bits
    at 1 and 2 OpenBLAS threads; deflation and completion are its
    documented exceptions."""
    src = str(Path(decompose.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _DENSE_FIT_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 6
    assert outputs[0] == outputs[1]
