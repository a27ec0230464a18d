import math

import numpy as np
import pytest

from tenfact.decompose import (
    DecompConfig,
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
from tenfact.errors import InvalidConfigError, NumericalFailureError
from tenfact.linalg import ls_solve_kr, match_factors
from tenfact.tensors import (
    CpModel,
    DenseTensor3,
    contract3,
    cp_reconstruct,
    khatri_rao,
    matricize,
    residual_ratio,
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
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 8)
        inits = [(model.A[:, r], model.B[:, r], model.C[:, r]) for r in range(3)]
        out = tpm_multi(t, n_inits=3, iters=5, rank=3, inits=inits)
        assert match_factors(model, out, 0.9).recovered_count == 3

    def test_batched_equals_sequential(self, rng):
        m = random_model(rng, (10, 10, 10), 3)
        t = cp_reconstruct(m)
        inits = [
            tuple(unit_columns(np.random.default_rng((55, i, mode)), 10, 1)[:, 0] for mode in range(3))
            for i in range(4)
        ]
        multi = tpm_multi(t, n_inits=4, iters=12, rank=4, inits=inits, cluster_threshold=1.1 - 1e-12)
        # cluster_threshold just above 1 keeps every restart as its own cluster
        # only if none coincide; compare against per-restart runs instead.
        singles = [tpm_run(t, *init, 12) for init in inits]
        single_ws = sorted(abs(w) for w, *_ in singles)
        multi_ws = sorted(np.abs(multi.weights))
        # Representatives are a subset of the single-run results.
        for wv in multi_ws:
            assert min(abs(wv - s) for s in single_ws) < 1e-10

    def test_requires_enough_inits(self, rng):
        _, t = diagonal_tensor([1.0], 4)
        with pytest.raises(ValueError):
            tpm_multi(t, n_inits=1, iters=3, rank=2)


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
