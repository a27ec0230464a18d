import math

import numpy as np
import pytest

from tenfact.bench import SynthSpec, derived_seed, gen_random_cp
from tenfact.completion import (
    MAX_COLUMN_REDRAWS,
    CompletionProblem,
    _RowSolver,
    complete_masked,
    missing_entry_error,
    sample_completion_problem,
)
from tenfact.decompose import DecompConfig, hybrid_run
from tenfact.errors import InvalidConfigError
from tenfact.fileio import _parse_coo
from tenfact.tensors import CpModel, DenseTensor3, SparseTensor3, cp_reconstruct, residual_ratio

from conftest import diagonal_tensor, random_model


def full_problem(tensor):
    return sample_completion_problem(tensor, 1.0, seed=0)


class TestCompletionProblem:
    def test_rejects_duplicate_indices(self):
        obs = SparseTensor3.from_entries((2, 2, 2), [(0, 0, 0, 1.0)])
        with pytest.raises(ValueError):
            CompletionProblem(dims=(2, 2, 2), observed=obs, zero_entries=np.array([[0, 0, 0]]))

    def test_zero_entries_tracked_separately(self, rng):
        t = cp_reconstruct(random_model(rng, (3, 3, 3), 1))
        arr = np.array(t.array)
        arr[0, 0, 0] = 0.0
        t = DenseTensor3(arr)
        prob = sample_completion_problem(t, 1.0, seed=0)
        assert prob.zero_entries.shape[0] == 1
        assert prob.n_observed == 27
        assert prob.observed_mask().all()

    def test_sampling_probability_validated(self, rng):
        t = cp_reconstruct(random_model(rng, (3, 3, 3), 1))
        with pytest.raises(ValueError):
            sample_completion_problem(t, 0.0)


class TestRowSolver:
    def test_solve_mode_matches_per_row_oracle(self, rng):
        dims = (4, 7, 5)
        entries = [
            (0, 0, 0, 1.5), (0, 1, 2, -0.5), (0, 3, 4, 2.0), (0, 6, 1, 0.0),
            (1, 2, 3, 0.7),  # mode-1 row 1: a single observation
            (3, 0, 4, -1.2), (3, 5, 0, 0.0), (3, 4, 2, 0.9), (3, 6, 3, 0.3),
            (0, 2, 3, 1.1), (3, 1, 1, -0.8), (0, 5, 4, 0.4),
        ]  # mode-1 row 2 has no observations
        arr = np.array(entries)
        idx, vals = arr[:, :3].astype(np.int64), arr[:, 3]
        nonzero = vals != 0.0
        prob = CompletionProblem(
            dims=dims,
            observed=SparseTensor3(dims, idx[nonzero], vals[nonzero]),
            zero_entries=idx[~nonzero],
        )
        idx, vals = prob.all_indices(), prob.all_values()
        solver = _RowSolver(idx, vals, dims)
        ridge = 1e-3
        factors = [rng.standard_normal((d, 3)) for d in dims]
        for mode in (1, 2, 3):
            m = mode - 1
            other = [o for o in (0, 1, 2) if o != m]
            p, q, current = factors[other[0]], factors[other[1]], factors[m]
            got = solver.solve_mode(mode, p, q, current, ridge)
            for row in range(dims[m]):
                sel = idx[:, m] == row
                if not sel.any():
                    assert (got[row] == current[row]).all()
                    continue
                e = p[idx[sel, other[0]]] * q[idx[sel, other[1]]]
                gram = e.T @ e + ridge * np.eye(3)
                want = np.linalg.solve(gram, e.T @ vals[sel])
                np.testing.assert_allclose(got[row], want, rtol=1e-12, atol=1e-12)


class TestCompleteMasked:
    def test_full_observation_reduces_to_decomposition(self):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 8)
        prob = full_problem(t)
        out = complete_masked(prob, 3)  # default hybrid policy
        assert residual_ratio(t, out) < 1e-6

    def test_single_entry_rank1(self):
        obs = SparseTensor3.from_entries((3, 3, 3), [(1, 2, 0, 4.0)])
        prob = CompletionProblem(dims=(3, 3, 3), observed=obs)
        out = complete_masked(prob, 1, DecompConfig(rank=1, max_iters=30, seed=1))
        recon = cp_reconstruct(out)
        assert recon.array[1, 2, 0] == pytest.approx(4.0, abs=1e-6)

    def test_matches_hybrid_run_at_full_observation(self):
        m = random_model(np.random.default_rng(3), (8, 8, 8), 2, weights=np.ones(2))
        t = cp_reconstruct(m)
        prob = full_problem(t)
        cfg = DecompConfig(rank=2, max_iters=40, tol=1e-8, orth_mode="first_s", orth_steps=5, seed=12)
        completed = complete_masked(prob, 2, cfg, ridge=0.0)
        direct = hybrid_run(t, cfg)
        r1 = residual_ratio(t, completed)
        r2 = residual_ratio(t, direct.model)
        assert abs(r1 - r2) < 1e-6

    def test_unconstrained_row_left_at_init(self, rng, caplog):
        import logging

        # No observation ever touches mode-1 row 2.
        entries = [(0, 0, 0, 1.0), (1, 1, 1, 2.0), (1, 0, 1, 0.5), (0, 1, 0, 1.5)]
        obs = SparseTensor3.from_entries((3, 2, 2), entries)
        prob = CompletionProblem(dims=(3, 2, 2), observed=obs)
        with caplog.at_level(logging.WARNING, logger="tenfact.completion"):
            out = complete_masked(prob, 1, DecompConfig(rank=1, max_iters=20, seed=2))
        assert any("no observations" in r.message for r in caplog.records)
        assert out.k == 1

    def test_given_factor_shapes_checked(self, rng):
        m = random_model(rng, (6, 6, 6), 3)
        prob = full_problem(cp_reconstruct(m))
        a, b, c = m.factors
        for given in ((a[:, :2], b[:, :2], c[:, :2]), (a[:4], b, c)):
            with pytest.raises(InvalidConfigError, match="given"):
                complete_masked(prob, 3, DecompConfig(rank=3, init="given", given=given))

    def test_svd_init_rejected(self):
        model, t = diagonal_tensor([1.0], 4)
        prob = full_problem(t)
        with pytest.raises(InvalidConfigError):
            complete_masked(prob, 1, DecompConfig(rank=1, init="svd", given=None))

    def test_error_decreases_with_more_data(self):
        # Desk-scale version of the sampling trend.
        m = random_model(np.random.default_rng(8), (15, 15, 15), 3, weights=np.ones(3))
        t = cp_reconstruct(m)
        errors = []
        for p in (0.2, 0.5, 0.9):
            errs = []
            for trial in range(3):
                prob = sample_completion_problem(t, p, seed=(trial, int(p * 10)))
                cfg = DecompConfig(rank=3, max_iters=40, tol=1e-6, orth_mode="first_s", orth_steps=5, seed=trial)
                out = complete_masked(prob, 3, cfg)
                errs.append(missing_entry_error(t, prob, out))
            errors.append(np.mean(errs))
        assert errors[0] > errors[1] > errors[2]

    def test_stray_column_redrawn_on_criterion_6_trial(self):
        # Criterion 6's hybrid trial 3 at p=0.2: without the redraw one column
        # settles on unobserved entries and its weight reaches ~270.
        master, trial, p = 64, 3, 0.2
        _, t = gen_random_cp(SynthSpec(d=50, k=10, seed=derived_seed(master, trial)))
        prob = sample_completion_problem(t, p, seed=derived_seed(master, trial, int(p * 1000)))
        cfg = DecompConfig(
            rank=10, max_iters=40, tol=1e-5, orth_mode="first_s", orth_steps=5,
            seed=derived_seed(master, trial, int(p * 1000), 1),
        )
        out = complete_masked(prob, 10, cfg)
        assert missing_entry_error(t, prob, out) < 1e-2
        assert np.abs(out.weights).max() < 2.0

    def test_column_without_observed_energy_redrawn(self, caplog):
        import logging

        # Only the leading 3x3x3 block is observed; the given second column
        # lives on coordinate 3 in every mode, so no row solve can reach it.
        m = random_model(np.random.default_rng(5), (3, 3, 3), 2, weights=np.ones(2))
        block = cp_reconstruct(m).array
        obs = SparseTensor3((4, 4, 4), np.argwhere(np.ones_like(block, dtype=bool)), block.ravel())
        prob = CompletionProblem(dims=(4, 4, 4), observed=obs)
        start = np.vstack([np.ones((3, 2)), np.zeros((1, 2))])
        start[:, 1] = [0.0, 0.0, 0.0, 1.0]
        cfg = DecompConfig(rank=2, max_iters=20, orth_mode="none", init="given", given=(start, start, start), seed=4)
        with caplog.at_level(logging.WARNING, logger="tenfact.completion"):
            out = complete_masked(prob, 2, cfg)
        assert any("left the observed entries" in r.message for r in caplog.records)
        assert np.isfinite(out.weights).all()
        for f in out.factors:
            assert np.isfinite(f).all()
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0)

    def test_stray_redraws_bounded_on_unfittable_rank1(self, tmp_path, caplog):
        import logging

        # No rank-1 tensor fits 1.0 at (0,0,0), 2.0 at (1,1,1) and the observed
        # 0.0 at (1,0,0).  Unbounded, `tenfact complete --rank 1 --seed 0`
        # redrew column 0 on 80 sweeps, the last at sweep 99 of 100.
        coo = tmp_path / "obs.coo"
        coo.write_text("2 2 2 3\n0 0 0 1.0\n1 1 1 2.0\n1 0 0 0.0\n")
        dims, idx, vals = _parse_coo(coo)
        zero = vals == 0.0
        prob = CompletionProblem(
            dims=dims, observed=SparseTensor3(dims, idx[~zero], vals[~zero]), zero_entries=idx[zero]
        )
        # The configuration `tenfact complete` builds from its defaults.
        cfg = DecompConfig(
            rank=1, max_iters=100, tol=1e-6, orth_mode="first_s", orth_steps=5, seed=0
        )
        with caplog.at_level(logging.WARNING, logger="tenfact.completion"):
            out = complete_masked(prob, 1, cfg)
        redraws = [r.args[0] for r in caplog.records if "re-randomizing" in r.message]
        kept = [r for r in caplog.records if "keeping them" in r.message]
        assert 0 < len(redraws) <= MAX_COLUMN_REDRAWS
        assert len(kept) == 1
        assert max(redraws) < kept[0].args[0] < cfg.max_iters - 1
        fitted = cp_reconstruct(out).array[idx[:, 0], idx[:, 1], idx[:, 2]]
        # One sweep after a redraw this RMSE was 0.29.
        assert np.sqrt(np.mean((fitted - vals) ** 2)) < 0.1


class TestSweepPolicy:
    """complete_masked runs on the driver's sweep policy, as ``TestHybridRun``
    checks for the decomposition runners."""

    @staticmethod
    def problem():
        _, t = gen_random_cp(SynthSpec(d=8, k=2, seed=1))
        return t, sample_completion_problem(t, 0.3, seed=1)

    @staticmethod
    def fit(prob, **kw):
        cfg = DecompConfig(rank=2, max_iters=12, tol=1e-300, seed=3, **kw)
        return complete_masked(prob, 2, cfg)

    def assert_same_bits(self, m1, m2):
        for x, y in zip((m1.weights, *m1.factors), (m2.weights, *m2.factors)):
            np.testing.assert_array_equal(x, y)

    def test_s_zero_identical_to_none(self):
        _, prob = self.problem()
        self.assert_same_bits(
            self.fit(prob, orth_mode="first_s", orth_steps=0), self.fit(prob, orth_mode="none")
        )

    @pytest.mark.parametrize("steps", [12, 50])
    def test_s_at_least_n_identical_to_always(self, steps):
        _, prob = self.problem()
        self.assert_same_bits(
            self.fit(prob, orth_mode="first_s", orth_steps=steps), self.fit(prob, orth_mode="always")
        )

    @pytest.mark.parametrize("mode", ["always", "first_s"])
    def test_rank_above_dimension_rejected_when_orthogonalizing(self, mode):
        _, t = diagonal_tensor([1.0], 4)
        with pytest.raises(InvalidConfigError, match="exceeds min"):
            complete_masked(full_problem(t), 5, DecompConfig(rank=5, orth_mode=mode))

    def test_rank_above_dimension_runs_without_orthogonalization(self):
        _, t = diagonal_tensor([1.0], 4)
        out = complete_masked(full_problem(t), 5, DecompConfig(rank=5, max_iters=5, orth_mode="none"))
        assert out.k == 5

    def test_stop_rule_independent_of_scale(self):
        # The exact-fit floor applies to the relative RMSE: on values of order
        # 1e-12 a floor on the absolute RMSE stops the fit early (error 0.61).
        t, _ = self.problem()
        errors = []
        for s in (1.0, 1e-12):
            ts = DenseTensor3(t.array * s)
            prob = sample_completion_problem(ts, 0.3, seed=1)
            cfg = DecompConfig(rank=2, max_iters=50, tol=1e-6, orth_mode="first_s", seed=1)
            errors.append(missing_entry_error(ts, prob, complete_masked(prob, 2, cfg, ridge=0.0)))
        assert errors[0] < 0.05
        assert errors[1] == pytest.approx(errors[0], rel=1e-9)

    def test_rerandomize_period_honoured(self):
        _, prob = self.problem()
        plain = self.fit(prob, orth_mode="first_s")
        redrawn = self.fit(prob, orth_mode="first_s", rerandomize_period=4)
        assert not np.array_equal(plain.A, redrawn.A)


class TestMissingEntryError:
    def test_exact_model_zero_error(self, rng):
        m = random_model(rng, (4, 4, 4), 2)
        t = cp_reconstruct(m)
        prob = sample_completion_problem(t, 0.5, seed=3)
        assert missing_entry_error(t, prob, m) == pytest.approx(0.0, abs=1e-12)

    def test_zero_model_unit_error(self, rng):
        m = random_model(rng, (4, 4, 4), 2)
        t = cp_reconstruct(m)
        prob = sample_completion_problem(t, 0.5, seed=4)
        zero = CpModel(np.zeros(2), m.A, m.B, m.C)
        assert missing_entry_error(t, prob, zero) == pytest.approx(1.0)

    def test_no_missing_entries_is_zero(self, rng):
        m = random_model(rng, (3, 3, 3), 1)
        t = cp_reconstruct(m)
        assert missing_entry_error(t, full_problem(t), m) == 0.0

    def test_hand_case_oracle(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 2.0
        arr[1, 1, 1] = 4.0
        t = DenseTensor3(arr)
        obs = SparseTensor3.from_entries((2, 2, 2), [(0, 0, 0, 2.0)])
        prob = CompletionProblem(dims=(2, 2, 2), observed=obs)
        e1 = np.eye(2)[:, :1]
        model = CpModel([2.0], e1, e1, e1)  # reconstructs the observed entry only
        missing = ~prob.observed_mask()
        diff = t.array[missing] - cp_reconstruct(model).array[missing]
        expect = math.sqrt(np.mean(diff**2)) / math.sqrt(np.mean(t.array[missing] ** 2))
        assert missing_entry_error(t, prob, model) == pytest.approx(expect)

    def test_invariant_under_column_permutation_and_sign(self, rng):
        m = random_model(rng, (4, 4, 4), 3)
        t = cp_reconstruct(random_model(rng, (4, 4, 4), 3))
        prob = sample_completion_problem(t, 0.4, seed=9)
        base = missing_entry_error(t, prob, m)
        perm = np.array([2, 0, 1])
        signs = np.array([-1.0, 1.0, -1.0])
        m2 = CpModel(m.weights[perm] * signs, m.A[:, perm] * signs, m.B[:, perm], m.C[:, perm])
        assert missing_entry_error(t, prob, m2) == pytest.approx(base, abs=1e-12)
