import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfact.bench import SynthSpec, derived_seed, gen_random_cp
from tenfact.completion import (
    MAX_COLUMN_REDRAWS,
    CompletionProblem,
    _DenseRows,
    _RowSolver,
    _observed_rmse,
    _row_solver,
    complete_masked,
    missing_entry_error,
    sample_completion_problem,
)
from tenfact.decompose import DecompConfig, hybrid_run
from tenfact.errors import InvalidConfigError, NumericalFailureError, TenfactError
from tenfact.fileio import _parse_coo
from tenfact import tensors
from tenfact.tensors import CpModel, DenseTensor3, SparseTensor3, cp_reconstruct, residual_ratio

from conftest import diagonal_tensor, random_model


def full_problem(tensor):
    return sample_completion_problem(tensor, 1.0, seed=0)


class TestCompletionProblem:
    def test_rejects_duplicate_indices(self):
        obs = SparseTensor3.from_entries((2, 2, 2), [(0, 0, 0, 1.0)])
        with pytest.raises(ValueError):
            CompletionProblem(dims=(2, 2, 2), observed=obs, zero_entries=np.array([[0, 0, 0]]))

    def test_rejects_non_integral_zero_entries(self):
        obs = SparseTensor3.from_entries((3, 3, 3), [(0, 0, 0, 1.0)])
        with pytest.raises(ValueError, match="integers"):
            CompletionProblem(dims=(3, 3, 3), observed=obs, zero_entries=[[1.5, 2.9, 0]])
        prob = CompletionProblem(dims=(3, 3, 3), observed=obs, zero_entries=[[1.0, 2.0, 0.0]])
        assert prob.zero_entries.dtype == np.int64 and prob.zero_entries.tolist() == [[1, 2, 0]]

    @pytest.mark.parametrize(
        "zeros", [[[0, 1], [2, 3], [0, 1]], np.zeros((2, 4), dtype=np.int64)], ids=["3x2", "2x4"]
    )
    def test_rejects_zero_entries_not_n_by_3(self, zeros):
        obs = SparseTensor3.from_entries((4, 4, 4), [(3, 3, 3, 1.0)])
        with pytest.raises(ValueError, match=re.escape("(n, 3) array")):
            CompletionProblem(dims=(4, 4, 4), observed=obs, zero_entries=zeros)
        prob = CompletionProblem(dims=(4, 4, 4), observed=obs, zero_entries=[])
        assert prob.zero_entries.shape == (0, 3)

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


def oracle_problem(form):
    """A problem on the 4 x 7 x 5 grid whose mode-1 row 2 has no observations.

    ``"sparse"`` observes 12 of the 140 entries, below the density at which
    ``tensors._working_form`` computes densely; mode-1 row 1 has a single
    observation.  ``"dense"`` observes about 40% of the entries outside
    row 2, every fifth value an observed zero.
    """
    dims = (4, 7, 5)
    if form == "sparse":
        entries = [
            (0, 0, 0, 1.5), (0, 1, 2, -0.5), (0, 3, 4, 2.0), (0, 6, 1, 0.0),
            (1, 2, 3, 0.7),
            (3, 0, 4, -1.2), (3, 5, 0, 0.0), (3, 4, 2, 0.9), (3, 6, 3, 0.3),
            (0, 2, 3, 1.1), (3, 1, 1, -0.8), (0, 5, 4, 0.4),
        ]
        arr = np.array(entries)
        idx, vals = arr[:, :3].astype(np.int64), arr[:, 3]
    else:
        rng = np.random.default_rng(41)
        seen = rng.random(dims) < 0.4
        seen[2] = False
        idx = np.argwhere(seen)
        vals = rng.standard_normal(len(idx))
        vals[::5] = 0.0
    nonzero = vals != 0.0
    return CompletionProblem(
        dims=dims,
        observed=SparseTensor3(dims, idx[nonzero], vals[nonzero]),
        zero_entries=idx[~nonzero],
    )


SOLVERS = {"sparse": _RowSolver, "dense": _DenseRows}


class TestRowSolver:
    """Both forms' solvers meet one per-row oracle: ``np.linalg.solve`` on
    each row's Gram matrix, or ``lstsq`` where every Gram is singular."""

    @pytest.mark.parametrize("form", ["sparse", "dense"])
    def test_solve_mode_matches_per_row_oracle(self, rng, form):
        prob = oracle_problem(form)
        dims = prob.dims
        idx, vals = prob.all_indices(), prob.all_values()
        solver = _row_solver(prob, 3)
        assert type(solver) is SOLVERS[form]
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

    @pytest.mark.parametrize("form", ["sparse", "dense"])
    def test_singular_grams_fall_back_to_per_row_lstsq(self, rng, form):
        """A zero column of ``p`` makes every Gram exactly singular, so the
        batched solve raises and each row is solved by ``lstsq``.  The dense
        form's problem observes about 60% of a 3 x 4 x 5 grid."""
        if form == "sparse":
            prob = oracle_problem(form)
        else:
            dims = (3, 4, 5)
            idx = np.argwhere(rng.random(dims) < 0.6)
            obs = SparseTensor3(dims, idx, rng.standard_normal(len(idx)))
            prob = CompletionProblem(dims=dims, observed=obs)
        dims = prob.dims
        idx, vals = prob.all_indices(), prob.all_values()
        solver = _row_solver(prob, 3)
        assert type(solver) is SOLVERS[form]
        p, q = rng.standard_normal((dims[1], 3)), rng.standard_normal((dims[2], 3))
        current = np.zeros((dims[0], 3))
        p[:, 1] = 0.0
        got = solver.solve_mode(1, p, q, current, ridge=0.0)
        assert np.isfinite(got).all()
        for row in range(dims[0]):
            sel = idx[:, 0] == row
            if not sel.any():
                assert (got[row] == current[row]).all()
                continue
            e = p[idx[sel, 1]] * q[idx[sel, 2]]
            gram, rhs = e.T @ e, vals[sel] @ e
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(gram, rhs)
            want = np.linalg.lstsq(gram, rhs, rcond=1e-12)[0]
            np.testing.assert_allclose(got[row], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("form", ["sparse", "dense"])
    def test_dense_scale_solves_for_scaled_factor(self, rng, form):
        """With ``scale`` either solver solves for ``p * scale``: the norms
        a sweep takes out of a factor go back into its normal equations."""
        solver = _row_solver(oracle_problem(form), 3)
        assert type(solver) is SOLVERS[form]
        p, q, current = rng.standard_normal((4, 3)), rng.standard_normal((7, 3)), np.zeros((5, 3))
        scale = np.array([2.5, 0.0, 1e-3])
        got = solver.solve_mode(3, p, q, current, 1e-3, scale=scale)
        want = solver.solve_mode(3, p * scale, q, current, 1e-3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("form", ["sparse", "dense"])
    def test_check_energy_matches_per_entry_oracle(self, rng, form):
        """After a sweep, each column's observed energy is the sum of
        ``(a_i b_j c_k)**2`` over the observed entries of its unit factors."""
        prob = oracle_problem(form)
        idx = prob.all_indices()
        solver = _row_solver(prob, 3)
        assert type(solver) is SOLVERS[form]
        factors = [rng.standard_normal((d, 3)) for d in prob.dims]
        (a, _), (b, _), (c, _) = solver.sweep(*factors, ridge=1e-3)
        energies = solver.check(a, b, c, energy=True)[0]
        want = ((a[idx[:, 0]] * b[idx[:, 1]] * c[idx[:, 2]]) ** 2).sum(axis=0)
        np.testing.assert_allclose(energies, want, rtol=1e-12, atol=0)


class TestCompleteMasked:
    def test_full_observation_reduces_to_decomposition(self):
        model, t = diagonal_tensor([3.0, 2.0, 1.0], 8)
        prob = full_problem(t)
        out = complete_masked(prob, 3)  # default hybrid policy
        assert residual_ratio(t, out) < 1e-6

    def test_negative_ridge_rejected(self):
        _, t = diagonal_tensor([1.0], 3)
        with pytest.raises(InvalidConfigError, match="^ridge must be >= 0, got -1.0$"):
            complete_masked(full_problem(t), 1, ridge=-1.0)

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


def stray_column_problem():
    """Only the leading 3x3x3 block of a 4x4x4 tensor is observed (27 of 64
    entries, the dense form), and the given second column lives on
    coordinate 3 in every mode, where no row solve can reach it."""
    m = random_model(np.random.default_rng(5), (3, 3, 3), 2, weights=np.ones(2))
    block = cp_reconstruct(m).array
    obs = SparseTensor3((4, 4, 4), np.argwhere(np.ones_like(block, dtype=bool)), block.ravel())
    start = np.vstack([np.ones((3, 2)), np.zeros((1, 2))])
    start[:, 1] = [0.0, 0.0, 0.0, 1.0]
    cfg = DecompConfig(
        rank=2, max_iters=20, orth_mode="none", init="given", given=(start,) * 3, seed=4
    )
    return CompletionProblem(dims=(4, 4, 4), observed=obs), cfg


def hybrid_problem():
    """A rank-2 problem at d = 8, p = 0.3 (the dense form), hybrid policy."""
    _, t = gen_random_cp(SynthSpec(d=8, k=2, seed=1))
    cfg = DecompConfig(rank=2, max_iters=30, tol=1e-10, orth_mode="first_s", seed=3)
    return sample_completion_problem(t, 0.3, seed=1), cfg


class TestForms:
    """The dense form solves the systems of the sparse form, on the GEMM kernel."""

    @pytest.mark.parametrize("make", [stray_column_problem, hybrid_problem])
    def test_both_forms_give_the_same_fit(self, make, monkeypatch, caplog):
        import logging

        prob, cfg = make()
        fits, logs = {}, {}
        for form in ("dense", "sparse"):
            if form == "sparse":
                monkeypatch.setattr(tensors, "_DENSE_MIN_DENSITY", 2.0)
            assert type(_row_solver(prob, 2)) is SOLVERS[form]
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tenfact.completion"):
                fits[form] = complete_masked(prob, 2, cfg)
            logs[form] = [(r.msg, r.args) for r in caplog.records]
        dense, sparse = fits["dense"], fits["sparse"]
        for x, y in zip((dense.weights, *dense.factors), (sparse.weights, *sparse.factors)):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-9)
        assert logs["dense"] == logs["sparse"]
        if make is stray_column_problem:
            # perfbench's recovery counter reads the rows from args[1].
            template = (
                "completion: mode-%d rows %s have no observations and stay at "
                "their initialization"
            )
            assert logs["dense"][:3] == [(template, (m, [3])) for m in (1, 2, 3)]
            assert any("re-randomizing" in msg for msg, _ in logs["dense"])

    @pytest.mark.parametrize("rank, form", [(13, "dense"), (14, "sparse"), (30, "sparse")])
    def test_rank_bounds_the_dense_partials(self, rank, form):
        """On a short mode the dense form's largest partial, k(k+1)/2
        packed columns over the two long dims, grows fastest: at (200, 200,
        2) it holds 91 * 40000 entries at rank 13, within a dense copy's
        4M, and 105 * 40000 at rank 14, so higher ranks keep the sparse
        form although the observation tensor itself is densified."""
        dims = (200, 200, 2)
        idx = np.argwhere(np.random.default_rng(8).random(dims) < 0.2)
        prob = CompletionProblem(dims=dims, observed=SparseTensor3(dims, idx, np.ones(len(idx))))
        assert isinstance(tensors._working_form(prob.observed), DenseTensor3)
        assert type(_row_solver(prob, rank)) is SOLVERS[form]

    @pytest.mark.parametrize("make", [stray_column_problem, hybrid_problem])
    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_observed_rmse_is_the_stop_metric(self, make, form, monkeypatch):
        """``_observed_rmse``, which the CLI prints, gives the bits of the
        stop metric's RMSE on either form, and builds no row solver."""
        prob, cfg = make()
        if form == "sparse":
            monkeypatch.setattr(tensors, "_DENSE_MIN_DENSITY", 2.0)
        model = complete_masked(prob, 2, cfg)
        solver = _row_solver(prob, 2)
        assert type(solver) is SOLVERS[form]
        want = solver.check(*model.factors, energy=False)[1](model.weights)
        for cls in SOLVERS.values():
            monkeypatch.setattr(cls, "__init__", None)
        assert _observed_rmse(prob, model) == want

    def test_plain_dense_sweeps_reuse_partials(self, monkeypatch):
        """Each tensor's partials serve consecutive solves: 15 per tensor in
        10 plain sweeps, one every other sweep and two in the rest, at the
        packed rank 3 for the Gram matrices and rank 2 for the right-hand
        sides.  The rank-1 check forms none."""
        prob, _ = hybrid_problem()
        formed = []
        real = tensors._dense_partial
        monkeypatch.setattr(
            tensors,
            "_dense_partial",
            lambda arr, mode, f: formed.append((mode, f.shape[1])) or real(arr, mode, f),
        )
        complete_masked(prob, 2, DecompConfig(rank=2, max_iters=10, tol=1e-300, seed=3))
        grams = [mode for mode, rank in formed if rank == 3]
        rhs = [mode for mode, rank in formed if rank == 2]
        assert len(formed) == len(grams) + len(rhs)
        assert grams == [3, 2] + [1, 3, 2] * 4 + [1]
        assert rhs == grams


# Zeros, subnormals, values whose squares are near float64's limits, and
# ordinary floats.
EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 2.2e-308, 3e-160, 1e150, -1e150]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def tiny_problems(draw):
    dims = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    size = math.prod(dims)
    flat = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    idx = np.array(np.unravel_index(sorted(flat), dims)).T
    vals = np.array(draw(st.lists(EDGE_VALUES, min_size=len(flat), max_size=len(flat))))
    zero = vals == 0.0
    return CompletionProblem(
        dims=dims, observed=SparseTensor3(dims, idx[~zero], vals[~zero]), zero_entries=idx[zero]
    )


class TestCompletionProperty:
    @settings(max_examples=400)
    @given(
        problem=tiny_problems(),
        rank=st.integers(1, 3),
        orth_mode=st.sampled_from(["none", "first_s"]),
        ridge=st.sampled_from([0.0, 1e-8]),
        seed=st.integers(0, 3),
    )
    def test_fit_has_the_asked_rank_or_raises_a_typed_error(
        self, problem, rank, orth_mode, ridge, seed
    ):
        """Either a model of the asked rank with finite weights and unit
        columns, or a ``TenfactError``; the one ``ValueError`` allowed is
        the documented one for observed values whose squares overflow."""
        cfg = DecompConfig(rank=rank, max_iters=20, orth_mode=orth_mode, seed=seed)
        try:
            model = complete_masked(problem, rank, cfg, ridge=ridge)
        except TenfactError:
            return
        except ValueError as exc:
            assert "sum of squares overflows" in str(exc)
            return
        assert model.k == rank and model.dims == problem.dims
        assert np.isfinite(model.weights).all()
        for f in model.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, rtol=0, atol=1e-12)

    def test_subnormal_scale_fit_has_unit_columns(self):
        """One observation of 3e-160: the solved columns' entries have
        squares below the smallest normal float, and their first norm was
        off by 6e-6, so the fit raised 'factor A column 0 has norm ...'."""
        obs = SparseTensor3((1, 3, 1), [[0, 0, 0]], [3e-160])
        prob = CompletionProblem(dims=(1, 3, 1), observed=obs)
        cfg = DecompConfig(rank=1, max_iters=20, orth_mode="first_s", seed=0)
        model = complete_masked(prob, 1, cfg, ridge=0.0)
        for f in model.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, rtol=0, atol=1e-12)
        assert cp_reconstruct(model).array[0, 0, 0] == pytest.approx(3e-160, rel=1e-3)

    def test_overflowing_row_solves_raise_numerical_failure(self):
        """With no ridge, two observations of 3e-160 give rank-2 systems
        that are singular only up to subnormal roundoff; their solutions
        overflow, which ended in 'factor A has non-finite entries'."""
        dims = (2, 3, 2)
        prob = CompletionProblem(
            dims=dims, observed=SparseTensor3(dims, [[0, 1, 1], [1, 2, 1]], [3e-160, 3e-160])
        )
        cfg = DecompConfig(rank=2, max_iters=20, orth_mode="none", seed=0)
        with pytest.raises(NumericalFailureError, match="^completion's row solves overflow float64"):
            complete_masked(prob, 2, cfg, ridge=0.0)


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
