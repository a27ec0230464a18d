import csv
import math
import re

import numpy as np
import pytest

import tenfact.bench as bench
from tenfact.bench import (
    SynthSpec,
    add_noise,
    derived_seed,
    gen_random_cp,
    run_recovery_suite,
    run_residual_suite,
    write_recovery_csv,
    write_traces_csv,
)
from tenfact.decompose import ALGORITHMS
from tenfact.errors import InvalidConfigError, NumericalFailureError
from tenfact.tensors import SparseTensor3, incoherence, residual_ratio


class TestGenRandomCp:
    def test_rank_one_exact(self):
        spec = SynthSpec(d=6, k=1, seed=3)
        model, tensor = gen_random_cp(spec)
        assert residual_ratio(tensor, model) == 0.0
        assert model.weights[0] == 1.0

    def test_geometric_ratio_exact(self):
        spec = SynthSpec(d=5, k=30, weight_scheme="geometric", weight_ratio=100.0, seed=1)
        model, _ = gen_random_cp(spec)
        assert model.weights[0] / model.weights[-1] == pytest.approx(100.0)
        assert (np.diff(model.weights) <= 0).all()

    def test_unit_columns(self):
        spec = SynthSpec(d=12, k=4, seed=9)
        model, _ = gen_random_cp(spec)
        for f in model.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)

    def test_symmetric_flag(self):
        spec = SynthSpec(d=8, k=3, symmetric=True, seed=2)
        model, _ = gen_random_cp(spec)
        np.testing.assert_array_equal(model.A, model.B)
        np.testing.assert_array_equal(model.A, model.C)

    def test_incoherence_monte_carlo_bound(self):
        d = 100
        bound = 5.0 * math.sqrt(math.log(d) / d)
        for seed in range(20):
            model, _ = gen_random_cp(SynthSpec(d=d, k=30, seed=derived_seed(123, seed)))
            assert incoherence(model.A) < bound

    def test_reproducible(self):
        spec = SynthSpec(d=6, k=2, seed=11)
        m1, t1 = gen_random_cp(spec)
        m2, t2 = gen_random_cp(spec)
        np.testing.assert_array_equal(m1.A, m2.A)
        np.testing.assert_array_equal(t1.array, t2.array)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(d=0, k=1)
        with pytest.raises(ValueError):
            SynthSpec(d=2, k=1, weight_ratio=0.5)


class TestAddNoise:
    def test_zero_sigma_identity(self, rng):
        _, t = gen_random_cp(SynthSpec(d=5, k=2, seed=0))
        assert add_noise(t, 0.0) is t

    def test_zero_tensor_unchanged(self):
        from tenfact.tensors import DenseTensor3

        t = DenseTensor3.zeros((4, 4, 4))
        assert not add_noise(t, 0.05, seed=1).array.any()

    def test_sparse_tensor_rejected(self):
        t = SparseTensor3((2, 2, 2), [[0, 0, 0]], [1.0])
        with pytest.raises(ValueError, match="^add_noise takes a DenseTensor3, got SparseTensor3$"):
            add_noise(t, 0.05)

    def test_relative_magnitude_monte_carlo(self):
        sigma = 0.05
        rels = []
        for seed in range(10):
            _, t = gen_random_cp(SynthSpec(d=20, k=5, seed=derived_seed(7, seed)))
            noisy = add_noise(t, sigma, seed=seed)
            rels.append(np.linalg.norm(noisy.array - t.array) / t.norm())
        assert abs(np.mean(rels) - sigma) < 0.01


class TestRecoverySuite:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, tmp_path, trials):
        spec = SynthSpec(d=5, k=2, seed=0)
        message = f"^trials must be a positive integer, got {trials}$"
        with pytest.raises(ValueError, match=message):
            run_recovery_suite([spec], ["als"], trials=trials)
        with pytest.raises(ValueError, match=message):
            run_residual_suite(spec, ["als"], iters=5, trials=trials)
        path = tmp_path / "empty.csv"
        write_recovery_csv([], path)
        assert path.read_text().splitlines() == [",".join(bench.RECOVERY_HEADER)]

    def test_row_count_and_order(self):
        grid = [SynthSpec(d=6, k=2, seed=0), SynthSpec(d=6, k=2, weight_scheme="geometric", weight_ratio=10.0, seed=0)]
        reports = run_recovery_suite(grid, ["orth-als", "als"], trials=3, iters=20)
        assert len(reports) == len(grid) * 2 * 3
        algos = [r.algo for r in reports[:2]]
        assert algos == ["orth-als", "als"]

    def test_reproducible_except_walltime(self):
        grid = [SynthSpec(d=8, k=3, seed=5)]
        a = run_recovery_suite(grid, ["orth-als"], trials=2, iters=25)
        b = run_recovery_suite(grid, ["orth-als"], trials=2, iters=25)
        for ra, rb in zip(a, b):
            assert ra.recovered_count == rb.recovered_count
            assert ra.residual_final == rb.residual_final
            assert ra.seed == rb.seed

    def test_threads_do_not_change_results(self):
        grid = [SynthSpec(d=8, k=3, seed=5)]
        seq = run_recovery_suite(grid, ["orth-als", "als"], trials=3, iters=20, threads=1)
        par = run_recovery_suite(grid, ["orth-als", "als"], trials=3, iters=20, threads=3)
        for rs, rp in zip(seq, par):
            assert rs.algo == rp.algo and rs.trial == rp.trial
            assert rs.residual_final == rp.residual_final
            assert rs.recovered_count == rp.recovered_count

    def test_threads_do_not_change_csv(self, tmp_path):
        grid = [SynthSpec(d=8, k=3, seed=5), SynthSpec(d=6, k=2, weight_ratio=10.0, seed=2)]
        algos = ["orth-als", "hybrid", "als-svd", "tpm"]
        files = []
        for threads in (1, 2):
            reports = run_recovery_suite(grid, algos, trials=2, iters=20, threads=threads)
            path = tmp_path / f"threads{threads}.csv"
            write_recovery_csv(reports, path)
            lines = path.read_bytes().split(b"\n")
            assert lines[0].endswith(b",wall_ms")
            # Drop the last column, wall_ms, from every line.
            files.append(b"\n".join(line.rpartition(b",")[0] for line in lines))
        assert files[0].count(b"\n") == 1 + 2 * 2 * len(algos)
        assert files[0] == files[1]

    def test_trials_run_blas_at_one_thread_then_restore(self, monkeypatch):
        """Workers see one BLAS thread at every worker count, and the caller's
        count comes back after the suite."""
        calls = bench._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get_threads = calls[1]
        seen = []
        monkeypatch.setattr(bench, "_trial", lambda *args: seen.append(get_threads()) or [])
        before = get_threads()
        for threads in (1, 2):
            assert bench._run_trials([(None, 0), (None, 1)], [], 1, 0.0, threads, False) == []
            assert get_threads() == before
        assert seen == [1, 1, 1, 1]

    @pytest.mark.parametrize("threads", [0, -1, None, 1.5, "2"])
    def test_threads_must_be_a_positive_integer(self, threads):
        spec = SynthSpec(d=6, k=2, seed=1)
        message = f"^threads must be a positive integer, got {re.escape(repr(threads))}$"
        with pytest.raises(ValueError, match=message):
            run_recovery_suite([spec], ["als"], trials=1, iters=5, threads=threads)
        with pytest.raises(ValueError, match=message):
            run_residual_suite(spec, ["als"], iters=5, threads=threads)

    def test_failure_recorded_not_raised(self, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalFailureError("synthetic failure")

        monkeypatch.setitem(ALGORITHMS, "simdiag", boom)
        grid = [SynthSpec(d=6, k=2, seed=1)]
        reports = run_recovery_suite(grid, ["simdiag", "als"], trials=1, iters=10)
        by_algo = {r.algo: r for r in reports}
        assert by_algo["simdiag"].recovered_count == 0
        assert by_algo["simdiag"].error is not None
        assert by_algo["als"].error is None

    def test_rank_above_dims_recorded_not_raised(self):
        names = list(bench.ALGORITHM_NAMES)
        reports = run_recovery_suite([SynthSpec(d=4, k=6, seed=0)], names, trials=1, iters=5)
        assert [r.algo for r in reports] == names
        failed = {r.algo for r in reports if r.error is not None}
        # The three rank checks outside the sweep engine, plus the two
        # orthogonalizing ALS runners.
        assert failed == {"orth-tpm", "simdiag", "als-svd", "orth-als", "hybrid"}
        assert all(r.recovered_count == 0 for r in reports if r.error is not None)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_recovery_suite([SynthSpec(d=4, k=1, seed=0)], ["magic"], trials=1)

    def test_algorithm_names(self):
        assert set(bench.ALGORITHM_NAMES) == {
            "als", "als-svd", "orth-als", "hybrid", "tpm", "tpm-svd", "orth-tpm", "simdiag",
        }


class TestResidualSuite:
    def test_single_iteration_trace(self):
        spec = SynthSpec(d=6, k=2, seed=2)
        reports = run_residual_suite(spec, ["als"], iters=1)
        assert len(reports) == 1
        assert len(reports[0].residual_trace) == 1

    def test_traces_csv_schema(self, tmp_path):
        spec = SynthSpec(d=6, k=2, seed=2)
        reports = run_residual_suite(spec, ["orth-als", "als"], iters=4, trials=2)
        path = tmp_path / "traces.csv"
        write_traces_csv(reports, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == bench.TRACE_HEADER
        # one row per (algo, trial, iteration actually executed)
        assert len(rows) - 1 == sum(len(r.residual_trace) for r in reports)

    def test_threads_do_not_change_results(self):
        spec = SynthSpec(d=8, k=3, seed=5)
        seq = run_residual_suite(spec, ["orth-als", "als"], iters=10, trials=3, threads=1)
        par = run_residual_suite(spec, ["orth-als", "als"], iters=10, trials=3, threads=2)
        assert len(seq) == len(par) == 6
        for rs, rp in zip(seq, par):
            for field in ("algo", "seed", "trial", "iterations", "residual_final"):
                assert getattr(rs, field) == getattr(rp, field)
            np.testing.assert_array_equal(rs.residual_trace, rp.residual_trace)

    def test_failure_raised_not_recorded(self):
        with pytest.raises(InvalidConfigError):
            run_residual_suite(SynthSpec(d=4, k=6, seed=0), ["orth-als"], iters=2)

    def test_rejects_untraceable_algorithms(self):
        with pytest.raises(ValueError):
            run_residual_suite(SynthSpec(d=4, k=1, seed=0), ["tpm"], iters=2)

    def test_accepts_exactly_the_traceable_algorithms(self):
        accepted = set()
        for name in bench.ALGORITHM_NAMES:
            try:
                run_residual_suite(SynthSpec(d=4, k=1, seed=0), [name], iters=1)
            except ValueError:
                continue
            accepted.add(name)
        assert accepted == {"als", "orth-als", "hybrid", "als-svd"}


class TestDerivedSeed:
    def test_no_trailing_zero_collision(self):
        assert derived_seed(7, 0) != derived_seed(7, 0, 0)
        assert derived_seed(7) != derived_seed(7, 0)

    def test_stable(self):
        assert derived_seed(1, 2, 3) == derived_seed(1, 2, 3)
