import numpy as np
import pytest

from tenfact.errors import DegenerateInputError
from tenfact.linalg import _gram_solve, eig_nonsym, ls_solve_kr, match_factors, orth_step, top_svd
from tenfact.tensors import CpModel, cp_reconstruct, khatri_rao, matricize

from conftest import random_model, unit_columns


class TestOrthStep:
    def test_orthonormal_fixed_point(self, rng):
        q0 = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        q1 = orth_step(q0)
        # Equal up to per-column sign.
        signs = np.sign(np.einsum("ir,ir->r", q0, q1))
        np.testing.assert_allclose(q1 * signs, q0, atol=1e-12)

    def test_hand_gram_schmidt(self):
        e1 = np.array([1.0, 0.0, 0.0])
        x = np.column_stack([e1, np.array([1.0, 1.0, 0.0])])
        q = orth_step(x)
        np.testing.assert_allclose(np.abs(q[:, 0]), e1, atol=1e-12)
        np.testing.assert_allclose(np.abs(q[:, 1]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_identical_columns_degenerate(self):
        e = np.ones((4, 1)) / 2.0
        with pytest.raises(DegenerateInputError) as err:
            orth_step(np.hstack([e, e]))
        assert 1 in err.value.columns

    def test_orthonormality_and_span(self, rng):
        x = rng.standard_normal((8, 5))
        q = orth_step(x)
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-10)
        # Same column space: projectors coincide.
        px = x @ np.linalg.pinv(x)
        pq = q @ q.T
        np.testing.assert_allclose(px, pq, atol=1e-8)

    def test_prefix_dependence(self, rng):
        # Column i of Q is unchanged when later columns change.
        x = rng.standard_normal((7, 4))
        q1 = orth_step(x)
        x2 = np.array(x)
        x2[:, 3] = rng.standard_normal(7)
        q2 = orth_step(x2)
        np.testing.assert_allclose(q1[:, :3], q2[:, :3], atol=1e-12)

    def test_idempotent_up_to_sign(self, rng):
        for _ in range(5):
            q1 = orth_step(rng.standard_normal((6, 3)))
            q2 = orth_step(q1)
            signs = np.sign(np.einsum("ir,ir->r", q1, q2))
            np.testing.assert_allclose(q2 * signs, q1, atol=1e-10)

    def test_too_many_columns(self, rng):
        with pytest.raises(ValueError):
            orth_step(rng.standard_normal((3, 4)))


class TestLsSolveKr:
    def test_orthonormal_reduces_to_mttkrp(self, rng):
        p = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        tmat = rng.standard_normal((4, 30))
        np.testing.assert_allclose(
            ls_solve_kr(tmat, p, q), tmat @ khatri_rao(q, p), atol=1e-12
        )

    def test_exact_cp_recovers_scaled_factor(self, rng):
        m = random_model(rng, (5, 6, 7), 3)
        t3 = matricize(cp_reconstruct(m), 3)
        out = ls_solve_kr(t3, m.A, m.B)
        np.testing.assert_allclose(out, m.C * m.weights, atol=1e-8)

    def test_normal_equations_oracle(self, rng):
        # Direct dense least squares on the vectorized problem.
        p = rng.standard_normal((4, 3))
        q = rng.standard_normal((4, 3))
        tmat = rng.standard_normal((4, 16))
        design = khatri_rao(q, p)
        expect = np.linalg.lstsq(design, tmat.T, rcond=None)[0].T
        np.testing.assert_allclose(ls_solve_kr(tmat, p, q), expect, atol=1e-8)

    def test_optimality_under_perturbation(self, rng):
        for trial in range(5):
            p = rng.standard_normal((5, 3))
            q = rng.standard_normal((6, 3))
            tmat = rng.standard_normal((4, 30))
            design = khatri_rao(q, p)
            x = ls_solve_kr(tmat, p, q)
            base = np.linalg.norm(tmat - x @ design.T)
            for col in range(3):
                bump = rng.standard_normal(4)
                bump /= np.linalg.norm(bump)
                x2 = np.array(x)
                x2[:, col] += 1e-3 * bump
                assert np.linalg.norm(tmat - x2 @ design.T) >= base - 1e-12

    def test_sparse_tmat_matches_dense(self, rng):
        import scipy.sparse

        p = rng.standard_normal((4, 2))
        q = rng.standard_normal((5, 2))
        dense = rng.standard_normal((3, 20))
        dense[dense < 0.5] = 0.0
        sparse = scipy.sparse.csr_matrix(dense)
        np.testing.assert_allclose(
            ls_solve_kr(sparse, p, q), ls_solve_kr(dense, p, q), atol=1e-10
        )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            ls_solve_kr(np.zeros((3, 7)), np.zeros((2, 2)), np.zeros((3, 2)))


def pinv_gram_solve(mtt, p, q, rcond=1e-12):
    """The normal-equations step through the SVD pseudoinverse alone."""
    return mtt @ np.linalg.pinv((q.T @ q) * (p.T @ p), rcond=rcond)


class TestGramSolve:
    """``_gram_solve`` inverts well-conditioned Grams and keeps ``pinv`` for the rest."""

    @pytest.mark.parametrize("d, k", [(100, 30), (50, 50), (1528, 50)])
    def test_well_conditioned_matches_pinv_without_svd(self, rng, monkeypatch, d, k):
        p = unit_columns(rng, d, k)
        q = unit_columns(rng, d, k)
        mtt = rng.standard_normal((d, k))
        expect = pinv_gram_solve(mtt, p, q)

        def no_pinv(*args, **kwargs):
            raise AssertionError("a well-conditioned Gram took the pinv fallback")

        monkeypatch.setattr(np.linalg, "pinv", no_pinv)
        got = _gram_solve(mtt, p, q)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_duplicated_column_is_bitwise_pinv(self, rng):
        p = unit_columns(rng, 20, 4)
        p[:, 3] = p[:, 1]
        q = unit_columns(rng, 20, 4)
        q[:, 3] = q[:, 1]
        mtt = rng.standard_normal((20, 4))
        np.testing.assert_array_equal(_gram_solve(mtt, p, q), pinv_gram_solve(mtt, p, q))

    def test_zero_column_is_bitwise_pinv(self, rng):
        # normalize_columns leaves a dead column all zeros.
        p = unit_columns(rng, 20, 4)
        p[:, 2] = 0.0
        q = unit_columns(rng, 20, 4)
        mtt = rng.standard_normal((20, 4))
        np.testing.assert_array_equal(_gram_solve(mtt, p, q), pinv_gram_solve(mtt, p, q))

    @pytest.mark.parametrize("s", [1e-6, 1e-7])
    def test_ill_conditioned_is_bitwise_pinv(self, rng, s):
        """G is about diag(1, 1, 1, 1, 1, s^2): condition number 1e12 or 1e14."""
        u = np.linalg.qr(rng.standard_normal((40, 6)))[0]
        p = u * np.array([1.0, 1.0, 1.0, 1.0, 1.0, s])
        mtt = rng.standard_normal((40, 6))
        np.testing.assert_array_equal(_gram_solve(mtt, p, u), pinv_gram_solve(mtt, p, u))

    def test_rank_zero(self):
        out = _gram_solve(np.zeros((7, 0)), np.zeros((5, 0)), np.zeros((6, 0)))
        assert out.shape == (7, 0)

    def test_nan_gram_raises(self, rng):
        p = unit_columns(rng, 10, 3)
        p[0, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            _gram_solve(rng.standard_normal((10, 3)), p, unit_columns(rng, 10, 3))


class TestTopSvd:
    def test_diagonal(self):
        u, s, v = top_svd(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(s, [3.0, 2.0])
        for mat in (u, v):
            np.testing.assert_allclose(np.abs(mat), np.eye(3)[:, :2], atol=1e-12)

    def test_rank_one(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal(4)
        u, s, v = top_svd(np.outer(a, b), 3)
        assert s[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)

    def test_truncation_error_equals_tail(self, rng):
        m = rng.standard_normal((6, 5))
        full_s = np.linalg.svd(m, compute_uv=False)
        u, s, v = top_svd(m, 3)
        err = np.linalg.norm(m - u @ np.diag(s) @ v.T)
        assert err == pytest.approx(np.sqrt((full_s[3:] ** 2).sum()), abs=1e-8)

    def test_k_too_large(self, rng):
        with pytest.raises(ValueError):
            top_svd(np.zeros((3, 4)), 4)


class TestEigNonsym:
    def test_diagonal(self):
        values, vectors = eig_nonsym(np.diag([2.0, -1.0, 0.5]))
        order = np.argsort(-values.real)
        np.testing.assert_allclose(values[order], [2.0, 0.5, -1.0])
        np.testing.assert_allclose(np.abs(vectors.real), np.eye(3), atol=1e-12)

    def test_rotation_pure_imaginary(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        values, _ = eig_nonsym(rot)
        np.testing.assert_allclose(sorted(values.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(values.real, 0.0, atol=1e-12)

    def test_construct_then_verify(self, rng):
        d = np.diag(rng.uniform(0.5, 3.0, 5))
        pmat = rng.standard_normal((5, 5)) + np.eye(5)
        m = pmat @ d @ np.linalg.inv(pmat)
        values, vectors = eig_nonsym(m)
        np.testing.assert_allclose(sorted(values.real), sorted(np.diag(d)), atol=1e-6)
        np.testing.assert_allclose(m @ vectors, vectors @ np.diag(values), atol=1e-8)

    def test_non_square(self):
        with pytest.raises(ValueError):
            eig_nonsym(np.zeros((2, 3)))


class TestMatchFactors:
    def test_exact_match(self, rng):
        m = random_model(rng, (5, 5, 5), 3)
        result = match_factors(m, m, 0.9)
        assert result.recovered_count == 3
        np.testing.assert_allclose(result.correlations, 1.0, atol=1e-12)

    def test_permutation_sign_invariance(self, rng):
        m = random_model(rng, (5, 5, 5), 3)
        perm = np.array([1, 2, 0])
        signs = np.array([-1.0, 1.0, -1.0])
        est = CpModel(m.weights[perm], m.A[:, perm] * signs, m.B[:, perm] * signs, m.C[:, perm])
        assert match_factors(m, est, 0.9).recovered_count == 3

    def test_duplicated_estimate_consumed_once(self):
        eye = np.eye(4)
        truth = CpModel([2.0, 1.0], eye[:, :2], eye[:, :2], eye[:, :2])
        dup = np.column_stack([eye[:, 0], eye[:, 0]])
        est = CpModel([2.0, 2.0], dup, dup, dup)
        result = match_factors(truth, est, 0.9)
        assert result.recovered_count == 1

    def test_greedy_order_by_weight(self):
        # The heavy true factor claims the shared best estimate first.
        eye = np.eye(4)
        truth = CpModel([1.0, 5.0], eye[:, :2], eye[:, :2], eye[:, :2])
        est_col = (eye[:, 0] + eye[:, 1]) / np.sqrt(2)
        est = CpModel([1.0], est_col[:, None], est_col[:, None], est_col[:, None])
        result = match_factors(truth, est, 0.5)
        assert result.assignment[0] == 1  # true index 1 has the larger weight
        assert result.correlations[1] == pytest.approx(1 / np.sqrt(2))
        assert result.correlations[0] == 0.0

    def test_threshold_validation(self, rng):
        m = random_model(rng, (4, 4, 4), 2)
        with pytest.raises(ValueError):
            match_factors(m, m, 0.0)
