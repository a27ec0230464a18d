import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given
from hypothesis import strategies as st

from tenfact import tensors
from tenfact.decompose import _Workspace
from tenfact.linalg import ls_solve_kr
from tenfact.tensors import (
    CpModel,
    DenseTensor3,
    SparseTensor3,
    contract3,
    contract_mode3,
    cp_reconstruct,
    incoherence,
    khatri_rao,
    matricize,
    mttkrp,
    normalize_columns,
    residual_ratio,
    _DENSE_MAX_ENTRIES,
    _DENSE_MIN_DENSITY,
    _csr_product,
    _dense_partial,
    _mode_order,
    _mode_plan,
    _residual_norm,
    _working_form,
)

from conftest import diagonal_tensor, loop_reconstruct, random_model, random_sparse, unit_columns


class TestTensorTypes:
    def test_dense_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DenseTensor3(np.zeros((2, 2)))

    def test_dense_rejects_nonfinite(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            DenseTensor3(arr)

    def test_dense_flat_layout(self):
        # index(i,j,k) = i*d2*d3 + j*d3 + k
        t = DenseTensor3.from_flat((2, 3, 4), np.arange(24.0))
        assert t.array[1, 2, 3] == 1 * 12 + 2 * 4 + 3
        assert t.data[5] == 5.0

    def test_dense_immutable(self):
        t = DenseTensor3.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            t.array[0, 0, 0] = 1.0

    def test_sparse_sorts_dedups_drops_zeros(self):
        entries = [(1, 0, 0, 2.0), (0, 0, 0, 1.0), (1, 0, 0, 3.0), (0, 1, 0, 0.0)]
        s = SparseTensor3.from_entries((2, 2, 2), entries)
        assert s.nnz == 2
        assert s.indices.tolist() == [[0, 0, 0], [1, 0, 0]]
        assert s.values.tolist() == [1.0, 5.0]

    def test_sparse_cancelling_duplicates_removed(self):
        s = SparseTensor3.from_entries((2, 2, 2), [(0, 0, 0, 1.0), (0, 0, 0, -1.0)])
        assert s.nnz == 0

    @pytest.mark.parametrize("case", ["unsorted", "duplicated", "zero_cancelling", "canonical"])
    def test_sparse_matches_dict_oracle(self, case):
        rng = np.random.default_rng(7)
        dims = (3, 4, 5)
        idx = np.column_stack([rng.integers(0, d, 30) for d in dims])
        # Quarter-integer values sum exactly in any order, so the oracle's
        # sums and the constructor's must agree bit for bit.
        vals = rng.integers(-8, 9, 30) / 4.0
        if case == "duplicated":
            idx = np.vstack([idx, idx[:10]])
            vals = np.concatenate([vals, vals[:10]])
        elif case == "zero_cancelling":
            idx = np.vstack([idx, idx[:10], [[0, 0, 0]]])
            vals = np.concatenate([vals, -vals[:10], [0.0]])
        elif case == "canonical":
            canon = SparseTensor3(dims, idx, vals)
            idx, vals = np.array(canon.indices), np.array(canon.values)
            vals[3] = 0.0  # a stored zero in sorted input is still dropped
        s = SparseTensor3(dims, idx, vals)
        assert_matches_coo_oracle(s, idx, vals)
        assert idx.flags.writeable and vals.flags.writeable
        assert not np.shares_memory(s.indices, idx) and not np.shares_memory(s.values, vals)
        if case == "canonical":
            # The already-sorted fast path gives the sorting path's bits.
            perm = rng.permutation(idx.shape[0])
            shuffled = SparseTensor3(dims, idx[perm], vals[perm])
            assert np.array_equal(s.indices, shuffled.indices)
            assert np.array_equal(s.values, shuffled.values)

    @given(
        dims=st.tuples(*(st.integers(1, 4),) * 3),
        entries=st.lists(
            st.tuples(*(st.integers(0, 3),) * 3, st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0])),
            max_size=40,
        ),
        presort=st.booleans(),
    )
    def test_sparse_property_matches_dict_oracle(self, dims, entries, presort):
        entries = [(i % dims[0], j % dims[1], k % dims[2], v) for i, j, k, v in entries]
        if presort:
            entries = sorted(set(entries))
        idx = np.array([e[:3] for e in entries], dtype=np.int64).reshape(-1, 3)
        vals = np.array([e[3] for e in entries], dtype=np.float64)
        assert_matches_coo_oracle(SparseTensor3(dims, idx, vals), idx, vals)

    @given(
        dims=st.tuples(*(st.integers(1, 4),) * 3),
        entries=st.lists(
            st.tuples(*(st.integers(0, 3),) * 3, st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0])),
            max_size=40,
        ),
        order=st.sampled_from(["as_drawn", "sorted", "canonical"]),
        bad=st.none() | st.tuples(st.integers(0, 39), st.integers(0, 2), st.sampled_from([-1, 0, 1])),
    )
    # (0, d2, 0) just before (1, 0, 1): their keys still increase.
    @example(dims=(2, 3, 2), entries=[(0, 1, 0, 1.0), (1, 0, 1, 2.0)], order="canonical", bad=(0, 1, 0))
    # Unsorted in i only, then in j only: a key that left that column out
    # would still increase.
    @example(dims=(2, 2, 2), entries=[(1, 0, 0, 1.0), (0, 1, 1, 2.0)], order="as_drawn", bad=None)
    @example(dims=(2, 2, 2), entries=[(0, 1, 0, 1.0), (0, 0, 1, 2.0)], order="as_drawn", bad=None)
    def test_constructor_matches_lexsort_path(self, dims, entries, order, bad):
        """Sorted, unsorted, duplicated and stored-zero input, with at most one
        entry pushed out of range in one column (to -1 or to its dim, plus
        ``bad[2]``): the constructor gives the sort path's bits or its error."""
        entries = [(i % dims[0], j % dims[1], k % dims[2], v) for i, j, k, v in entries]
        if order == "sorted":
            entries = sorted(entries)
        elif order == "canonical":
            entries = sorted({e[:3]: e for e in entries}.values())
        idx = np.array([e[:3] for e in entries], dtype=np.int64).reshape(-1, 3)
        vals = np.array([e[3] for e in entries], dtype=np.float64)
        if bad is not None and entries:
            row, col, shift = bad
            idx[row % len(entries), col] = -1 if shift < 0 else dims[col] + shift
        if ((idx < 0) | (idx >= np.array(dims))).any():
            with pytest.raises(ValueError, match="out of range"):
                SparseTensor3(dims, idx, vals)
            return
        s = SparseTensor3(dims, idx, vals)
        expect_idx, expect_vals = tensors._lexsort_coo(idx, vals)
        assert_same_bits(s.indices, expect_idx)
        assert_same_bits(s.values, expect_vals)

    @pytest.mark.parametrize(
        "rows",
        [
            # Each row is out of range in one column, and with it the
            # linear keys (i*d2 + j)*d3 + k still strictly increase.
            [(0, 0, 0), (0, 3, 0), (1, 0, 1)],
            [(0, 0, 0), (0, 2, 2), (1, 0, 1)],
            [(0, 0, 0), (1, 2, 1), (2, 0, 0)],
            [(0, -1, 0), (0, 0, 1)],
            [(0, 1, -1), (0, 1, 0)],
            [(-1, 2, 1), (0, 0, 0)],
        ],
    )
    def test_out_of_range_row_with_increasing_keys_rejected(self, rows):
        with pytest.raises(ValueError, match="out of range"):
            SparseTensor3((2, 3, 2), rows, np.ones(len(rows)))

    @pytest.mark.parametrize(
        "dims, first", [((4, 2**31, 2**32), 1), ((2**62, 2, 2), 2**61), ((2**40, 2**40, 2**40), 1)]
    )
    def test_dims_overflowing_int64_take_the_sort_path(self, dims, first):
        """The wrapped int64 key of ``(first, 0, 0)`` lies below that of
        ``(0, 0, 1)``, so a key test would take these rows as sorted."""
        rows = np.array([(first, 0, 0), (0, 0, 1)])
        vals = np.array([1.0, 2.0])
        s = SparseTensor3(dims, rows, vals)
        assert s.indices.tolist() == [[0, 0, 1], [first, 0, 0]]
        assert s.values.tolist() == [2.0, 1.0]
        expect_idx, expect_vals = tensors._lexsort_coo(rows, vals)
        assert_same_bits(s.indices, expect_idx)
        assert_same_bits(s.values, expect_vals)

    def test_sparse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseTensor3.from_entries((2, 2, 2), [(2, 0, 0, 1.0)])

    def test_sparse_rejects_non_integral_indices(self):
        for bad in ([[1.7, 0, 0]], [[0, 0, np.nan]], [[0, np.inf, 0]]):
            with pytest.raises(ValueError, match="integers"):
                SparseTensor3((3, 3, 3), bad, [2.0])
        # Integral floats are indices, as ``from_entries`` passes them.
        s = SparseTensor3((3, 3, 3), [[1.0, 2.0, 0.0]], [2.0])
        assert s.indices.dtype == np.int64 and s.indices.tolist() == [[1, 2, 0]]

    @pytest.mark.parametrize(
        "indices",
        [[[0, 1], [2, 3], [0, 1]], np.zeros((2, 4), dtype=np.int64), [0, 1, 2, 3, 0, 1], np.zeros((1, 2, 3))],
        ids=["3x2", "2x4", "flat", "3-d"],
    )
    def test_sparse_rejects_indices_not_n_by_3(self, indices):
        with pytest.raises(ValueError, match=re.escape("(n, 3) array")):
            SparseTensor3((4, 4, 4), indices, [1.0, 2.0])

    def test_sparse_accepts_empty_indices(self):
        for empty in ([], np.empty(0), np.empty((0, 3), dtype=np.int64)):
            s = SparseTensor3((2, 2, 2), empty, [])
            assert s.nnz == 0 and s.indices.shape == (0, 3)

    def test_from_entries_rejects_non_integral_indices(self):
        with pytest.raises(ValueError, match="integers"):
            SparseTensor3.from_entries((3, 3, 3), [(1, 2.5, 0, 1.0)])
        s = SparseTensor3.from_entries((3, 3, 3), [(1, 2, 0, 1.5)])
        assert s.indices.tolist() == [[1, 2, 0]]

    def test_sparse_to_dense_roundtrip(self, rng):
        s = random_sparse(rng, (4, 3, 5), 20)
        d = s.to_dense()
        for (i, j, k), v in zip(s.indices, s.values):
            assert d.array[i, j, k] == v
        assert np.isclose(s.norm(), d.norm())

    def test_cpmodel_requires_unit_columns(self, rng):
        a = unit_columns(rng, 4, 2)
        bad = a * 1.5
        with pytest.raises(ValueError):
            CpModel(np.ones(2), bad, a, a)

    def test_cpmodel_canonical_signs(self, rng):
        m = random_model(rng, (4, 4, 4), 3)
        flipped = CpModel(-m.weights, -m.A, m.B, m.C)
        canon = flipped.canonical()
        assert (canon.weights >= 0).all()
        for r in range(canon.k):
            lead_a = canon.A[np.flatnonzero(canon.A[:, r])[0], r]
            lead_b = canon.B[np.flatnonzero(canon.B[:, r])[0], r]
            assert lead_a > 0 and lead_b > 0
        np.testing.assert_allclose(
            cp_reconstruct(canon).array, cp_reconstruct(flipped).array, atol=1e-12
        )


class TestMatricize:
    def test_zero_tensor_mode1(self):
        m = matricize(DenseTensor3.zeros((2, 2, 2)), 1)
        assert m.shape == (2, 4)
        assert not m.any()

    def test_rank1_indicator_mode2(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        t = cp_reconstruct(CpModel([1.0], e1[:, None], e1[:, None], e1[:, None]))
        m = matricize(t, 2)
        assert m.shape == (3, 9)
        assert m[0, 0] == 1.0
        assert m.sum() == 1.0

    def test_mode1_column_indexing(self):
        arr = np.empty((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    arr[i, j, k] = i + 2 * j + 4 * k
        m = matricize(DenseTensor3(arr), 1)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert m[i, j + 2 * k] == i + 2 * j + 4 * k

    def test_triple_loop_indexing_oracle_all_modes(self, rng):
        dims = (3, 4, 5)
        t = DenseTensor3(rng.standard_normal(dims))
        m1, m2, m3 = (matricize(t, m) for m in (1, 2, 3))
        d1, d2, d3 = dims
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    v = t.array[i, j, k]
                    assert m1[i, j + k * d2] == v
                    assert m2[j, i + k * d1] == v
                    assert m3[k, i + j * d1] == v

    def test_sparse_matches_dense(self, rng):
        s = random_sparse(rng, (4, 5, 3), 25)
        d = s.to_dense()
        for mode in (1, 2, 3):
            np.testing.assert_allclose(
                matricize(s, mode).toarray(), matricize(d, mode), atol=1e-12
            )

    def test_invalid_mode(self, rng):
        with pytest.raises(ValueError):
            matricize(DenseTensor3.zeros((2, 2, 2)), 4)


class TestKhatriRao:
    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(out[:, 0], [1, 0, 0, 0])
        np.testing.assert_array_equal(out[:, 1], [0, 0, 0, 1])

    def test_single_column_outer_product(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0]])
        np.testing.assert_array_equal(khatri_rao(a, b)[:, 0], [3, 4, 6, 8])

    def test_zero_factor(self, rng):
        assert not khatri_rao(np.zeros((3, 2)), rng.standard_normal((4, 2))).any()

    def test_outer_product_loop_oracle(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((5, 4))
        out = khatri_rao(a, b)
        for r in range(4):
            expect = np.outer(a[:, r], b[:, r]).reshape(-1)
            np.testing.assert_allclose(out[:, r], expect, atol=1e-15)

    def test_mismatched_columns(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


class TestContractions:
    def test_rank1_weight(self):
        model, t = diagonal_tensor([2.5], 3)
        e1 = np.eye(3)[:, 0]
        assert contract3(t, e1, e1, e1) == pytest.approx(2.5)

    def test_zero_vector(self, rng):
        t = DenseTensor3(rng.standard_normal((3, 3, 3)))
        assert contract3(t, np.zeros(3), rng.standard_normal(3), rng.standard_normal(3)) == 0.0

    def test_triple_loop_oracle(self, rng):
        t = DenseTensor3(rng.standard_normal((3, 3, 3)))
        a, b, c = (rng.standard_normal(3) for _ in range(3))
        expect = 0.0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expect += t.array[i, j, k] * a[i] * b[j] * c[k]
        assert contract3(t, a, b, c) == pytest.approx(expect, abs=1e-12)

    def test_trilinearity(self, rng):
        t = DenseTensor3(rng.standard_normal((4, 3, 5)))
        a1, a2 = rng.standard_normal(4), rng.standard_normal(4)
        b, c = rng.standard_normal(3), rng.standard_normal(5)
        alpha, beta = 0.7, -1.3
        lhs = contract3(t, alpha * a1 + beta * a2, b, c)
        rhs = alpha * contract3(t, a1, b, c) + beta * contract3(t, a2, b, c)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_mismatch(self, rng):
        t = DenseTensor3.zeros((2, 3, 4))
        with pytest.raises(ValueError):
            contract3(t, np.zeros(3), np.zeros(3), np.zeros(4))

    def test_mode3_basis_vector_selects_slice(self, rng):
        t = DenseTensor3(rng.standard_normal((3, 4, 5)))
        for k in range(5):
            e = np.zeros(5)
            e[k] = 1.0
            np.testing.assert_allclose(contract_mode3(t, e), t.array[:, :, k], atol=1e-15)

    def test_mode3_zero_vector(self, rng):
        t = DenseTensor3(rng.standard_normal((3, 4, 5)))
        assert not contract_mode3(t, np.zeros(5)).any()

    def test_mode3_of_an_empty_sparse_tensor_is_float_zeros(self):
        out = contract_mode3(SparseTensor3.empty((3, 4, 5)), np.ones(5))
        assert out.dtype == np.float64 and out.shape == (3, 4) and not out.any()

    def test_mode3_loop_oracle(self, rng):
        t = DenseTensor3(rng.standard_normal((3, 4, 5)))
        v = rng.standard_normal(5)
        expect = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    expect[i, j] += t.array[i, j, k] * v[k]
        np.testing.assert_allclose(contract_mode3(t, v), expect, atol=1e-12)

    def test_sparse_dense_agreement(self, rng):
        s = random_sparse(rng, (4, 4, 4), 20)
        d = s.to_dense()
        a, b, c = (rng.standard_normal(4) for _ in range(3))
        assert contract3(s, a, b, c) == pytest.approx(contract3(d, a, b, c), abs=1e-12)
        np.testing.assert_allclose(contract_mode3(s, c), contract_mode3(d, c), atol=1e-12)


class TestReconstructAndResidual:
    def test_rank1_single_entry(self):
        e1 = np.eye(3)[:, :1]
        t = cp_reconstruct(CpModel([2.0], e1, e1, e1))
        assert t.array[0, 0, 0] == 2.0
        assert t.array.sum() == 2.0

    def test_rank0_zero_tensor(self):
        m = CpModel(np.zeros(0), np.zeros((3, 0)), np.zeros((4, 0)), np.zeros((5, 0)))
        assert not cp_reconstruct(m).array.any()

    def test_reconstruct_loop_oracle(self, rng):
        m = random_model(rng, (4, 4, 4), 3)
        np.testing.assert_allclose(cp_reconstruct(m).array, loop_reconstruct(m), atol=1e-12)

    def test_residual_exact_model(self, rng):
        m = random_model(rng, (4, 5, 6), 2)
        assert residual_ratio(cp_reconstruct(m), m) == 0.0

    def test_residual_zero_weights(self, rng):
        m = random_model(rng, (4, 4, 4), 2)
        t = cp_reconstruct(m)
        zero = CpModel(np.zeros(2), m.A, m.B, m.C)
        assert residual_ratio(t, zero) == pytest.approx(1.0)

    def test_residual_hand_case(self):
        # T has a single 3.0 entry; model puts 1.0 there: |3-1| / 3.
        e1 = np.eye(2)[:, :1]
        t = cp_reconstruct(CpModel([3.0], e1, e1, e1))
        m = CpModel([1.0], e1, e1, e1)
        assert residual_ratio(t, m) == pytest.approx(2.0 / 3.0)

    def test_residual_permutation_sign_invariance(self, rng):
        m = random_model(rng, (5, 5, 5), 3)
        t = DenseTensor3(rng.standard_normal((5, 5, 5)))
        base = residual_ratio(t, m)
        perm = np.array([2, 0, 1])
        signs = np.array([1.0, -1.0, -1.0])
        m2 = CpModel(
            m.weights[perm] * signs,
            m.A[:, perm] * signs,
            m.B[:, perm],
            m.C[:, perm],
        )
        assert residual_ratio(t, m2) == pytest.approx(base, abs=1e-12)

    def test_zero_tensor_sentinel(self, rng):
        m0 = CpModel(np.zeros(1), *(np.eye(3)[:, :1],) * 3)
        m1 = CpModel([1.0], *(np.eye(3)[:, :1],) * 3)
        empty = CpModel(np.zeros(0), *(np.zeros((3, 0)),) * 3)
        for t in (DenseTensor3.zeros((3, 3, 3)), SparseTensor3.empty((3, 3, 3))):
            assert residual_ratio(t, m0) == 0.0
            assert residual_ratio(t, m1) == math.inf
            assert residual_ratio(t, empty) == 0.0

    def test_sparse_residual_agrees_with_dense(self, rng):
        # The first tensor is densified; the second, 2% stored, stays sparse
        # and gets the exact residual of its stored entries.
        for dims, nnz in (((5, 5, 5), 30), ((20, 20, 20), 160)):
            s = random_sparse(rng, dims, nnz)
            m = random_model(rng, dims, 2)
            assert residual_ratio(s, m) == pytest.approx(residual_ratio(s.to_dense(), m), rel=1e-10)

    def test_sparse_residual_has_dense_bits(self):
        """A densified sparse tensor's ``residual_ratio``, and the residual
        norm of one that stays sparse, have the bits of the dense copy's.

        The ratio of one that stays sparse may not: the norm of its stored
        values differs from the dense copy's in the last bit.
        """
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dims = tuple(int(d) for d in rng.integers(4, 13, 3))
            m = random_model(rng, dims, 3)
            size = math.prod(dims)
            full = random_sparse(rng, dims, size // 2)
            assert _working_form(full) is not full
            assert residual_ratio(full, m) == residual_ratio(full.to_dense(), m)
            thin = random_sparse(rng, dims, size // 40 + 1)
            assert _working_form(thin) is thin
            args = (m.weights, *m.factors)
            assert _residual_norm(thin, *args) == _residual_norm(thin.to_dense(), *args)

    def test_residual_above_size_cap_reads_gram_identity(self, rng, monkeypatch):
        """Above ``_DENSE_MAX_ENTRIES`` a sparse tensor's residual is the Gram
        identity's: close to the exact one away from an exact fit, and it
        leaves the buffer it is given untouched."""
        t = random_sparse(rng, (4, 5, 6), 12)
        m = random_model(rng, t.dims, 2)
        args = (m.weights, *m.factors)
        exact = _residual_norm(t, *args)
        monkeypatch.setattr(tensors, "_DENSE_MAX_ENTRIES", 119)
        assert not tensors._exact_residual(t)
        assert tensors._exact_residual(t.to_dense())
        buf = np.zeros((4, 30))
        got = _residual_norm(t, *args, out=buf)
        assert got == pytest.approx(exact, rel=1e-12)
        assert not buf.any()
        monkeypatch.setattr(tensors, "_DENSE_MAX_ENTRIES", 120)
        assert tensors._exact_residual(t)
        assert _residual_norm(t, *args, out=buf) == exact

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_copy_of_near_exact_fit_has_dense_residual(self, seed):
        """A full sparse copy reports the dense residual, not the Gram
        identity's, which cancels to 2e-8 or 0.0 at these fits."""
        rng = np.random.default_rng(seed)
        m = random_model(rng, (20, 20, 20), 5)
        arr = cp_reconstruct(m).array + 1e-9 * rng.standard_normal((20, 20, 20))
        dense = DenseTensor3(arr)
        idx = np.argwhere(np.ones(arr.shape, dtype=bool))
        sparse = SparseTensor3(arr.shape, idx, arr[tuple(idx.T)])
        expect = residual_ratio(dense, m)
        assert 1e-9 < expect < 1e-7
        assert residual_ratio(sparse, m) == pytest.approx(expect, rel=1e-12, abs=0)


class TestWorkingForm:
    """The one density rule: which sparse tensors are computed on densely."""

    @staticmethod
    def first_entries(dims, nnz):
        flat = np.arange(nnz)
        return SparseTensor3(dims, np.column_stack(np.unravel_index(flat, dims)), np.ones(nnz))

    def test_density_threshold(self):
        dims = (7, 9, 11)
        least = math.ceil(_DENSE_MIN_DENSITY * 7 * 9 * 11)
        below = self.first_entries(dims, least - 1)
        assert _working_form(below) is below
        at = self.first_entries(dims, least)
        got = _working_form(at)
        assert isinstance(got, DenseTensor3)
        assert got.array.tobytes() == at.to_dense().array.tobytes()

    def test_size_cap(self, monkeypatch):
        # Above the cap at the threshold density: 4,096,000 entries, 409,600 stored.
        dims = (160, 160, 160)
        big = self.first_entries(dims, math.ceil(_DENSE_MIN_DENSITY * 160**3))
        assert 160**3 > _DENSE_MAX_ENTRIES
        assert _working_form(big) is big
        # Every entry stored: dense exactly at the cap, sparse one entry above it.
        full = self.first_entries((4, 5, 6), 120)
        monkeypatch.setattr(tensors, "_DENSE_MAX_ENTRIES", 120)
        assert isinstance(_working_form(full), DenseTensor3)
        monkeypatch.setattr(tensors, "_DENSE_MAX_ENTRIES", 119)
        assert _working_form(full) is full

    def test_no_entries_stays_sparse(self):
        for dims in ((1, 1, 1), (3, 4, 5)):
            empty = SparseTensor3.empty(dims)
            assert _working_form(empty) is empty
            ws = _Workspace(empty)
            assert ws.tensor is empty and ws.tnorm == 0.0
            assert not ws.mttkrp(1, np.ones((dims[1], 2)), np.ones((dims[2], 2))).any()

    def test_dense_input_not_copied(self, rng):
        dense = DenseTensor3(rng.standard_normal((3, 4, 5)))
        assert _working_form(dense) is dense
        assert _Workspace(dense).tensor is dense


class TestMttkrpIdentity:
    def test_cp_identity_all_modes(self, rng):
        """matricize(reconstruct(M), n) == factor diag(w) KR^T — pins the layout."""
        m = random_model(rng, (4, 5, 6), 3)
        t = cp_reconstruct(m)
        w = np.diag(m.weights)
        pairs = {
            1: (m.A, khatri_rao(m.C, m.B)),
            2: (m.B, khatri_rao(m.C, m.A)),
            3: (m.C, khatri_rao(m.B, m.A)),
        }
        for mode, (factor, kr) in pairs.items():
            np.testing.assert_allclose(
                matricize(t, mode), factor @ w @ kr.T, atol=1e-10
            )

    def test_mttkrp_matches_matricized_product(self, rng):
        dims = (4, 7, 5)
        cases = {
            "random": random_sparse(rng, dims, 60),
            "empty": SparseTensor3.empty(dims),
            "single_entry": SparseTensor3.from_entries(dims, [(2, 3, 1, 1.5)]),
            # Rows 1 and 3 of mode 1, all but 1 and 5 of mode 2, 1-3 of mode 3.
            "empty_rows": SparseTensor3.from_entries(
                dims, [(i, j, k, rng.standard_normal()) for i in (0, 2) for j in (1, 5) for k in (0, 4)]
            ),
            # Distinct i everywhere: every (i, j), (j, i) and (k, i) fiber has one entry.
            "one_entry_fibers": SparseTensor3.from_entries(
                dims, [(i, int(rng.integers(7)), int(rng.integers(5)), 1.0 + i) for i in range(4)]
            ),
        }
        for case, tensor in cases.items():
            factors = tuple(rng.standard_normal((d, 3)) for d in dims)
            assert_sparse_kernels_match_dense(tensor, factors, check_ls=True, case=case)

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("used", [0, 1])
    @pytest.mark.parametrize("change", ["too_long", "too_short", "other_k"])
    def test_mttkrp_rejects_factor_shape(self, rng, fmt, mode, used, change):
        """Either factor the mode uses, with a row too many or too few or another k."""
        dims = (4, 5, 6)
        tensor = random_sparse(rng, dims, 40)
        if fmt == "dense":
            tensor = tensor.to_dense()
        factors = [rng.standard_normal((d, 2)) for d in dims]
        m = [n for n in range(3) if n != mode - 1][used]
        rows, k = {"too_long": (dims[m] + 1, 2), "too_short": (dims[m] - 1, 2), "other_k": (dims[m], 3)}[change]
        factors[m] = rng.standard_normal((rows, k))
        with pytest.raises(ValueError, match="shapes"):
            mttkrp(tensor, factors, mode)

    @pytest.mark.parametrize("case", ["random", "zero"])
    def test_dense_mttkrp_matches_matricized_product(self, rng, case):
        dims = (4, 7, 5)
        dense = DenseTensor3(rng.standard_normal(dims) if case == "random" else np.zeros(dims))
        factors = tuple(rng.standard_normal((d, 3)) for d in dims)
        ws = _Workspace(dense)
        for mode in (1, 2, 3):
            p, q = [f for m, f in enumerate(factors, start=1) if m != mode]
            expect = matricize(dense, mode) @ khatri_rao(q, p)
            tol = 1e-12 * max(1.0, np.abs(expect).max())
            for got in (mttkrp(dense, factors, mode), ws.mttkrp(mode, p, q)):
                np.testing.assert_allclose(got, expect, rtol=0, atol=tol, err_msg=f"mode {mode}")

    @given(
        dims=st.tuples(*(st.integers(1, 9),) * 3),
        rank=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        mode=st.integers(1, 3),
    )
    @example(dims=(50, 50, 50), rank=50, seed=0, mode=1)
    @example(dims=(50, 50, 50), rank=50, seed=0, mode=2)
    @example(dims=(50, 50, 50), rank=50, seed=0, mode=3)
    @example(dims=(5, 4, 1), rank=3, seed=1, mode=3)
    @example(dims=(5, 4, 6), rank=1, seed=2, mode=3)
    @example(dims=(1, 4, 6), rank=3, seed=3, mode=2)
    def test_mode3_partial_matches_natural_gemm(self, dims, rank, seed, mode):
        """The partial of every mode, mode 3's ``q^T @ T^T`` included, and
        ``T @ q`` over the mode moved last agree to rounding; their bits may not."""
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(dims)
        q = rng.standard_normal((dims[mode - 1], rank))
        flat = np.moveaxis(arr, mode - 1, -1).reshape(-1, dims[mode - 1])
        got = _dense_partial(arr, mode, q)
        assert got.shape == (rank, *(d for n, d in enumerate(dims, start=1) if n != mode))
        err = np.abs(got.reshape(rank, -1).T - flat @ q)
        assert (err <= 1e-12 * (np.abs(flat) @ np.abs(q))).all()

    def test_workspace_reuses_partial_only_for_equal_q(self, rng):
        """The kept mode-3 partial must follow q's values, not its identity."""
        dense = DenseTensor3(rng.standard_normal((4, 7, 5)))
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((7, 3))
        q, other = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        ws = _Workspace(dense)

        def check(mode, p, q):
            expect = matricize(dense, mode) @ khatri_rao(q, p)
            np.testing.assert_allclose(ws.mttkrp(mode, p, q), expect, rtol=0, atol=1e-12 * np.abs(expect).max())

        check(1, b, q)
        check(2, a, other)
        check(1, b, q)
        q[1:] *= -2.0
        check(2, a, q)

    @pytest.mark.parametrize("kept", [1, 2, 3])
    def test_workspace_partial_follows_values(self, rng, monkeypatch, kept):
        """A mode-``kept`` partial, formed by the update of the mode after
        ``kept``, serves the third mode's update while its factor has the
        same values, in a copy too, and only then: an in-place change of the
        array after a hit forms it anew."""
        dense = DenseTensor3(rng.standard_normal((4, 7, 5)))
        factors = [rng.standard_normal((d, 3)) for d in dense.dims]
        formed = []
        real = tensors._dense_partial
        monkeypatch.setattr(
            tensors, "_dense_partial", lambda arr, mode, f: formed.append(mode) or real(arr, mode, f)
        )
        ws = _Workspace(dense)

        def check(mode, factors):
            p, q = (f for n, f in enumerate(factors, start=1) if n != mode)
            expect = matricize(dense, mode) @ khatri_rao(q, p)
            np.testing.assert_allclose(ws.mttkrp(mode, p, q), expect, rtol=0, atol=1e-12 * np.abs(expect).max())

        first = kept % 3 + 1
        third = 6 - kept - first
        check(first, factors)
        assert formed == [kept]
        factors[first - 1] = rng.standard_normal(factors[first - 1].shape)
        check(third, [f.copy() for f in factors])
        assert formed == [kept]
        factors[kept - 1][1:] *= -2.0
        check(third, factors)
        assert formed == [kept, tensors._partial_mode(third)]

    def test_workspace_drops_the_old_partial_before_forming_the_next(self, rng):
        """A miss frees the kept partial first, so a call that swaps one
        partial for another allocates far less than a second partial."""
        dense = DenseTensor3(rng.standard_normal((30, 30, 30)))
        a, b, c = (rng.standard_normal((30, 20)) for _ in range(3))
        partial_bytes = 20 * 30 * 30 * 8
        ws = _Workspace(dense)
        tracemalloc.start()
        try:
            ws.mttkrp(1, b, c)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ws.mttkrp(3, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < partial_bytes // 2

    @pytest.mark.parametrize("budget", [1, 2, 5, 12])
    def test_row_blocks_match_one_block(self, rng, budget):
        """Budgets far below every test tensor's size force many row blocks.

        Budget 1 gives each block one row and more fibers than the budget,
        and k = 3 exceeds budgets 1 and 2.
        """
        dims = (6, 7, 5)
        cases = {
            "random": random_sparse(rng, dims, 60),
            "empty": SparseTensor3.empty(dims),
            # Mode-1 row 0 holds seven (0, j) fibers, more than one block's
            # share at every budget and k here but budget 12 at k = 1; every
            # other row but 3 is empty.
            "long_row": SparseTensor3.from_entries(
                dims, [(0, j, j % 5, 1.0 + j) for j in range(7)] + [(3, 2, 4, -2.0)]
            ),
            # Mode-1 rows 1, 2, 4 and 5 are empty: at, before and between cuts.
            "empty_rows": SparseTensor3.from_entries(
                dims, [(i, j, k, rng.standard_normal()) for i in (0, 3) for j in (1, 4, 6) for k in (0, 2)]
            ),
        }
        for case, tensor in cases.items():
            for rank in (1, 3):
                factors = tuple(rng.standard_normal((d, rank)) for d in dims)
                assert_blocks_match_one_block(tensor, factors, budget, f"{case} k={rank}")

    @given(
        dims=st.tuples(*(st.integers(1, 6),) * 3),
        nnz=st.integers(0, 50),
        rank=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 64),
    )
    def test_mttkrp_property_matches_dense(self, dims, nnz, rank, seed, budget):
        rng = np.random.default_rng(seed)
        tensor = random_sparse(rng, dims, nnz)
        factors = tuple(rng.standard_normal((d, rank)) for d in dims)
        assert_blocks_match_one_block(tensor, factors, budget)

    @pytest.mark.parametrize("budget", [1, 2, 5, 12])
    def test_mode_plan_cuts_whole_rows_within_budget(self, rng, budget):
        """Blocks tile the output rows, each as many whole rows as fit in the
        budget (one row if that row alone has more fibers)."""
        dims = (6, 7, 5)
        cases = {
            "random": random_sparse(rng, dims, 60),
            "long_row": SparseTensor3.from_entries(
                dims, [(0, j, j % 5, 1.0 + j) for j in range(7)] + [(3, 2, 4, -2.0)]
            ),
        }
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensors, "_BLOCK_FLOATS", budget)
            for (case, tensor), mode, rank in itertools.product(cases.items(), (1, 2, 3), (1, 3)):
                label = f"{case} mode {mode} k={rank}"
                plan = _mode_plan(tensor, mode, rank)
                assert (plan.n_rows, plan.budget) == (dims[mode - 1], max(1, budget // rank)), label
                fiber_rows = np.unique(np.delete(tensor.indices, 1 if mode == 3 else 2, axis=1), axis=0)
                row_fibers = np.bincount(fiber_rows[:, 0 if mode == 1 else 1], minlength=plan.n_rows)
                r = 0
                for r0, r1, fibers, sums, fiber_p in plan.blocks:
                    n_fibers = row_fibers[r0:r1].sum()
                    assert r0 == r and r1 > r0, label
                    assert fibers.shape[0] == sums.shape[1] == fiber_p.size == n_fibers, label
                    assert fibers.indptr.size == n_fibers + 1 and sums.indices.size == n_fibers, label
                    assert sums.shape[0] == r1 - r0 and sums.indptr.size == r1 - r0 + 1, label
                    assert n_fibers <= plan.budget or r1 - r0 == 1, label
                    if r1 < plan.n_rows:
                        assert n_fibers + row_fibers[r1] > plan.budget, label
                    r = r1
                assert r == plan.n_rows, label
                assert (len(plan.blocks) == 1) == (row_fibers.sum() <= plan.budget), label

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_mode_plan_blocks_are_arrays_sliced_from_one_sorted_copy(self, rng, monkeypatch, mode):
        """A block holds plain CSR arrays, no scipy matrix, and the values
        of a many-block plan are slices of one sorted array: mode 1's are
        the tensor's own."""
        tensor = random_sparse(rng, (40, 30, 20), 4000)
        monkeypatch.setattr(tensors, "_BLOCK_FLOATS", 64)
        plan = _mode_plan(tensor, mode, 4)
        assert len(plan.blocks) > 10
        for block in plan.blocks:
            assert not any(scipy.sparse.issparse(x) for x in block)
            assert isinstance(block[2], tensors._Csr) and isinstance(block[3], tensors._Csr)
        values = [block[2].data for block in plan.blocks]
        base = values[0].base
        assert sum(v.size for v in values) == tensor.nnz
        assert all(np.shares_memory(v, base) for v in values)
        assert np.shares_memory(base, tensor.values) == (mode == 1)

    def test_mode_order_narrow_sort_key_matches_int64_argsort(self, rng):
        """Mode 2 sorts on a uint32 key (d2 > 65535) and mode 3 on a uint8 key (d3 <= 255)."""
        dims = (3, 70_000, 200)
        n = 2000
        # Few distinct mode-2 indices, all near the 16-bit limit, give many ties.
        idx = np.column_stack([
            rng.integers(0, 3, n), rng.choice([0, 65535, 65536, 69_999], n), rng.integers(0, 200, n)
        ])
        tensor = SparseTensor3(dims, idx, rng.standard_normal(n))
        for mode in (1, 2, 3):
            expect = np.argsort(tensor.indices[:, mode - 1].astype(np.int64), kind="stable")
            # Mode 1 is not sorted: the canonical order already is its stable order.
            got = _mode_order(tensor, mode) if mode != 1 else np.arange(tensor.nnz)
            assert_same_bits(got, expect, f"mode {mode}")
            # The plan's fibers hold the q indices and values in that order.
            fibers = [block[2] for block in _mode_plan(tensor, mode, 1).blocks]
            assert_same_bits(np.concatenate([f.data for f in fibers]), tensor.values[expect])
            q_idx = tensor.indices[expect, 1 if mode == 3 else 2]
            assert np.array_equal(np.concatenate([f.indices for f in fibers]), q_idx), f"mode {mode}"


def assert_matches_coo_oracle(s, idx, vals):
    """``s`` holds exactly the nonzero sums of the given entries, in (i, j, k) order."""
    sums = defaultdict(float)
    for (i, j, k), v in zip(idx.tolist(), vals.tolist()):
        sums[(i, j, k)] += v
    expect = sorted((key, v) for key, v in sums.items() if v != 0.0)
    assert s.indices.tolist() == [list(key) for key, _ in expect]
    assert s.values.tolist() == [v for _, v in expect]
    assert s.indices.dtype == np.int64 and s.values.dtype == np.float64
    assert not s.indices.flags.writeable and not s.values.flags.writeable


def assert_sparse_kernels_match_dense(tensor, factors, check_ls=False, case=""):
    """Every sparse MTTKRP caller against the dense path, all three modes, to 1e-12."""
    dense = tensor.to_dense()
    ws = _Workspace(tensor)
    for mode in (1, 2, 3):
        p, q = [f for m, f in enumerate(factors, start=1) if m != mode]
        expect = matricize(dense, mode) @ khatri_rao(q, p)
        tol = 1e-12 * max(1.0, np.abs(expect).max())
        label = f"{case} mode {mode}"
        for got in (mttkrp(tensor, factors, mode), mttkrp(dense, factors, mode), ws.mttkrp(mode, p, q)):
            np.testing.assert_allclose(got, expect, rtol=0, atol=tol, err_msg=label)
        if check_ls:
            expect_ls = ls_solve_kr(matricize(dense, mode), p, q)
            np.testing.assert_allclose(
                ls_solve_kr(matricize(tensor, mode), p, q),
                expect_ls,
                rtol=0,
                atol=1e-12 * max(1.0, np.abs(expect_ls).max()),
                err_msg=label,
            )


def sparse_kernel_outputs(tensor, factors):
    """Public ``mttkrp``, ``_Workspace.mttkrp`` and sparse ``ls_solve_kr``, all three modes."""
    ws = _Workspace(tensor)
    out = []
    for mode in (1, 2, 3):
        p, q = [f for m, f in enumerate(factors, start=1) if m != mode]
        out += [mttkrp(tensor, factors, mode), ws.mttkrp(mode, p, q), ls_solve_kr(matricize(tensor, mode), p, q)]
    return out


def assert_same_bits(got, expect, label=""):
    assert got.dtype == expect.dtype and got.shape == expect.shape, label
    assert got.tobytes() == expect.tobytes(), label


def assert_blocks_match_one_block(tensor, factors, budget, case=""):
    """Under a row-block budget of ``budget`` floats every sparse MTTKRP caller
    gives the one-block bits and matches the dense path."""
    one_block = sparse_kernel_outputs(tensor, factors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensors, "_BLOCK_FLOATS", budget)
        for got, expect in zip(sparse_kernel_outputs(tensor, factors), one_block):
            assert_same_bits(got, expect, f"{case} budget {budget}")
        assert_sparse_kernels_match_dense(tensor, factors, check_ls=True, case=case)


class TestIncoherence:
    def test_orthonormal_zero(self):
        assert incoherence(np.eye(4)[:, :3]) == 0.0

    def test_duplicate_column_one(self):
        e = np.eye(3)[:, :1]
        assert incoherence(np.hstack([e, e])) == pytest.approx(1.0)

    def test_hand_value(self):
        e1 = np.array([1.0, 0.0, 0.0])
        v = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        assert incoherence(np.column_stack([e1, v])) == pytest.approx(1 / math.sqrt(2))

    def test_single_column(self):
        assert incoherence(np.eye(3)[:, :1]) == 0.0

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            incoherence(2.0 * np.eye(3))


class TestNormalizeColumns:
    def test_zero_column_replaced(self):
        m = np.zeros((3, 2))
        m[:, 1] = [0.0, 3.0, 4.0]
        unit, norms = normalize_columns(m)
        assert norms[0] == 0.0 and norms[1] == pytest.approx(5.0)
        np.testing.assert_array_equal(unit[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(np.linalg.norm(unit, axis=0), 1.0)

    def test_reconstructs(self, rng):
        m = rng.standard_normal((4, 3))
        unit, norms = normalize_columns(m)
        np.testing.assert_allclose(unit * norms, m, atol=1e-12)

    def test_huge_column_comes_out_unit(self, rng):
        """Entries near 1e160 have squares above the largest float, so the
        column's norm read as inf and its quotient as 0, with an overflow
        warning.  Ordinary columns keep one division's bits."""
        m = rng.standard_normal((4, 3))
        m[:, 1] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit, norms = normalize_columns(m)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=0), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(unit * norms, m, rtol=1e-12)
        ordinary = m[:, [0, 2]]
        np.testing.assert_array_equal(unit[:, [0, 2]], ordinary / np.linalg.norm(ordinary, axis=0))
        CpModel(norms, unit, unit, unit)

    def test_tiny_column_comes_out_unit(self, rng):
        """Entries near 1e-160 have squares below the smallest normal float,
        so one division by the computed norm left a column 5e-6 off unit,
        which ``CpModel`` rejects.  Ordinary columns keep one division's bits."""
        m = rng.standard_normal((4, 3))
        m[:, 1] *= 1e-160
        unit, norms = normalize_columns(m)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=0), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(unit * norms, m, rtol=1e-12)
        once = m / np.linalg.norm(m, axis=0)
        np.testing.assert_array_equal(unit[:, [0, 2]], once[:, [0, 2]])
        CpModel(norms, unit, unit, unit)


# Prints, for the paper's d=100, k=30, ratio-100 instance, its norm and a
# seeded Hybrid-ALS residual trace, and for a sparse tensor above the dense
# size cap, its norm and its Gram-identity residual.
_BLAS_PROBE = """
import numpy as np
from tenfact.bench import SynthSpec, gen_random_cp
from tenfact.decompose import DecompConfig, hybrid_run
from tenfact.tensors import CpModel, SparseTensor3, residual_ratio

spec = SynthSpec(d=100, k=30, weight_scheme="geometric", weight_ratio=100.0, seed=1)
_, dense = gen_random_cp(spec)
trace = hybrid_run(dense, DecompConfig(rank=30, seed=2, record_trace=True)).residual_trace
rng = np.random.default_rng(3)
sparse = SparseTensor3((200, 200, 200), rng.integers(0, 200, (300_000, 3)), rng.random(300_000))
factors = [f / np.linalg.norm(f, axis=0) for f in rng.standard_normal((3, 200, 4))]
model = CpModel(np.ones(4), *factors)
print(repr(dense.norm()), trace.tobytes().hex(), repr(sparse.norm()), repr(residual_ratio(sparse, model)))
"""


def test_norms_and_residuals_do_not_depend_on_blas_threads():
    """OpenBLAS splits a long dot product over its threads; the tensor norm
    and both residual branches must not take their bits from that split."""
    src = str(Path(tensors.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout)
    assert outputs[0].count(" ") == 3
    assert outputs[0] == outputs[1]


# Prints one hash per result of the sparse kernels on a 200^3 tensor that
# stays sparse, each of whose plans at rank 50 has several row blocks: an
# Orth-ALS model and trace, the Gram-identity residual, the public MTTKRP of
# every mode, a sparse least-squares update and a batched power method.
_FIBER_THREADS_PROBE = """
import hashlib
import numpy as np
from tenfact.decompose import DecompConfig, orth_als_run, tpm_multi
from tenfact.linalg import ls_solve_kr
from tenfact.tensors import SparseTensor3, _mode_plan, matricize, mttkrp, residual_ratio

rng = np.random.default_rng(3)
t = SparseTensor3((200, 200, 200), rng.integers(0, 200, (300_000, 3)), rng.random(300_000))
assert min(len(_mode_plan(t, mode, 50).blocks) for mode in (1, 2, 3)) > 2
fit = orth_als_run(t, DecompConfig(rank=50, max_iters=3, seed=2, record_trace=True))
m = fit.model
factors = rng.standard_normal((3, 200, 50))
tpm = tpm_multi(t, n_inits=20, iters=5, rank=3, seed=4)
results = [m.weights, m.A, m.B, m.C, fit.residual_trace, np.array(residual_ratio(t, m))]
results += [mttkrp(t, factors, mode) for mode in (1, 2, 3)]
results += [ls_solve_kr(matricize(t, 1), factors[1], factors[2])]
results += [tpm.weights, tpm.A, tpm.B, tpm.C]
print(*(hashlib.sha256(np.ascontiguousarray(r).tobytes()).hexdigest()[:16] for r in results))
"""


def _probe_output(script, **env):
    src = str(Path(tensors.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return run.stdout


def test_sparse_kernels_do_not_depend_on_mttkrp_threads():
    """The sparse MTTKRP's row blocks run on ``TENFACT_THREADS`` threads;
    every result built on it must not take a bit from their number."""
    outputs = [_probe_output(_FIBER_THREADS_PROBE, TENFACT_THREADS=n) for n in ("1", "2")]
    assert outputs[0].count(" ") == 13
    assert outputs[0] == outputs[1]


# Prints one SHA-256 per orthogonalized fit of a 200^3 tensor that stays
# sparse, each of whose plans at rank 50 has several row blocks.
_SPARSE_FIT_PROBE = """
import hashlib
import numpy as np
from tenfact.decompose import ALS_RUNNERS, DecompConfig
from tenfact.tensors import SparseTensor3, _mode_plan, _working_form

rng = np.random.default_rng(3)
t = SparseTensor3((200, 200, 200), rng.integers(0, 200, (300_000, 3)), rng.random(300_000))
assert _working_form(t) is t
assert min(len(_mode_plan(t, mode, 50).blocks) for mode in (1, 2, 3)) > 2
for name in ("orth-als", "hybrid"):
    m = ALS_RUNNERS[name](t, DecompConfig(rank=50, max_iters=8, tol=1e-300, seed=2)).model
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(x).tobytes() for x in (m.weights, *m.factors)))
    print(name, digest.hexdigest())
"""


def test_sparse_fits_do_not_depend_on_blas_threads():
    """The README's promise that sparse ``orth-als`` and ``hybrid`` fits keep
    their bits at 1 and 2 OpenBLAS threads."""
    outputs = [
        _probe_output(_SPARSE_FIT_PROBE, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n) for n in ("1", "2")
    ]
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("k", [1, 7])
def test_csr_product_has_the_bits_of_scipy_matmul(rng, k):
    """The fiber kernel's two sparse products, written into buffers it owns,
    equal scipy's ``@`` bit for bit: a scipy whose ``@`` sums otherwise
    turns this test red."""
    plan = _mode_plan(random_sparse(rng, (30, 40, 50), 3000), 2, k)
    ((_, _, fibers, sums, _),) = plan.blocks
    as_scipy = [
        scipy.sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape) for a in (fibers, sums)
    ]
    for a, csr in zip((fibers, sums), as_scipy):
        # The index dtype is the one scipy's constructor chooses.
        assert a.indices.dtype == a.indptr.dtype == csr.indices.dtype == np.int32
    q = rng.standard_normal((50, k))
    y = np.full((fibers.shape[0], k), np.nan)
    _csr_product(fibers, q, y)
    assert_same_bits(y, as_scipy[0] @ q)
    out = np.full((sums.shape[0], k), np.nan)
    _csr_product(sums, y, out)
    assert_same_bits(out, as_scipy[1] @ y)


# At two threads, runs a dense fit, a completion, a one-block sparse power
# update and a multi-block sparse MTTKRP.  Prints the thread count at the
# start, then after each call the threads started so far and the count.
_THREAD_LIFETIME_PROBE = """
import threading
import tracemalloc
import numpy as np
from tenfact.bench import SynthSpec, gen_random_cp
from tenfact.completion import complete_masked, sample_completion_problem
from tenfact.decompose import DecompConfig, hybrid_run, tpm_run
from tenfact.tensors import SparseTensor3, _mode_plan, _working_form, mttkrp

started = []
start = threading.Thread.start
threading.Thread.start = lambda thread: started.append(thread) or start(thread)
print(threading.active_count())
_, dense = gen_random_cp(SynthSpec(d=20, k=3, seed=1))
rng = np.random.default_rng(5)
sparse = SparseTensor3((200, 200, 200), rng.integers(0, 200, (30_000, 3)), rng.random(30_000))
assert _working_form(sparse) is sparse
assert all(len(_mode_plan(sparse, mode, 1).blocks) == 1 for mode in (1, 2, 3))
assert len(_mode_plan(sparse, 2, 50).blocks) > 1
x, y, z = (v / np.linalg.norm(v) for v in rng.standard_normal((3, 200)))
for call in (
    lambda: hybrid_run(dense, DecompConfig(rank=3, seed=2)),
    lambda: complete_masked(sample_completion_problem(dense, 0.3, seed=3), 3),
    lambda: tpm_run(sparse, x, y, z, 5),
    lambda: mttkrp(sparse, rng.standard_normal((3, 200, 50)), 2),
):
    call()
    print(len(started), threading.active_count())
"""

# Forks right after a multi-block MTTKRP at two threads and prints the exit
# code of a child that runs the same MTTKRP; the alarm ends a child that
# waits for a thread that does not run there.
_FORK_PROBE = """
import os, signal, sys
import numpy as np
from tenfact.tensors import SparseTensor3, mttkrp

rng = np.random.default_rng(3)
t = SparseTensor3((200, 200, 200), rng.integers(0, 200, (300_000, 3)), rng.random(300_000))
factors = rng.standard_normal((3, 200, 50))
expect = mttkrp(t, factors, 2)
pid = os.fork()
if pid == 0:
    signal.alarm(30)
    sys.exit(0 if np.array_equal(mttkrp(t, factors, 2), expect) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def test_only_a_multi_block_sparse_mttkrp_starts_threads():
    """Dense and completion fits and rank-1 sparse updates start no thread,
    even where two threads are asked for, and the one worker that a
    multi-block MTTKRP starts does not outlive the call."""
    assert _probe_output(_THREAD_LIFETIME_PROBE, TENFACT_THREADS="2").splitlines() == [
        "1", "0 1", "0 1", "0 1", "1 1"
    ]


def test_forked_child_runs_multi_block_mttkrp():
    assert _probe_output(_FORK_PROBE, TENFACT_THREADS="2").strip() == "0"


def test_concurrent_multi_block_callers_get_one_block_bits(rng, monkeypatch):
    """More calling threads than cores run multi-block MTTKRPs at once, each
    with workers of its own, with thread switches forced often; each gets
    the bits of a one-block plan, which runs in its calling thread alone."""
    tensor = random_sparse(rng, (40, 30, 20), 4000)
    factors = [rng.standard_normal((d, 4)) for d in tensor.dims]
    expect = [mttkrp(tensor, factors, mode) for mode in (1, 2, 3)]
    monkeypatch.setattr(tensors, "_BLOCK_FLOATS", 64)
    assert all(len(_mode_plan(tensor, mode, 4).blocks) > 10 for mode in (1, 2, 3))
    wrong = []

    def caller():
        for _ in range(10):
            for mode in (1, 2, 3):
                if mttkrp(tensor, factors, mode).tobytes() != expect[mode - 1].tobytes():
                    wrong.append(mode)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == []
