"""Third-order tensor types and the algebraic kernels everything else consumes.

Tensors come in two flavors: :class:`DenseTensor3` (row-major numpy storage)
and :class:`SparseTensor3` (sorted, deduplicated COO triplets).  A low-rank
model is a :class:`CpModel`: weights plus three unit-column factor matrices,
so that ``T[i, j, k] = sum_r w[r] * A[i, r] * B[j, r] * C[k, r]``.  Factor
matrices are plain ``(d, k)`` float arrays throughout.

The flattening conventions are the single source of truth for the whole
package and are pinned by one algebraic identity: for every model,

    ``matricize(cp_reconstruct(m), 1) == m.A @ diag(w) @ khatri_rao(m.C, m.B).T``

and cyclically for modes 2 and 3.  Concretely, mode-1 matricization sends
entry ``(i, j, k)`` to row ``i``, column ``j + k * d2``, and
``khatri_rao(X, Y)`` places ``X[a] * Y[b]`` at row ``a * dY + b``.

Dense MTTKRPs all go through one kernel on the row-major array, which
never builds a matricization or a full Khatri-Rao product.
:class:`_KeptPartial` forms the partial ``Y = T x_m F`` of one mode ``m``
(:func:`_dense_partial`), one tensor-sized GEMM in the orientation that
packs the array best for that mode, and contracts ``Y`` with the factor of
the third mode, a small batched product.  The mode-``n`` MTTKRP forms the
partial of the mode before ``n``, cyclically (:func:`_partial_mode`).  A
partial serves the updates of both modes it keeps, so a workspace that keeps
the last one (``decompose._Workspace``) runs consecutive ALS sweeps on the
multi-sweep dimension tree of Ma & Solomonik (IPDPS 2021): each partial
serves two mode updates, 1.5 tensor-sized GEMMs per sweep instead of 2.

Sparse MTTKRPs all go through one fiber-compressed kernel, the CSF idea of
SPLATT (Smith & Karypis, IPDPS 2015), on one plan type, :class:`_ModePlan`,
built by :func:`_mode_plan`.  A plan sorts the nonzeros by (output index,
first other index) and stores each such fiber as one row of a CSR matrix
over the second other index; applying it costs one sparse-times-dense
product, one gather-and-scale per fiber and one segment sum per output row,
so each factor-row product is formed once per fiber, not once per nonzero.
The plan is cut into blocks, each a run of whole output rows with all of
their fibers, sized for rank ``k`` so that the kernel's temporaries stay in
cache, the blocking idea of CSF and of HiCOO (Li et al., SC 2018).  A
block's matrices are plain arrays (:class:`_Csr`), slices of the plan's
sorted arrays, which the kernel hands to scipy's compiled CSR product.
Every output row sums its own fibers in the same order whatever the
blocks, so blocking changes no bit of the result.  Each block writes only its own
output rows, so the blocks run on several threads, the slice-parallel
MTTKRP of SPLATT, and the thread count changes no bit either (see
:func:`_fiber_mttkrp`).

Index rows are ordered in one place: :func:`_linear_keys` forms the key
``(i*d2 + j)*d3 + k`` that sorts (i, j, k) rows, which the canonical COO
of the constructor, the repeat check :func:`_has_repeats`, the exact
sparse residual and the tri-occurrence build read, and :func:`_mode_order`
sorts one index column, as the fiber plans and completion's row solves
need.  Only keys that would overflow int64 fall back to a lexsort
(:func:`_lexsort_coo`).

Which of the two kernels a sparse tensor gets is decided by one rule on
its dims and stored count, :func:`_dense_enough`, which
:func:`_working_form` applies.  The public :func:`mttkrp` and
:func:`contract_mode3` run on the tensor they are given.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely across threads.  The module keeps
no state: a sparse MTTKRP of more than one block starts its threads and
joins them before it returns, and no other call starts a thread.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from .errors import InvalidConfigError

__all__ = [
    "DenseTensor3",
    "SparseTensor3",
    "CpModel",
    "matricize",
    "khatri_rao",
    "contract3",
    "contract_mode3",
    "mttkrp",
    "cp_reconstruct",
    "residual_ratio",
    "incoherence",
    "normalize_columns",
]

# Row blocks of the sparse MTTKRP keep each temporary at most this many
# floats (2 MB), however many fibers a tensor has, so that it stays in cache
# instead of being freshly paged in.  At k = 1 this still covers the 222k
# fibers of a 760k-nonzero tensor in one block, so rank-1 updates pay no
# per-block overhead.
_BLOCK_FLOATS = 1 << 18

# A sparse tensor is computed on as a dense copy when it has at most this many
# entries (a 32 MB array) and at least this share of them is stored.  From
# 10% stored on, the dense GEMM path ran the three MTTKRPs of a sweep faster
# than the fiber kernel at every size measured up to 158^3 (1 BLAS thread of
# a 2-core VM); near 5% the two were even.
_DENSE_MAX_ENTRIES = 4_000_000
_DENSE_MIN_DENSITY = 0.1

# A column or vector counts as unit-norm within this distance of norm 1.
_UNIT_NORM_TOL = 1e-9


class DenseTensor3:
    """Dense third-order tensor, row-major storage, all entries finite."""

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.ascontiguousarray(array, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-d array, got ndim={arr.ndim}")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor3 is immutable")

    @classmethod
    def zeros(cls, dims):
        return cls(np.zeros(dims, dtype=np.float64))

    @classmethod
    def from_flat(cls, dims, data):
        """Build from the flat row-major layout index(i,j,k) = i*d2*d3 + j*d3 + k."""
        d1, d2, d3 = dims
        flat = np.asarray(data, dtype=np.float64)
        if flat.size != d1 * d2 * d3:
            raise ValueError(
                f"flat data has {flat.size} entries, dims {dims} need {d1 * d2 * d3}"
            )
        return cls(flat.reshape(d1, d2, d3))

    @property
    def dims(self):
        return self.array.shape

    @property
    def data(self):
        """Flat row-major view of the entries."""
        return self.array.reshape(-1)

    @property
    def size(self):
        return self.array.size

    def norm(self):
        return math.sqrt(_sum_squares(self.data))

    def __repr__(self):
        return f"DenseTensor3(dims={self.dims})"


class SparseTensor3:
    """COO third-order tensor: sorted, deduplicated, no stored zeros.

    Both arrays are read-only.  As in the sparse storage of Bader & Kolda
    (SIAM J. Sci. Comput. 2007), coordinates are validated once and then
    shared: a tensor derived from another by a value-only transform
    (:meth:`_with_values`) shares its index array.  The arrays passed to
    the constructor are never shared.
    """

    __slots__ = ("dims", "indices", "values")

    def __init__(self, dims, indices, values):
        d1, d2, d3 = (int(d) for d in dims)
        if min(d1, d2, d3) < 1:
            raise ValueError(f"dims must be positive, got {dims}")
        idx = _checked_indices(indices, (d1, d2, d3))
        vals = np.asarray(values, dtype=np.float64).reshape(-1)
        if idx.shape[0] != vals.shape[0]:
            raise ValueError("indices and values disagree on entry count")
        if vals.size and not np.isfinite(vals).all():
            raise ValueError("tensor entries must be finite")
        idx, vals = _canonical_coo(idx, vals, (d1, d2, d3))
        self._set((d1, d2, d3), idx, vals)

    def _set(self, dims, idx, vals):
        idx.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("SparseTensor3 is immutable")

    def _with_values(self, values):
        """This tensor's sparsity pattern with new ``values``, one per stored entry.

        The result shares this tensor's read-only index array, and
        ``values``, which must be a fresh array, becomes its value array.
        Only the values are checked: if one is zero or non-finite, or their
        count differs, the full constructor takes them instead, and drops
        the zeros or raises its error.
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != self.values.shape or not (np.isfinite(vals).all() and vals.all()):
            return SparseTensor3(self.dims, self.indices, vals)
        out = object.__new__(SparseTensor3)
        out._set(self.dims, self.indices, vals)
        return out

    @classmethod
    def from_entries(cls, dims, entries):
        """Build from an iterable of (i, j, k, value) tuples."""
        arr = np.asarray(list(entries), dtype=np.float64).reshape(-1, 4)
        return cls(dims, arr[:, :3], arr[:, 3])

    @classmethod
    def empty(cls, dims):
        return cls(dims, np.empty((0, 3), dtype=np.int64), np.empty(0))

    @property
    def nnz(self):
        return self.values.size

    def to_dense(self):
        arr = np.zeros(self.dims, dtype=np.float64)
        if self.nnz:
            arr[self.indices[:, 0], self.indices[:, 1], self.indices[:, 2]] = self.values
        return DenseTensor3(arr)

    def norm(self):
        return math.sqrt(_sum_squares(self.values))

    def __repr__(self):
        return f"SparseTensor3(dims={self.dims}, nnz={self.nnz})"


def _checked_indices(indices, dims):
    """Entry indices as an ``(n, 3)`` int64 array, each within ``dims``.

    Any other shape but an empty one raises.  Input of a non-integer dtype
    must hold integral values, so that a float index is never silently
    truncated.  Integer input is not checked for that, so the large index
    arrays the package builds itself cost no extra pass.
    """
    idx = np.asarray(indices)
    if idx.size == 0:
        idx = idx.reshape(0, 3)
    elif idx.ndim != 2 or idx.shape[1] != 3:
        raise ValueError(f"entry indices must be an (n, 3) array, got shape {idx.shape}")
    if idx.dtype.kind not in "iu":
        idx = idx.astype(np.float64)
        if not (np.isfinite(idx) & (idx == np.trunc(idx))).all():
            raise ValueError("entry indices must be integers")
    idx = idx.astype(np.int64, copy=False)
    # One 1-D pass per column: a strided axis-0 reduction over the (n, 3)
    # array took about 6 times as long on 760k entries.
    if idx.size and any(col.min() < 0 or col.max() >= dim for col, dim in zip(idx.T, dims)):
        raise ValueError("entry index out of range for dims")
    return idx


def _dense_enough(dims, nnz):
    """The one density rule of the package: whether a sparse tensor of
    ``dims`` with ``nnz`` stored entries is computed on densely, as it is
    when it has at most ``_DENSE_MAX_ENTRIES`` entries and at least
    ``_DENSE_MIN_DENSITY`` of them are stored."""
    size = math.prod(dims)
    return size <= _DENSE_MAX_ENTRIES and nnz >= _DENSE_MIN_DENSITY * size


def _working_form(tensor):
    """The format a tensor is computed on.

    A :class:`SparseTensor3` that the density rule (:func:`_dense_enough`)
    admits becomes its dense copy, on which the GEMM kernel runs a sweep
    faster than the fiber kernel: the choice of storage by density of
    Bader & Kolda (SIAM J. Sci. Comput. 2007).  Every other tensor, a dense
    one included, is returned as it is.
    """
    if isinstance(tensor, SparseTensor3) and _dense_enough(tensor.dims, tensor.nnz):
        return tensor.to_dense()
    return tensor


def _linear_keys(i, j, k, dims):
    """The linear keys ``(i*d2 + j)*d3 + k`` of in-range index columns, or
    ``None`` where ``d1*d2*d3`` overflows int64.

    The one place the package orders index rows: in range, distinct rows
    have distinct keys, in (i, j, k) order, so a stable sort of the keys is
    the lexicographic sort of the rows, and a key is the row's flat
    row-major position.
    """
    if math.prod(int(d) for d in dims) > np.iinfo(np.int64).max:
        return None
    key = i * dims[1]
    key += j
    key *= dims[2]
    key += k
    return key


def _canonical_coo(idx, vals, dims):
    """Sort lexicographically by (i, j, k), sum duplicates, drop zeros.

    ``idx`` must be in range for ``dims``.  Input whose linear keys
    (:func:`_linear_keys`) strictly increase is already sorted and free of
    duplicates, and only has its zeros dropped; other input is sorted by a
    stable argsort of its keys, or, where the keys overflow int64, by
    :func:`_lexsort_coo`, which gives the same result.  The arrays
    returned never share memory with the input.
    """
    key = _linear_keys(*idx.T, dims)
    if key is None:
        return _lexsort_coo(idx, vals)
    if (key[1:] > key[:-1]).all():
        keep = vals != 0.0
        if keep.all():
            return idx.copy(), vals.copy()
        return idx[keep], vals[keep]
    order = np.argsort(key, kind="stable")
    key = key[order]
    return _summed_runs(idx, vals, order, key[1:] != key[:-1])


def _lexsort_coo(idx, vals):
    """:func:`_canonical_coo` for input in any order, by one lexsort: the
    fallback where the linear keys overflow, and the tests' reference."""
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    rows = idx[order]
    return _summed_runs(idx, vals, order, (rows[1:] != rows[:-1]).any(axis=1))


def _summed_runs(idx, vals, order, differs):
    """The rows of ``idx`` in ``order``, which sorts them, with each run of
    equal rows summed into one and zero sums dropped.  ``differs[r]`` tells
    whether sorted row ``r + 1`` differs from sorted row ``r``."""
    if idx.shape[0] == 0:
        return idx.astype(np.int64), vals.astype(np.float64)
    starts = np.flatnonzero(np.concatenate(([True], differs)))
    summed = np.add.reduceat(vals[order], starts)
    keep = summed != 0.0
    return idx[order[starts[keep]]], summed[keep]


def _has_repeats(idx, dims):
    """Whether some row of an in-range ``(n, 3)`` index array occurs more
    than once: two equal neighbours among its sorted linear keys, or, where
    those overflow, fewer rows left after :func:`_lexsort_coo` sums them."""
    key = _linear_keys(*idx.T, dims)
    if key is None:
        return _lexsort_coo(idx, np.ones(idx.shape[0]))[0].shape[0] < idx.shape[0]
    key.sort()
    return bool((key[1:] == key[:-1]).any())


class CpModel:
    """Rank-k CP model: weights plus unit-column factor matrices A, B, C."""

    __slots__ = ("weights", "A", "B", "C")

    _NORM_TOL = 1e-12

    def __init__(self, weights, A, B, C):
        w = np.array(weights, dtype=np.float64).reshape(-1)
        A = np.array(A, dtype=np.float64)
        B = np.array(B, dtype=np.float64)
        C = np.array(C, dtype=np.float64)
        k = w.size
        for name, f in (("A", A), ("B", B), ("C", C)):
            if f.ndim != 2 or f.shape[1] != k:
                raise ValueError(f"factor {name} must have shape (d, {k})")
            if f.size and not np.isfinite(f).all():
                raise ValueError(f"factor {name} has non-finite entries")
            _require_unit_columns(
                f, self._NORM_TOL, f"factor {name} column {{col}} has norm {{norm!r}}, expected 1"
            )
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        for arr in (w, A, B, C):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    def __setattr__(self, name, value):
        raise AttributeError("CpModel is immutable")

    @property
    def k(self):
        return self.weights.size

    @property
    def dims(self):
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])

    @property
    def factors(self):
        return (self.A, self.B, self.C)

    def canonical(self):
        """Sign-normalized copy: first nonzero of each A and B column positive,
        weights non-negative with the residual sign pushed into C."""
        if self.k == 0:
            return self
        sa = _leading_signs(self.A)
        sb = _leading_signs(self.B)
        w = self.weights * sa * sb
        sc = np.where(w < 0, -1.0, 1.0)
        return CpModel(w * sc, self.A * sa, self.B * sb, self.C * sc)

    def permuted(self, order):
        order = np.asarray(order, dtype=np.int64)
        return CpModel(
            self.weights[order], self.A[:, order], self.B[:, order], self.C[:, order]
        )

    def __repr__(self):
        return f"CpModel(dims={self.dims}, k={self.k})"


def _leading_signs(factor):
    """Sign of the first nonzero coordinate of each column (+1 for zero columns)."""
    d, k = factor.shape
    signs = np.ones(k)
    for r in range(k):
        nz = np.flatnonzero(factor[:, r])
        if nz.size:
            signs[r] = math.copysign(1.0, factor[nz[0], r])
    return signs


def _require_unit_columns(f, tol, message):
    """Raise ValueError unless every column of ``f`` has a norm within ``tol`` of 1.

    The error's text is ``message`` formatted with ``col``, the column whose
    norm is farthest from 1, and ``norm``, that norm.
    """
    norms = np.linalg.norm(f, axis=0)
    miss = np.abs(norms - 1.0)
    if miss.size and miss.max() > tol:
        bad = int(miss.argmax())
        raise ValueError(message.format(col=bad, norm=float(norms[bad])))


def normalize_columns(matrix):
    """Scale columns to unit norm.

    Returns ``(unit, norms)``.  Zero columns are replaced by the first
    coordinate vector and their norm reported as 0, so the pair always
    reconstructs ``matrix`` as ``unit * norms``.  The squares of a column
    whose norm is below ``sqrt(d * tiny)``, ``tiny`` the smallest normal
    float64, may underflow, which leaves its norm off and its quotient off
    unit; such a column is divided once more, by the norm of its quotient,
    whose entries are near 1.  The squares of a column with an entry above
    ``sqrt(max)``, ``max`` the largest float64, overflow, although its norm
    may be finite; such a column is divided first by its largest magnitude,
    then by the norm of that quotient.  So every column with a finite norm
    comes out unit, and every other column keeps the bits of one division.
    """
    m = np.array(matrix, dtype=np.float64)
    # np.linalg.norm's own sum, without its overflow warning.
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(m * m, axis=0))
    small = norms < math.sqrt(m.shape[0] * sys.float_info.min)
    big = np.isinf(norms)
    if not (small | big).any():
        m /= norms
        return m, norms
    dead = norms == 0.0
    first = np.where(dead, 1.0, norms)
    first[big] = np.abs(m[:, big]).max(axis=0)
    m /= first
    m[:, dead] = 0.0
    m[0, dead] = 1.0
    fix = (small | big) & ~dead
    again = np.linalg.norm(m[:, fix], axis=0)
    m[:, fix] /= again
    with np.errstate(over="ignore"):
        norms[fix] = first[fix] * again
    return m, norms


def matricize(tensor, mode):
    """Mode-n matricization.

    Mode 1 maps entry ``(i, j, k)`` to ``(i, j + k*d2)``, mode 2 to
    ``(j, i + k*d1)``, mode 3 to ``(k, i + j*d1)``; this is the ordering under
    which ``T_(1) = A diag(w) khatri_rao(C, B).T`` holds exactly for CP
    tensors.  Dense input yields a dense array, sparse input a CSR matrix.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    d1, d2, d3 = tensor.dims
    if isinstance(tensor, DenseTensor3):
        a = tensor.array
        if mode == 1:
            return np.ascontiguousarray(a.transpose(0, 2, 1).reshape(d1, d2 * d3))
        if mode == 2:
            return np.ascontiguousarray(a.transpose(1, 2, 0).reshape(d2, d1 * d3))
        return np.ascontiguousarray(a.transpose(2, 1, 0).reshape(d3, d1 * d2))
    i, j, k = tensor.indices[:, 0], tensor.indices[:, 1], tensor.indices[:, 2]
    if mode == 1:
        rows, cols, shape = i, j + k * d2, (d1, d2 * d3)
    elif mode == 2:
        rows, cols, shape = j, i + k * d1, (d2, d1 * d3)
    else:
        rows, cols, shape = k, i + j * d1, (d3, d1 * d2)
    return scipy.sparse.coo_matrix((tensor.values, (rows, cols)), shape=shape).tocsr()


def khatri_rao(x, y):
    """Columnwise Kronecker product: column r is ``kron(x[:, r], y[:, r])``.

    Row ``a * dY + b`` of the result holds ``x[a, r] * y[b, r]``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"column counts differ: {x.shape[1]} vs {y.shape[1]}"
        )
    dx, k = x.shape
    dy = y.shape[0]
    return (x[:, None, :] * y[None, :, :]).reshape(dx * dy, k)


def contract3(tensor, a, b, c):
    """Full trilinear contraction ``sum_ijk T[i,j,k] a[i] b[j] c[k]``."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    d1, d2, d3 = tensor.dims
    if (a.size, b.size, c.size) != (d1, d2, d3):
        raise ValueError(
            f"vector lengths {(a.size, b.size, c.size)} do not match dims {tensor.dims}"
        )
    if isinstance(tensor, DenseTensor3):
        return float(np.einsum("ijk,i,j,k->", tensor.array, a, b, c, optimize=True))
    idx, vals = tensor.indices, tensor.values
    return float(np.sum(vals * a[idx[:, 0]] * b[idx[:, 1]] * c[idx[:, 2]]))


def contract_mode3(tensor, v):
    """Contract the third mode with a vector: ``M[i, j] = sum_k T[i,j,k] v[k]``."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    d1, d2, d3 = tensor.dims
    if v.size != d3:
        raise ValueError(f"vector length {v.size} does not match d3={d3}")
    if isinstance(tensor, DenseTensor3):
        return tensor.array @ v
    idx, vals = tensor.indices, tensor.values
    out = np.bincount(idx[:, 0] * d2 + idx[:, 1], weights=vals * v[idx[:, 2]], minlength=d1 * d2)
    # Without entries bincount counts in integers.
    return out.reshape(d1, d2).astype(np.float64, copy=False)


def mttkrp(tensor, factors, mode):
    """Matricized tensor times Khatri-Rao product of the other two factors.

    For ``factors = (A, B, C)``: mode 1 computes ``T_(1) (C ⊙ B)``, mode 2
    ``T_(2) (C ⊙ A)``, mode 3 ``T_(3) (B ⊙ A)``.  This is the core kernel of
    every alternating update, and the full Khatri-Rao product is never
    materialized.  A dense tensor contracts the row-major array with the
    factor of the mode before ``mode``, cyclically, in one GEMM and the
    other factor in one small batched product (:class:`_KeptPartial`).  A
    sparse tensor gets a fiber plan for this one call (see
    :func:`_mode_plan`).  Callers that repeat a mode keep the plan, or the
    last dense partial, in a ``decompose._Workspace`` instead.  The two
    factors used must be ``(d_n, k)`` for their modes' dims ``d_n`` and one
    ``k``; the factor of ``mode`` itself is not read.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    used = [m for m in range(3) if m != mode - 1]
    p, q = (np.asarray(factors[m], dtype=np.float64) for m in used)
    k = p.shape[-1] if p.ndim else 0
    need = [(tensor.dims[m], k) for m in used]
    if [p.shape, q.shape] != need:
        raise ValueError(
            f"mode-{mode} factors {'ABC'[used[0]]}, {'ABC'[used[1]]} have shapes "
            f"{p.shape}, {q.shape}; expected {need[0]}, {need[1]}"
        )
    if isinstance(tensor, DenseTensor3):
        return _KeptPartial(tensor.array).mttkrp(mode, p, q)
    return _fiber_mttkrp(_mode_plan(tensor, mode, k), p, q)


def _partial_mode(mode):
    """The mode whose partial a mode-``mode`` MTTKRP forms: the one before it,
    cyclically (3 for 1, 1 for 2, 2 for 3)."""
    return (mode + 1) % 3 + 1


def _dense_partial(arr, mode, f):
    """``Y = T x_mode f``, the row-major tensor times ``f`` in mode ``mode``.

    ``Y[r, a, b]`` sums ``T`` against ``f[:, r]`` over mode ``mode``; ``a``
    and ``b`` run over the other two modes in order, so the shape is
    ``(k, d_a, d_b)``.  Each mode takes the GEMM orientation that packs the
    tensor best: mode 1 is ``f^T @ T_(1)`` over the ``(d1, d2*d3)`` layout,
    mode 2 one batched ``f^T @ T[i]`` per mode-1 slice, and mode 3
    ``f^T @ T^T`` over the ``(d1*d2, d3)`` layout.  On one BLAS thread of a
    2-core VM they took 1.13-1.17, 0.97-0.98 and 1.24-1.27 ms at d = 100,
    k = 30 (medians of 50 calls, two runs).  Mode 2's ``d1`` small products
    do not share out over BLAS threads: at 2 threads modes 1 and 3 took
    0.66-0.73 ms and mode 2 0.99-1.00 ms (medians of 41 calls, three runs),
    so the power method orders its updates to form no mode-2 partial
    (``decompose._power_kernel``).  Mode 3 is the ``T @ f`` of the
    natural layout in another orientation: each entry is the same
    ``d3``-term dot product, but the GEMM kernel accumulates it
    differently, so at (50, 50, 50), k = 50 some entries differ from
    ``T @ f`` in the last place.
    """
    d1, d2, d3 = arr.shape
    k = f.shape[1]
    if mode == 1:
        return (f.T @ arr.reshape(d1, d2 * d3)).reshape(k, d2, d3)
    if mode == 2:
        return np.matmul(f.T, arr).transpose(1, 0, 2)
    return (f.T @ arr.reshape(d1 * d2, d3).T).reshape(k, d1, d2)


class _KeptPartial:
    """The dense MTTKRP of one row-major array through the last partial it
    formed, ``y = _dense_partial(arr, m, F)``, kept with a copy of ``F``.

    A call of mode ``n`` with the factors ``p`` and ``q`` of the other two
    modes, in order, contracts ``y`` when ``m`` is one of those modes and
    the call's factor of mode ``m`` equals the copy by value.  Any other
    call first drops ``y``, so that at most one partial is alive, and forms
    the partial of ``_partial_mode(n)`` in its place.  Values, not
    identities, are compared, because callers may change an array in
    place.  The contraction with the third mode's factor is one batched
    product of a matrix and a vector per column, which measured faster than
    ``einsum`` (0.06-0.07 against 0.09-0.17 ms at d = 100, k = 30, one BLAS
    thread).
    """

    def __init__(self, arr):
        self.arr = arr
        self.mode = self.factor = self.y = None

    def mttkrp(self, mode, p, q):
        factor = dict(zip((m for m in (1, 2, 3) if m != mode), (p, q)))
        if self.mode not in factor or not np.array_equal(self.factor, factor[self.mode]):
            self.mode = self.y = None
            m = _partial_mode(mode)
            self.y = _dense_partial(self.arr, m, factor[m])
            self.mode, self.factor = m, np.array(factor[m])
        third = 6 - self.mode - mode
        # y's axes are (k, the smaller of mode and third, the larger).
        if mode < third:
            return np.matmul(self.y, factor[third].T[:, :, None])[:, :, 0].T
        return np.matmul(factor[third].T[:, None, :], self.y)[:, 0, :].T


def _mode_order(column, dim):
    """The stable order of an index column whose entries lie in ``range(dim)``.

    On a sparse tensor's mode-2 or mode-3 column it turns the canonical
    (i, j, k) order into (j, i, k) or (k, i, j) order.  The sort key is the
    index in the narrowest unsigned type that holds it, because numpy
    radix-sorts 8- and 16-bit keys; the order is the same as for the int64
    key.
    """
    return np.argsort(column.astype(np.min_scalar_type(dim - 1)), kind="stable")


def _mode_fibers(tensor, mode):
    """The fibers of a sparse tensor's mode-``mode`` MTTKRP, as its row blocks need them.

    A fiber is the run of nonzeros sharing one (output, p) index pair.
    Returns ``(fiber_bounds, row_bounds, fiber_p, q_idx, vals)``: the q
    indices and values in (output, p, q) order, fiber ``f`` holding entries
    ``fiber_bounds[f]:fiber_bounds[f + 1]`` and output row ``r`` fibers
    ``row_bounds[r]:row_bounds[r + 1]``, and each fiber's p index.  Mode 1
    needs no sort: the canonical (i, j, k) order already groups its (i, j)
    fibers.  The sorted output and p indices are freed on return.
    """
    idx, vals = tensor.indices, tensor.values
    other = [0, 1, 2]
    other.remove(mode - 1)
    out_idx, p_idx, q_idx = idx[:, mode - 1], idx[:, other[0]], idx[:, other[1]]
    if mode != 1:
        order = _mode_order(out_idx, tensor.dims[mode - 1])
        out_idx, p_idx, q_idx, vals = out_idx[order], p_idx[order], q_idx[order], vals[order]
    n = vals.size
    new_fiber = np.ones(n, dtype=bool)
    new_fiber[1:] = (out_idx[1:] != out_idx[:-1]) | (p_idx[1:] != p_idx[:-1])
    starts = np.flatnonzero(new_fiber)
    out_dim = tensor.dims[mode - 1]
    row_bounds = np.zeros(out_dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_idx[starts], minlength=out_dim), out=row_bounds[1:])
    return np.append(starts, n), row_bounds, p_idx[starts], q_idx, vals


class _Csr(NamedTuple):
    """A CSR matrix as the arrays that :func:`_csr_product` hands to
    ``csr_matvecs``: row pointers and column indices of one index dtype,
    the float64 values and the ``(rows, columns)`` shape."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


class _ModePlan(NamedTuple):
    """Sparse MTTKRP ``out[o] = sum_(p, q) T[o, p, q] P[p] * Q[q]`` by fibers, in row blocks.

    ``blocks`` holds one ``(r0, r1, fibers, sums, fiber_p)`` per run of
    whole output rows ``r0:r1``: their fibers as the :class:`_Csr` rows of
    a matrix over the q index, the 0/1 :class:`_Csr` matrix that sums each
    row's fibers, and each fiber's p.  ``budget`` is the block budget in
    fibers the plan was cut for (see :func:`_block_budget`).
    ``decompose._Workspace`` keeps one per mode, so that the blocks are cut
    once per run, not on every MTTKRP.
    """

    n_rows: int
    budget: int
    blocks: tuple


def _block_budget(k):
    """Fibers per row block at rank ``k``: ``_BLOCK_FLOATS // k``, at least one."""
    return max(1, _BLOCK_FLOATS // max(1, k))


def _mode_plan(tensor, mode, k):
    """The :class:`_ModePlan` of a sparse tensor's mode-``mode`` MTTKRP at rank ``k``.

    Each block holds as many whole output rows as fit in
    ``_block_budget(k)`` fibers, and at least one row, so a plan within
    budget is one block.  The blocks' values and q indices are slices of
    the sorted arrays of :func:`_mode_fibers` (mode 1's values are the
    tensor's own), so a plan holds them once however many blocks it has.
    Indices are int32 where every count and dimension fits, the index
    dtype scipy's CSR constructor chooses, and int64 otherwise.  The sum
    matrices of all blocks share one index range and one array of ones.
    """
    fiber_bounds, row_bounds, fiber_p, q_idx, vals = _mode_fibers(tensor, mode)
    fits = max(vals.size, *tensor.dims) <= np.iinfo(np.int32).max
    index = np.int32 if fits else np.int64
    fiber_bounds, row_bounds, q_idx = (x.astype(index) for x in (fiber_bounds, row_bounds, q_idx))
    n_rows = row_bounds.size - 1
    q_dim = tensor.dims[1 if mode == 3 else 2]
    budget = _block_budget(k)
    # No block has more fibers than the budget or than its one row.
    widest = min(fiber_p.size, max(budget, int(np.diff(row_bounds).max(initial=0))))
    ones, local = np.ones(widest), np.arange(widest, dtype=index)
    blocks = []
    r0 = 0
    while r0 < n_rows:
        f0 = row_bounds[r0]
        r1 = int(np.searchsorted(row_bounds, int(f0) + budget, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n_rows)
        f1 = row_bounds[r1]
        lo, hi = fiber_bounds[f0], fiber_bounds[f1]
        n = int(f1 - f0)
        fibers = _Csr(fiber_bounds[f0 : f1 + 1] - lo, q_idx[lo:hi], vals[lo:hi], (n, q_dim))
        sums = _Csr(row_bounds[r0 : r1 + 1] - f0, local[:n], ones[:n], (r1 - r0, n))
        blocks.append((r0, r1, fibers, sums, fiber_p[f0:f1]))
        r0 = r1
    return _ModePlan(n_rows, budget, tuple(blocks))


def _fiber_mttkrp(plan, p, q):
    """Apply a :class:`_ModePlan`: in each row block ``Y = fibers @ Q``, scale
    each fiber by its P row, then sum each output row's fibers.  Rows
    without nonzeros come out zero.

    The blocks are dealt out in strided shares, ``blocks[i::n]``, ``n`` the
    thread count of :func:`_thread_count`, read at each call, but at most
    the number of blocks.  The calling thread runs share 0 and ``n - 1``
    workers started for this call the others, and all are joined before it
    returns.  A one-block plan, such as every rank-1 update's, runs in the
    calling thread alone and reads no thread count.  Each share works in
    two arrays of its largest block's fibers times ``k``, allocated here:
    glibc gives each thread its own malloc arena, and temporaries allocated
    in the workers raised the peak resident memory of a desk fit by about
    7 MB.  Each block writes only its own output rows, and each row sums
    its own fibers in the same order whatever the blocks and threads, so
    neither changes a bit of the result.
    """
    blocks = plan.blocks
    n = min(_thread_count(), len(blocks)) if len(blocks) > 1 else 1
    shares = [blocks[i::n] for i in range(n)]
    k = p.shape[1]
    buffers = [np.empty((2, max(b[2].shape[0] for b in share), k)) for share in shares]
    out = np.empty((plan.n_rows, k))
    q = np.ascontiguousarray(q)
    if n == 1:
        _fiber_share(blocks, p, q, buffers[0], out)
        return out
    with ThreadPoolExecutor(n - 1, "tenfact-mttkrp") as pool:
        futures = [
            pool.submit(_fiber_share, share, p, q, buf, out)
            for share, buf in zip(shares[1:], buffers[1:])
        ]
        _fiber_share(shares[0], p, q, buffers[0], out)
    for future in futures:
        future.result()
    return out


def _fiber_share(blocks, p, q, buf, out):
    """Run ``blocks`` of a :class:`_ModePlan` into their rows of ``out``,
    through the two halves of ``buf``."""
    for r0, r1, fibers, sums, fiber_p in blocks:
        y, g = buf[:, : fibers.shape[0]]
        _csr_product(fibers, q, y)
        # With mode="raise", a take into ``out`` goes through a buffer of its own.
        np.take(p, fiber_p, axis=0, out=g, mode="clip")
        y *= g
        _csr_product(sums, y, out[r0:r1])


def _csr_product(a, x, out):
    """``a @ x`` for a :class:`_Csr` ``a`` and a C-contiguous ``(n, k)``
    array ``x``, written into the C-contiguous ``out``.

    It calls the routine that scipy's ``@`` calls on a CSR matrix of
    ``a``'s arrays for a many-column ``x``, ``csr_matvecs``, on a zeroed
    ``out``, as scipy does on a fresh array.  At ``k = 1``, where scipy's
    ``@`` calls ``csr_matvec``, the two routines add the same products in
    the same order, so at every ``k`` the bits are those of ``a @ x``.
    """
    out.fill(0.0)
    n_rows, n_cols = a.shape
    _sparsetools.csr_matvecs(
        n_rows, n_cols, x.shape[1], a.indptr, a.indices, a.data, x.ravel(), out.ravel()
    )


def _thread_count(text=None):
    """A thread count: ``text``, by default ``TENFACT_THREADS``, as a positive integer.

    Where neither is set (or is empty) it is the number of CPUs this process
    may run on, ``len(os.sched_getaffinity(0))``.  Any other text raises
    :class:`InvalidConfigError`.  The CLI's ``--threads`` and the sparse
    MTTKRP (:func:`_fiber_mttkrp`) both count threads by this rule.
    """
    if text is None:
        text = os.environ.get("TENFACT_THREADS")
    if not text:
        return len(os.sched_getaffinity(0))
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidConfigError(
            f"--threads and TENFACT_THREADS take a positive integer, got {text!r}"
        )
    return value


def cp_reconstruct(model):
    """Dense tensor ``sum_r w[r] A[:,r] ⊗ B[:,r] ⊗ C[:,r]``."""
    return DenseTensor3(_dense_model(model.weights, *model.factors).reshape(model.dims))


def _dense_model(w, a, b, c, out=None):
    """The model in the row-major ``(d1, d2*d3)`` layout, ``(A diag(w)) khatri_rao(B, C)^T``.

    One GEMM, written into ``out`` when given.  :func:`cp_reconstruct` and
    the exact residual (:func:`_residual_norm`) both form the model here, so
    a tensor reconstructed from a model has residual exactly 0.0 against it.
    """
    return np.matmul(a * w, khatri_rao(b, c).T, out=out)


def residual_ratio(tensor, model):
    """Relative Frobenius reconstruction error ``||T - T_hat|| / ||T||``.

    A zero tensor yields 0.0 when the model also reconstructs zero and
    ``math.inf`` otherwise, so callers can branch deterministically.  A
    sparse tensor that :func:`_working_form` densifies has the bits of its
    dense copy.  The residual is :func:`_residual_norm`'s.
    """
    if tensor.dims != model.dims:
        raise ValueError(f"tensor dims {tensor.dims} != model dims {model.dims}")
    tensor = _working_form(tensor)
    return _relative(_residual_norm(tensor, model.weights, *model.factors), tensor.norm())


def _relative(rnorm, tnorm):
    """``rnorm / tnorm``; for a zero tensor 0.0 if ``rnorm`` is 0, else ``inf``."""
    if tnorm == 0.0:
        return 0.0 if rnorm == 0.0 else math.inf
    return rnorm / tnorm


def _exact_residual(tensor):
    """Whether :func:`_residual_norm` is exact for ``tensor``: a dense one, or
    any of at most ``_DENSE_MAX_ENTRIES`` entries, the size of a dense copy."""
    return isinstance(tensor, DenseTensor3) or math.prod(tensor.dims) <= _DENSE_MAX_ENTRIES


def _sum_squares(v):
    """``sum(v**2)`` of a flat float64 array, the same bits at any BLAS thread count.

    A BLAS dot product (``v @ v``, ``np.linalg.norm``) splits a long vector
    across its threads and adds the parts in an order that depends on their
    number.  ``einsum`` sums in numpy's own loop instead.
    """
    return float(np.einsum("i,i->", v, v))


def _gram_residual_norm(t_sq, inner, model_sq):
    """``||T - M||_F`` by the Gram identity ``||T||^2 - 2 <T, M> + ||M||^2``.

    It needs no model-sized array, only ``t_sq = ||T||^2``, the inner
    product ``<T, M>`` and ``model_sq = ||M||^2``, but it loses accuracy to
    cancellation near an exact fit: a relative residual ``rho`` is read with
    an absolute error of order ``eps / rho``.
    """
    return math.sqrt(max(t_sq - 2.0 * inner + model_sq, 0.0))


def _residual_norm(tensor, w, a, b, c, out=None):
    """``||T - M||_F`` of a tensor and the CP model ``M = [[w; a, b, c]]``.

    Where :func:`_exact_residual` holds, the model (:func:`_dense_model`) is
    written into ``out``, or a fresh array, and the tensor subtracted in
    place: a dense array whole, a sparse tensor's values at their flat
    indices (:func:`_linear_keys`), unique in canonical COO.  Both have the
    dense copy's bits, as ``x - 0.0 == x``, and the buffer's sum of squares
    is :func:`_sum_squares`'s, as in the tensors' ``norm``.  Otherwise it
    is :func:`_gram_residual_norm`, with ``<T, M>`` from the mode-1 MTTKRP,
    whose fibers need no sort.
    """
    if not _exact_residual(tensor):
        inner = float(np.einsum("ir,ir->r", a, mttkrp(tensor, (a, b, c), 1)) @ w)
        model_sq = float(w @ ((a.T @ a) * (b.T @ b) * (c.T @ c)) @ w)
        return _gram_residual_norm(_sum_squares(tensor.values), inner, model_sq)
    v = _dense_model(w, a, b, c, out).reshape(-1)
    if isinstance(tensor, DenseTensor3):
        v -= tensor.data
    else:
        v[_linear_keys(*tensor.indices.T, tensor.dims)] -= tensor.values
    return math.sqrt(_sum_squares(v))


def incoherence(factor):
    """Maximum absolute inner product between distinct unit-norm columns.

    A column whose norm is more than 1e-9 (``_UNIT_NORM_TOL``) from 1 raises
    ValueError.
    """
    f = np.asarray(factor, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("expected a factor matrix")
    k = f.shape[1]
    if k == 0:
        raise ValueError("factor matrix has no columns")
    _require_unit_columns(f, _UNIT_NORM_TOL, "column {col} has norm {norm!r}; unit columns required")
    if k == 1:
        return 0.0
    gram = np.abs(f.T @ f)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())
