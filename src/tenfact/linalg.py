"""Dense linear-algebra services: QR orthogonalization, Khatri-Rao least
squares, truncated SVD, nonsymmetric eigendecomposition, factor matching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DegenerateInputError, NumericalFailureError
from .tensors import SparseTensor3, khatri_rao, mttkrp

__all__ = [
    "orth_step",
    "ls_solve_kr",
    "top_svd",
    "eig_nonsym",
    "match_factors",
    "MatchResult",
]


# orth_step: a column whose R diagonal is at most this times the largest is
# numerically dependent on the columns before it.
_RANK_RTOL = 1e-12
# The Khatri-Rao Gram solve treats singular values of G at or below this
# times the largest as zero.
_RCOND = 1e-12


def orth_step(x):
    """Orthonormalize columns in place of a Gram-Schmidt sweep.

    Returns Q from the reduced QR factorization with the sign convention
    diag(R) > 0, so column i of Q depends only on columns 0..i of x and
    already-orthonormal prefixes are exact fixed points.  Raises
    :class:`DegenerateInputError` (listing the offending columns) when some
    R diagonal falls to ``_RANK_RTOL`` (1e-12) times the largest or below.
    """
    x = np.asarray(x, dtype=np.float64)
    d, k = x.shape
    if k > d:
        raise ValueError(f"cannot orthonormalize {k} columns in dimension {d}")
    q, r = np.linalg.qr(x, mode="reduced")
    diag = np.diagonal(r).copy()
    scale = np.abs(diag).max() if k else 0.0
    bad = np.flatnonzero(np.abs(diag) <= _RANK_RTOL * scale)
    if scale == 0.0 or bad.size:
        cols = bad if scale else np.arange(k)
        raise DegenerateInputError(
            f"rank-deficient input: columns {list(map(int, cols))} are numerically "
            "dependent on earlier columns",
            columns=cols,
        )
    signs = np.where(diag < 0, -1.0, 1.0)
    return q * signs


def ls_solve_kr(tmat, p, q):
    """Least-squares factor update against a Khatri-Rao design.

    Solves ``min_X || tmat - X @ khatri_rao(q, p).T ||_F`` via the normal
    equations: ``X = tmat (q ⊙ p) G^+`` with ``G = (q.T q) * (p.T p)``
    (Hadamard product of Grams), taken by :func:`_gram_solve`: through the
    inverse of G when G is well conditioned for ``_RCOND`` (1e-12), otherwise
    through ``pinv(G, _RCOND)``, which truncates singular values of G at or
    below ``_RCOND`` times the largest.  When p and q are orthonormal, G is the
    identity and the result is the MTTKRP to rounding.  A sparse ``tmat``
    is split into the (row, p, q) entries of a tensor whose mode-1
    matricization it is (column ``p + q * d_p``), and its MTTKRP is that
    tensor's mode-1 :func:`tenfact.tensors.mttkrp`.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape[1] != q.shape[1]:
        raise ValueError(f"column counts differ: {p.shape[1]} vs {q.shape[1]}")
    expected_cols = p.shape[0] * q.shape[0]
    if tmat.shape[1] != expected_cols:
        raise ValueError(
            f"matricization has {tmat.shape[1]} columns, factors imply {expected_cols}"
        )
    if scipy.sparse.issparse(tmat):
        coo = tmat.tocoo()
        q_idx, p_idx = np.divmod(coo.col, p.shape[0])
        dims = (tmat.shape[0], p.shape[0], q.shape[0])
        entries = SparseTensor3(dims, np.column_stack([coo.row, p_idx, q_idx]), coo.data)
        mtt = mttkrp(entries, (None, p, q), 1)
    else:
        mtt = np.asarray(tmat) @ khatri_rao(q, p)
    return _gram_solve(mtt, p, q)


def _gram_solve(mtt, p, q):
    """Normal-equations step ``mtt G^+`` with the Khatri-Rao Gram ``G = (q.T q) * (p.T p)``.

    G is k x k and symmetric positive semidefinite.  The step multiplies by
    ``inv(G)`` when that inverse exists and ``||G||_1 ||inv(G)||_1 k _RCOND < 1``:
    the product is the 1-norm condition number read off the inverse just
    formed, and since the 2-norm condition number is at most k times it, no
    such G has a singular value that ``pinv(G, _RCOND)`` would truncate.  Every
    other G (singular or nearly so, non-finite, or k = 0) takes
    ``pinv(G, _RCOND)``, whose SVD costs several times the inverse.
    """
    gram = (q.T @ q) * (p.T @ p)
    k = gram.shape[0]
    if k:
        try:
            inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            pass
        else:
            # A NaN condition number compares False and takes the fallback.
            if np.linalg.norm(gram, 1) * np.linalg.norm(inv, 1) * k * _RCOND < 1.0:
                return mtt @ inv
    return mtt @ np.linalg.pinv(gram, rcond=_RCOND)


def top_svd(m, k):
    """Rank-k truncated SVD ``(U, S, V)`` with singular values descending."""
    m = np.asarray(m, dtype=np.float64)
    if k > min(m.shape):
        raise ValueError(f"k={k} exceeds min(dims)={min(m.shape)}")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u[:, :k], s[:k], vh[:k].T


def eig_nonsym(m):
    """Eigendecomposition of a square (possibly nonsymmetric) matrix.

    Returns complex ``(values, vectors)`` with unit-norm eigenvector columns
    satisfying ``m @ V = V @ diag(values)``.  Non-convergence of the
    underlying QR iteration raises :class:`NumericalFailureError`.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eig_nonsym expects a square matrix")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition did not converge: {exc}") from exc
    return values, vectors


@dataclass(frozen=True)
class MatchResult:
    """Outcome of greedily matching recovered factors against ground truth.

    ``assignment[j]`` is the true column claimed by recovered column j, or -1
    when j went unused; the map is injective on matched entries.
    ``correlations[i]`` is the min-over-modes absolute correlation achieved
    for true column i by its greedy pick (0 when no recovered column was
    left).  ``recovered_count`` counts true factors whose correlation met the
    threshold.
    """

    assignment: np.ndarray
    correlations: np.ndarray
    recovered_count: int


def match_factors(truth, est, threshold=0.9):
    """Greedy factor matching at a per-mode correlation threshold.

    True factors are visited in descending ``|weight|`` order; each claims the
    unused recovered factor maximizing the minimum over modes of the absolute
    column correlation (ties broken by lower recovered index), and counts as
    recovered iff that minimum reaches ``threshold``.
    """
    if truth.dims != est.dims:
        raise ValueError(f"model dims differ: {truth.dims} vs {est.dims}")
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    corr_a = np.abs(truth.A.T @ est.A)
    corr_b = np.abs(truth.B.T @ est.B)
    corr_c = np.abs(truth.C.T @ est.C)
    score = np.minimum(np.minimum(corr_a, corr_b), corr_c)

    assignment = np.full(est.k, -1, dtype=np.int64)
    correlations = np.zeros(truth.k)
    used = np.zeros(est.k, dtype=bool)
    recovered = 0
    order = np.argsort(-np.abs(truth.weights), kind="stable")
    for i in order:
        free = np.flatnonzero(~used)
        if free.size == 0:
            break
        j = free[int(np.argmax(score[i, free]))]
        used[j] = True
        assignment[j] = i
        correlations[i] = score[i, j]
        if score[i, j] >= threshold:
            recovered += 1
    assignment.flags.writeable = False
    correlations.flags.writeable = False
    return MatchResult(assignment, correlations, recovered)
