"""Tensor completion by alternating least squares restricted to observed entries.

A :class:`CompletionProblem` stores the revealed entries of an otherwise
unknown tensor.  Structural missingness is distinct from an observed zero:
nonzero observations live in a sparse tensor, observed zeros in a dedicated
index list.  ``complete_masked`` fits a CP model by solving one small ridge
least-squares problem per factor row per sweep, the ALS completion of Smith,
Park & Karypis (SC 2016).  Its sweeps run on the ALS driver's engine
(``decompose._sweep_engine``) and so follow the same policy: the factor
matrices are orthogonalized for the first few sweeps (the hybrid policy) and
``rerandomize_period`` is honoured.  The stop metric is the observed-entry
RMSE relative to the RMS of the observed values.

Row ``i``'s mode-1 Gram matrix sums ``e e^T`` over its observations, with
``e = b_j * c_k``, and its right-hand side sums the observed values times
``e``.  One skeleton, :class:`_Rows`, runs the sweep, scales and solves
the systems and reads the column energies; two system builders form a
mode's systems.  Which one a fit gets follows the package's density rule
(``tensors._dense_enough``) applied to the observed count, with one more
bound on the dense form's partials (``_dense_observations``), so choosing
a form builds and sorts nothing.
On the sparse form, :class:`_RowSolver` gathers each row's ``e`` vectors
and forms its Gram matrix with one small matrix product, and the RMSE
reads every observed entry.  On the dense form, :class:`_DenseRows` forms
a whole mode's systems at once: entry ``(r, s)`` of every row's Gram
matrix is the dense MTTKRP of the 0/1 tensor with the row-wise products
``b_r * b_s`` and ``c_r * c_s``, ``r <= s``, and the right-hand sides are
the dense MTTKRP of the observed values, both on the GEMM kernel with its
kept partials (``tensors._KeptPartial``).  Both forms solve the same
systems; they differ only in rounding.

Alternating minimization for completion needs its iterates to stay
incoherent (Jain & Oh, NeurIPS 2014).  A column that moves onto the
unobserved entries is barely constrained by its row solves, and its weight
grows without bound while the observed error hardly changes.  After every
sweep but the last, each column's observed energy, the sum of
``(a_i b_j c_k)**2`` over the observed positions, is compared with the
sampled share ``n_observed / prod(dims)`` that a unit column spread like the
true factors would have.  A column below half that share is redrawn at
random with weight zero, as a QR-degenerate column is.  A column is
redrawn at most ``MAX_COLUMN_REDRAWS`` times in one fit: on a problem the
rank cannot fit, a column can leave the observed entries on nearly every
sweep, and without a bound the fit would end one sweep from a random draw.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .decompose import DecompConfig, _check_rank, _redraw_columns, _sweep_engine
from .errors import InvalidConfigError, NumericalFailureError
from .tensors import (
    _DENSE_MAX_ENTRIES,
    DenseTensor3,
    SparseTensor3,
    _checked_indices,
    _KeptPartial,
    _dense_enough,
    _dense_model,
    _has_repeats,
    _mode_order,
    _sum_squares,
    cp_reconstruct,
    normalize_columns,
)

__all__ = [
    "CompletionProblem",
    "sample_completion_problem",
    "complete_masked",
    "missing_entry_error",
]

logger = logging.getLogger(__name__)

# Redraws allowed per column in one fit.  Criterion 6's trials need up to 4.
MAX_COLUMN_REDRAWS = 5


@dataclass(frozen=True)
class CompletionProblem:
    """Observed entries of a partially revealed third-order tensor.

    ``observed`` holds the nonzero observations; ``zero_entries`` is an
    (m, 3) index array of positions observed to be exactly zero.  ``p`` is
    the sampling probability used to generate the problem, kept as metadata.
    """

    dims: tuple
    observed: SparseTensor3
    zero_entries: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.int64))
    p: float | None = None

    def __post_init__(self):
        if self.observed.dims != tuple(self.dims):
            raise ValueError("observed tensor dims disagree with problem dims")
        object.__setattr__(self, "zero_entries", _checked_indices(self.zero_entries, self.dims))
        if _has_repeats(self.all_indices(), self.observed.dims):
            raise ValueError("duplicate observed index")

    def all_indices(self):
        """Every observed position, nonzero observations first."""
        return np.vstack([self.observed.indices, self.zero_entries])

    def all_values(self):
        return np.concatenate([self.observed.values, np.zeros(self.zero_entries.shape[0])])

    @property
    def n_observed(self):
        return self.observed.nnz + self.zero_entries.shape[0]

    def observed_mask(self):
        mask = np.zeros(self.dims, dtype=bool)
        idx = self.all_indices()
        if idx.size:
            mask[idx[:, 0], idx[:, 1], idx[:, 2]] = True
        return mask


def sample_completion_problem(tensor, p, seed=0):
    """Reveal each entry of a dense tensor independently with probability p."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    mask = rng.random(tensor.dims) < p
    idx = np.argwhere(mask)
    vals = tensor.array[mask]
    nonzero = vals != 0.0
    observed = SparseTensor3(tensor.dims, idx[nonzero], vals[nonzero])
    return CompletionProblem(
        dims=tensor.dims, observed=observed, zero_entries=idx[~nonzero], p=p
    )


def _distinct_pairs(first, second, dim_second):
    """Distinct ``(first, second)`` index pairs, and each entry's pair position."""
    codes, inverse = np.unique(first * dim_second + second, return_inverse=True)
    return (codes // dim_second, codes % dim_second), inverse


def _pair_products(p, q, pairs, inverse):
    """Rows ``p[first] * q[second]`` per entry, each distinct pair multiplied once."""
    return np.take(p[pairs[0]] * q[pairs[1]], inverse, axis=0)


def _require_finite(*arrays):
    """Raise :class:`NumericalFailureError` unless every entry of ``arrays`` is finite.

    A fit whose row solves overflow float64 never recovers: a non-finite
    entry spreads to every later solve, and no model can hold it.
    """
    if not all(np.isfinite(x).all() for x in arrays):
        raise NumericalFailureError(
            "completion's row solves overflow float64; scale the observed values "
            "toward 1 or raise the ridge"
        )


def _ridge_solve(grams, rhs, ridge):
    """Solve ``(G_i + ridge I) x_i = rhs_i`` for every row ``i`` in one batched
    solve, or row by row with ``lstsq`` when some system is exactly singular.
    A non-finite solution, or a non-finite system that ``lstsq`` would get,
    raises (``_require_finite``)."""
    grams = grams + ridge * np.eye(rhs.shape[1])[None, :, :]
    try:
        sols = np.linalg.solve(grams, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        _require_finite(grams, rhs)
        sols = np.stack([np.linalg.lstsq(g, r, rcond=1e-12)[0] for g, r in zip(grams, rhs)])
    _require_finite(sols)
    return sols


class _Rows:
    """The row solves of one completion fit: per-mode grouped ridge least
    squares over the observed entries, one system per row that has
    observations.

    A form supplies only ``_systems(mode, p, q)``, the Gram matrices and
    right-hand sides of a mode's rows against the factors ``p`` and ``q`` of
    the other two modes, and ``_rmse(w, a, b, c)``, the observed-entry RMSE
    of ``[[w; a, b, c]]``.  ``counts[m]`` holds the observation count of
    each row of mode ``m + 1``, and ``rows[m]`` lists the rows with
    observations.

    A sweep solves against unit factors, each normalized as soon as it is
    solved, as ``decompose._sweep`` does; the norms taken out are put back
    into the normal equations (``scale``), so each row solves the system of
    the unnormalized sweep.  A column's observed energy, the sum of its
    squared unit rank-1 terms over the observed entries, is ``c**2`` against
    the diagonals of the mode-3 Gram matrices formed from the unit ``a`` and
    ``b``, so the check gathers no per-entry arrays for it.
    """

    def __init__(self, indices, dims):
        self.counts = [np.bincount(i, minlength=d) for i, d in zip(indices.T, dims)]
        self.rows = [np.flatnonzero(n) for n in self.counts]

    def sweep(self, a, b, c, ridge):
        """Row solves in mode order 1, 2, 3, each with the freshest other two
        factors; returns each solved factor as ``normalize_columns`` splits it."""
        a, na = normalize_columns(self.solve_mode(1, b, c, a, ridge))
        b, nb = normalize_columns(self.solve_mode(2, a, c, b, ridge, scale=na))
        c, nc = normalize_columns(self.solve_mode(3, a, b, c, ridge, scale=na * nb))
        return (a, na), (b, nb), (c, nc)

    def solve_mode(self, mode, p, q, current, ridge, scale=None):
        """Update the mode's factor rows that have observations; keep the
        rest.  A ``scale`` makes it solve for the factors ``p * scale`` and
        ``q``.

        Norms near ``sqrt`` of float64's largest value would overflow the
        scaled Gram matrices, so the systems take ``scale`` divided by the
        power of two ``2**shift`` that brings its largest entry to at most
        1, and the ridge divided by ``4**shift``; their solutions times
        ``2**-shift`` solve the systems of ``scale``.  Powers of two round
        nothing above the subnormal range, so this changes no bit there.
        """
        grams, rhs = self._systems(mode, p, q)
        if mode == 3:
            self._squares = np.diagonal(grams, axis1=1, axis2=2).copy()
        shift = 0
        if scale is not None:
            shift = max(math.frexp(scale.max())[1], 0)
            scale = np.ldexp(scale, -shift)
            grams *= np.multiply.outer(scale, scale)
            rhs *= scale
        out = np.array(current)
        sols = _ridge_solve(grams, rhs, math.ldexp(ridge, -2 * shift))
        out[self.rows[mode - 1]] = np.ldexp(sols, -shift)
        return out

    def check(self, a, b, c, energy):
        """Each unit column's observed energy when ``energy`` is set (``None``
        otherwise), and the function of the weights ``w`` that gives the
        observed RMSE of ``[[w; a, b, c]]``, so that a sweep that redraws a
        column forms no RMSE.  The energies read the Gram matrices of the
        last mode-3 solve, which must have been against ``a`` and ``b``."""
        energies = None
        if energy:
            energies = np.einsum("ir,ir->r", c[self.rows[2]] ** 2, self._squares)
        return energies, lambda w: self._rmse(w, a, b, c)


class _RowSolver(_Rows):
    """The sparse form: each row's system from its own observed entries.

    For each mode the entries are sorted by that mode's row, and the row
    bounds, the distinct pairs of the other two indices and the sorted values
    are kept.  A solve forms each distinct pair's product of factor rows once,
    expands it to the entries, and builds each row's Gram matrix and
    right-hand side with one small matrix product over that row's entries.
    The RMSE reads the model's rank-1 terms at every observed entry.
    """

    def __init__(self, indices, values, dims):
        super().__init__(indices, dims)
        self.by_mode = []
        for mode in range(3):
            j, k = (m for m in range(3) if m != mode)
            order = _mode_order(indices[:, mode], dims[mode])
            bounds = np.append(0, np.cumsum(self.counts[mode][self.rows[mode]]))
            pairs, inverse = _distinct_pairs(indices[order, j], indices[order, k], dims[k])
            self.by_mode.append((bounds, pairs, inverse, values[order]))
        self.values = values
        self.ij_pairs, self.ij_inverse = _distinct_pairs(indices[:, 0], indices[:, 1], dims[1])
        self.kk = indices[:, 2]

    def _systems(self, mode, p, q):
        bounds, pairs, inverse, vals = self.by_mode[mode - 1]
        e = _pair_products(p, q, pairs, inverse)
        k = e.shape[1]
        grams = np.empty((bounds.size - 1, k, k))
        rhs = np.empty((bounds.size - 1, k))
        for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            blk = e[lo:hi]
            grams[r] = blk.T @ blk
            rhs[r] = vals[lo:hi] @ blk
        return grams, rhs

    def _rmse(self, w, a, b, c):
        rank1 = _pair_products(a, b, self.ij_pairs, self.ij_inverse) * np.take(c, self.kk, axis=0)
        recon = np.einsum("nr,r->n", rank1, w, optimize=True)
        return float(np.sqrt(np.mean((recon - self.values) ** 2)))


@functools.cache
def _upper(k):
    """The row and column indices of the ``r <= s`` entries of a ``k x k``
    matrix, in row-major order, as read-only arrays."""
    pairs = np.triu_indices(k)
    for x in pairs:
        x.flags.writeable = False
    return pairs


def _packed(f):
    """The products ``f[..., r] * f[..., s]`` for ``r <= s``, in row-major order."""
    r, s = _upper(f.shape[-1])
    return f[..., r] * f[..., s]


class _DenseRows(_Rows):
    """The dense form: all of a mode's systems at once, from dense MTTKRPs.

    ``mask`` is the 0/1 observation tensor and ``values`` the observed
    values, zero elsewhere, both dense tensors.  Entry ``(r, s)`` of row
    ``i``'s mode-1 Gram matrix sums ``b_jr b_js c_kr c_ks`` over the
    observed ``(i, j, k)``, so a mode's Gram matrices, packed to their
    ``r <= s`` entries, are the MTTKRP of ``mask`` with the packed products
    (``_packed``) of the other two factors, and the right-hand sides are the
    MTTKRP of ``values`` with the factors themselves.  Each tensor keeps its
    last partial (``tensors._KeptPartial``), which serves consecutive
    MTTKRPs that share a factor: the unit ``a`` that the mode-2 and mode-3
    solves share, and the unit ``b`` that the mode-3 solve and the next
    sweep's mode-1 solve share, are the same arrays, so plain sweeps
    alternate between one tensor-sized partial per tensor and two, as the
    ALS driver's do.  The RMSE is read from the sum of squares of
    ``mask * model - values``, the model formed in one buffer by
    ``tensors._dense_model``.
    """

    def __init__(self, indices, mask, values):
        super().__init__(indices, mask.dims)
        self.mask = mask.data
        self.values = values.data
        self.n_observed = indices.shape[0]
        self.grams = _KeptPartial(mask.array)
        self.rhs = _KeptPartial(values.array)
        self._model = np.empty((mask.dims[0], self.mask.size // mask.dims[0]))

    def _systems(self, mode, p, q):
        rows = self.rows[mode - 1]
        k = p.shape[1]
        r, s = _upper(k)
        packed = self.grams.mttkrp(mode, _packed(p), _packed(q))[rows]
        grams = np.empty((rows.size, k, k))
        grams[:, r, s] = packed
        grams[:, s, r] = packed
        return grams, self.rhs.mttkrp(mode, p, q)[rows]

    def _rmse(self, w, a, b, c):
        v = _dense_model(w, a, b, c, out=self._model).reshape(-1)
        v *= self.mask
        v -= self.values
        return math.sqrt(_sum_squares(v) / self.n_observed)


def _dense_observations(problem, rank):
    """The 0/1 observation tensor and the observed values as dense tensors
    when a rank-``rank`` fit of ``problem`` runs on the dense form, else
    ``None``.

    The dense form needs the package's density rule
    (``tensors._dense_enough``) to admit the observed count, which is the
    stored count of the 0/1 tensor, and its largest partial, ``k(k+1)/2``
    packed columns over the two largest dims, to hold at most
    ``_DENSE_MAX_ENTRIES`` entries, as many as a dense copy may.  Without
    the second bound a high rank or a short mode makes the partial far
    larger than the per-row form's ``(n_observed, k)`` arrays: at (1000,
    1000, 4) and rank 10 it would hold 55 million entries.  A problem has
    no repeated index, so the 0/1 tensor is ``observed_mask``.
    """
    dims = problem.dims
    partial = rank * (rank + 1) // 2 * (math.prod(dims) // min(dims))
    if partial > _DENSE_MAX_ENTRIES or not _dense_enough(dims, problem.n_observed):
        return None
    return DenseTensor3(problem.observed_mask()), problem.observed.to_dense()


def _row_solver(problem, rank):
    """The row solver of a rank-``rank`` fit of ``problem``:
    :class:`_DenseRows` on the dense form (``_dense_observations``),
    :class:`_RowSolver` otherwise."""
    observed = _dense_observations(problem, rank)
    if observed is not None:
        return _DenseRows(problem.all_indices(), *observed)
    return _RowSolver(problem.all_indices(), problem.all_values(), problem.dims)


def complete_masked(problem, rank, cfg=None, ridge=1e-8):
    """Fit a rank-``rank`` CP model to the observed entries.

    Every factor row is updated by ridge-regularized least squares over that
    row's observations, formed per row or, where the package's density rule
    admits the observed count and the rank keeps the dense partials within
    a dense copy's size, per mode from dense MTTKRPs (see the module
    docstring); the two give the same fit up to rounding.
    The sweeps follow the ALS driver's policy
    (``decompose._sweep_engine``): the factor matrices are orthogonalized for
    the first ``cfg.orth_steps`` sweeps (default 5), ``rerandomize_period``
    redraws trailing columns on its schedule, and a config with
    ``orth_mode='none'`` gives the plain-ALS baseline.  The stop metric is the
    observed-entry RMSE divided by the RMS of the observed values; the run
    stops at an exact fit or when its relative change drops below
    ``cfg.tol``.

    After every sweep but the last, a column whose observed energy (the sum
    of its squared unit rank-1 entries over the observed positions) is below
    half the sampled share ``n_observed / prod(dims)`` is redrawn in all
    three modes from the run's generator, its weight set to zero and the
    stopping rule restarted; each redraw is logged as a warning.  A column
    is redrawn at most ``MAX_COLUMN_REDRAWS`` times: when it strays again it
    is kept, one warning says so, and the stopping rule runs on.  Rows
    without observations keep their initialization (logged at problem
    setup) unless their column is redrawn, which redraws them too.
    Observed values whose sum of squares overflows float64 raise
    ``ValueError``, and row solves that overflow float64, on values far
    from 1 or nearly singular systems without a ridge, raise
    ``NumericalFailureError``.
    """
    return _complete(problem, rank, cfg, ridge)[0]


def _complete(problem, rank, cfg, ridge):
    """:func:`complete_masked`'s model, and the observed-entry RMSE of it
    that its last sweep read, which the stop metric divides by the RMS of
    the observed values."""
    cfg = replace(cfg or DecompConfig(rank=rank, orth_mode="first_s"), rank=rank)
    if cfg.init == "svd":
        raise InvalidConfigError("completion supports init='random' or 'given'")
    if ridge < 0:
        raise InvalidConfigError(f"ridge must be >= 0, got {ridge}")
    _check_rank(cfg, problem.dims)
    if problem.n_observed == 0:
        raise ValueError("completion problem has no observed entries")

    # Relative RMSE: the exact-fit floor must not depend on the data's scale.
    with np.errstate(over="ignore"):
        scale = float(np.sqrt(np.mean(problem.all_values() ** 2))) or 1.0
    if not math.isfinite(scale):
        raise ValueError("the observed values' sum of squares overflows float64; scale them down")
    solver = _row_solver(problem, rank)
    for m, counts in enumerate(solver.counts):
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            logger.warning(
                "completion: mode-%d rows %s have no observations and stay at "
                "their initialization",
                m + 1,
                missing.tolist(),
            )
    # Observed energy below this marks a column that has left the observed entries.
    energy_floor = 0.5 * problem.n_observed / math.prod(problem.dims)
    redraws = np.zeros(rank, dtype=np.int64)
    last = {}

    def step(t, rng, a, b, c):
        (a, na), (b, nb), (c, nc) = solver.sweep(a, b, c, ridge)
        weights = na * nb * nc
        _require_finite(weights)
        energy, rmse = solver.check(a, b, c, energy=t < cfg.max_iters)
        if energy is not None:
            low = energy < energy_floor
            spent = np.flatnonzero(low & (redraws == MAX_COLUMN_REDRAWS))
            if spent.size:
                logger.warning(
                    "completion sweep %d: columns %s left the observed entries "
                    "after %d redraws; keeping them",
                    t,
                    spent.tolist(),
                    MAX_COLUMN_REDRAWS,
                )
                redraws[spent] += 1  # past the cap: warn once per column
            stray = np.flatnonzero(low & (redraws < MAX_COLUMN_REDRAWS))
            if stray.size:
                redraws[stray] += 1
                logger.warning(
                    "completion sweep %d: columns %s left the observed entries; "
                    "re-randomizing them",
                    t,
                    stray.tolist(),
                )
                a, b, c = _redraw_columns(rng, (a, b, c), stray)
                weights[stray] = 0.0
                return a, b, c, weights, None
        last["rmse"] = rmse(weights)
        return a, b, c, weights, last["rmse"] / scale

    # A fit that overflows ends in _require_finite's error, not in warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        model = _sweep_engine(cfg, problem.dims, step).model
    # The sign flips of canonical() change no bit of that RMSE.
    return model.canonical(), last["rmse"]


def missing_entry_error(truth, problem, model):
    """Relative RMS error of the reconstruction over the unobserved entries.

    Defined as 0 when nothing is missing; returns ``inf`` when the truth is
    identically zero on the missing set but the reconstruction is not.
    """
    if truth.dims != tuple(problem.dims) or truth.dims != model.dims:
        raise ValueError("dims of truth, problem and model must agree")
    missing = ~problem.observed_mask()
    if not missing.any():
        return 0.0
    diff = truth.array[missing] - cp_reconstruct(model).array[missing]
    rms_diff = float(np.sqrt(np.mean(diff**2)))
    rms_truth = float(np.sqrt(np.mean(truth.array[missing] ** 2)))
    if rms_truth == 0.0:
        return 0.0 if rms_diff == 0.0 else math.inf
    return rms_diff / rms_truth
