"""Tensor completion by alternating least squares restricted to observed entries.

A :class:`CompletionProblem` stores the revealed entries of an otherwise
unknown tensor.  Structural missingness is distinct from an observed zero:
nonzero observations live in a sparse tensor, observed zeros in a dedicated
index list.  ``complete_masked`` fits a CP model by solving one small ridge
least-squares problem per factor row per sweep.  Its sweeps run on the ALS
driver's engine (``decompose._sweep_engine``) and so follow the same policy:
the factor matrices are orthogonalized for the first few sweeps (the hybrid
policy) and ``rerandomize_period`` is honoured.  The stop metric is the
observed-entry RMSE relative to the RMS of the observed values.  Each row's
Gram matrix is one small matrix product over that row's observations, and
the elementwise products of factor rows that the solves and the rank-1
check need are formed once per distinct index pair, not once per entry.

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

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .decompose import DecompConfig, _redraw_columns, _sweep_engine
from .errors import InvalidConfigError
from .tensors import SparseTensor3, cp_reconstruct, normalize_columns

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
        zeros = np.asarray(self.zero_entries, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "zero_entries", zeros)
        if self.observed.dims != tuple(self.dims):
            raise ValueError("observed tensor dims disagree with problem dims")
        if zeros.size:
            if zeros.min() < 0 or (zeros >= np.array(self.dims)).any():
                raise ValueError("zero-entry index out of range")
        self._check_no_duplicates()

    def _check_no_duplicates(self):
        idx = self.all_indices()
        if idx.shape[0] < 2:
            return
        order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
        s = idx[order]
        if (s[1:] == s[:-1]).all(axis=1).any():
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


class _RowSolver:
    """Per-mode grouped ridge least squares over the observed entries.

    For each mode the entries are sorted by that mode's row, and the row
    bounds, the distinct pairs of the other two indices and the sorted values
    are kept.  A solve forms each distinct pair's product of factor rows once,
    expands it to the entries, and builds each row's Gram matrix and
    right-hand side with one small matrix product over that row's entries.
    """

    def __init__(self, indices, values, dims):
        self.by_mode = []
        for mode in range(3):
            order = np.argsort(indices[:, mode], kind="stable")
            present, starts = np.unique(indices[order, mode], return_index=True)
            other = [0, 1, 2]
            other.remove(mode)
            pairs, inverse = _distinct_pairs(
                indices[order, other[0]], indices[order, other[1]], dims[other[1]]
            )
            self.by_mode.append(
                {
                    "rows": present,
                    "bounds": np.append(starts, order.size),
                    "pairs": pairs,
                    "inverse": inverse,
                    "vals": values[order],
                }
            )
        missing_rows = [
            np.setdiff1d(np.arange(dims[m]), self.by_mode[m]["rows"]) for m in range(3)
        ]
        for m, rows in enumerate(missing_rows):
            if rows.size:
                logger.warning(
                    "completion: mode-%d rows %s have no observations and stay at "
                    "their initialization",
                    m + 1,
                    rows.tolist(),
                )

    def solve_mode(self, mode, p, q, current, ridge):
        """Update the mode's factor rows that have observations; keep the rest."""
        view = self.by_mode[mode - 1]
        e = _pair_products(p, q, view["pairs"], view["inverse"])
        vals = view["vals"]
        bounds = view["bounds"]
        k = e.shape[1]
        grams = np.empty((bounds.size - 1, k, k))
        rhs = np.empty((bounds.size - 1, k))
        for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            blk = e[lo:hi]
            grams[r] = blk.T @ blk
            rhs[r] = vals[lo:hi] @ blk
        grams = grams + ridge * np.eye(k)[None, :, :]
        try:
            sols = np.linalg.solve(grams, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            sols = np.stack(
                [np.linalg.lstsq(g, r, rcond=1e-12)[0] for g, r in zip(grams, rhs)]
            )
        out = np.array(current)
        out[view["rows"]] = sols
        return out


def complete_masked(problem, rank, cfg=None, ridge=1e-8):
    """Fit a rank-``rank`` CP model to the observed entries.

    Every factor row is updated by ridge-regularized least squares over that
    row's observations.  The sweeps follow the ALS driver's policy
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
    """
    if cfg is None:
        cfg = DecompConfig(rank=rank, orth_mode="first_s", orth_steps=5)
    elif cfg.rank != rank:
        cfg = replace(cfg, rank=rank)
    if cfg.init == "svd":
        raise InvalidConfigError("completion supports init='random' or 'given'")
    if problem.n_observed == 0:
        raise ValueError("completion problem has no observed entries")

    indices = problem.all_indices()
    values = problem.all_values()
    solver = _RowSolver(indices, values, problem.dims)
    ij_pairs, ij_inverse = _distinct_pairs(indices[:, 0], indices[:, 1], problem.dims[1])
    kk = indices[:, 2]
    # Observed energy below this marks a column that has left the observed entries.
    energy_floor = 0.5 * problem.n_observed / math.prod(problem.dims)
    # Relative RMSE: the exact-fit floor must not depend on the data's scale.
    scale = float(np.sqrt(np.mean(values**2))) or 1.0
    redraws = np.zeros(rank, dtype=np.int64)

    def step(t, rng, a, b, c):
        a1 = solver.solve_mode(1, b, c, a, ridge)
        b1 = solver.solve_mode(2, a1, c, b, ridge)
        c1 = solver.solve_mode(3, a1, b1, c, ridge)
        a, na = normalize_columns(a1)
        b, nb = normalize_columns(b1)
        c, nc = normalize_columns(c1)
        weights = na * nb * nc
        rank1 = _pair_products(a, b, ij_pairs, ij_inverse) * np.take(c, kk, axis=0)
        if t < cfg.max_iters:
            low = np.einsum("nr,nr->r", rank1, rank1) < energy_floor
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
        recon = np.einsum("nr,r->n", rank1, weights, optimize=True)
        rmse = float(np.sqrt(np.mean((recon - values) ** 2)))
        return a, b, c, weights, rmse / scale

    return _sweep_engine(cfg, problem.dims, step).model.canonical()


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
