"""CP decomposition algorithms and convergence diagnostics.

The ALS family (plain, orthogonalized, hybrid) and masked completion share
one sweep engine, ``_sweep_engine``, which owns the policy: the start, the
re-randomization schedule, when to orthogonalize, and the stop rule.  Every
iteration is a sequential exact least-squares sweep in mode order 1, 2, 3,
each solve using the freshest versions of the other two factors; the caller
supplies the sweep (here the workspace updates, in ``completion`` the per-row
solves) and its stop metric.  An orthogonalized iteration additionally sorts
the columns by decreasing weight estimate and replaces each factor matrix by
the Q of its QR factorization before the sweep; the sort keeps the heaviest
(earliest-converging) factors anchored at the front, where Gram-Schmidt
leaves them untouched.  Because the Khatri-Rao Gram of orthonormal factors is
the identity, the first mode update after orthogonalization solves with a
Gram that is about I, which always takes the fast path of the solve below.
``ALGORITHMS`` is the registry of every algorithm, from which the CLI and the
benchmark suites dispatch: each entry is a function that checks the start it
is given and runs.  ``ALS_RUNNERS`` is its ALS slice, the entries that have a
stop rule and record a trace.

Every sweep, and every other repeated MTTKRP, runs through one per-run
``_Workspace``: it puts the tensor in its working form, keeps what repeated
MTTKRPs share, and reads each sweep's stop metric (``_Workspace.stop_ratio``).
On a dense tensor it keeps the last tensor-sized partial contraction, so the
sweeps run on the multi-sweep dimension tree of Ma & Solomonik (IPDPS 2021):
each such contraction serves two consecutive mode updates, across the
boundary between sweeps too, 1.5 per plain sweep instead of 2.
A run may also be handed ``_Deflated(T, M)``, a tensor minus a CP model, as
block deflation does; its workspace reads ``T`` and subtracts ``M``'s share
from every MTTKRP, mode-3 projection and norm at O(d k r) extra cost (Bader &
Kolda, SIAM J. Sci. Comput. 2007), so the residual ``T - M`` is never formed
and a sparse ``T`` stays sparse.
Each mode update is the exact least-squares step of the standard CP-ALS loop
(Kolda & Bader, SIAM Review 2009), taken through one guarded Gram solve
shared with ``linalg.ls_solve_kr`` (``linalg._gram_solve``): it multiplies by
the inverse of the k x k Khatri-Rao Gram when its condition number is safely
below ``1/rcond``, and otherwise falls back to the SVD pseudoinverse, so every
Gram the pseudoinverse would truncate still goes through it.

The tensor power method is the rank-1 special case with simultaneous mode
updates, run by one kernel on a batch of restarts: ``tpm_multi`` runs many
random restarts at once and clusters the results, while ``tpm_run`` and
``orth_tpm_run`` run batches of one, the latter projecting each fresh
initialization orthogonal to the factors already recovered.  ``simdiag`` is the classical eigendecomposition
approach from two random contractions.  ``beta_bound`` and
``tpm_correlation_trace`` are diagnostic tools for studying convergence
against a known ground-truth model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidConfigError,
    NumericalFailureError,
)
from .linalg import _gram_solve, eig_nonsym, orth_step, top_svd
from .tensors import (
    _UNIT_NORM_TOL,
    CpModel,
    DenseTensor3,
    contract_mode3,
    _block_budget,
    _exact_residual,
    _gram_residual_norm,
    _residual_norm,
    _fiber_mttkrp,
    _KeptPartial,
    _mode_plan,
    _require_unit_columns,
    _relative,
    _working_form,
    normalize_columns,
)

__all__ = [
    "DecompConfig",
    "DecompResult",
    "TraceRecord",
    "als_sweep",
    "als_run",
    "orth_als_run",
    "hybrid_run",
    "ALS_RUNNERS",
    "ALGORITHMS",
    "tpm_run",
    "tpm_multi",
    "orth_tpm_run",
    "svd_init",
    "simdiag",
    "beta_bound",
    "tpm_correlation_trace",
]

logger = logging.getLogger(__name__)

_INIT_MODES = ("random", "svd", "given")
_ORTH_MODES = ("none", "always", "first_s")

# Below this relative residual a dense tensor's stop metric is the exact
# residual: the Gram identity reads it with a relative error of about
# eps / level^2, 2e-6 here and of order 1 near 1e-8.
_EXPLICIT_REFINE_LEVEL = 1e-5
# Relative residual at which a fit counts as exact regardless of tol.
_RESIDUAL_FLOOR = 1e-13
# A factor column whose correlation with its previous value falls below
# 1 - this has moved (for ``factor_convergence_steps``).
_MOVED_CORR_TOL = 1e-9
# tpm_correlation_trace leaves a step's ratios undefined where the target
# correlation is at most this in absolute value.
_DENOM_FLOOR = 1e-13
# tpm_multi: a restart joins a cluster whose representative correlates at
# least this with it in every mode.
_CLUSTER_CORR = 0.9
# simdiag: relative cut of the second projection's pseudoinverse, smallest
# relative gap between the eigenvalues it separates, and the largest
# relative imaginary residue of a realized eigenvector.
_PINV_RCOND = 1e-8
_GAP_RTOL = 1e-8
_IMAG_TOL = 1e-6


@dataclass(frozen=True)
class DecompConfig:
    """Configuration shared by the alternating-update drivers.

    ``orth_mode`` selects the orthogonalization policy: ``none`` (plain ALS),
    ``always``, or ``first_s`` (orthogonalize for the first ``orth_steps``
    iterations, then plain sweeps).  ``rerandomize_period`` optionally redraws
    the trailing columns on a fixed schedule: at iteration ``i * period`` all
    but the first ``i`` columns are re-randomized.
    """

    rank: int
    max_iters: int = 100
    tol: float = 1e-6
    init: str = "random"
    orth_mode: str = "none"
    orth_steps: int = 5
    rerandomize_period: int | None = None
    seed: int = 0
    record_trace: bool = False
    given: tuple | None = None

    def __post_init__(self):
        _require_at_least("rank", self.rank, 1)
        _require_at_least("max_iters", self.max_iters, 1)
        if not self.tol > 0:
            raise InvalidConfigError(f"tol must be positive, got {self.tol}")
        _require_at_least("orth_steps", self.orth_steps, 0)
        if self.init not in _INIT_MODES:
            raise InvalidConfigError(f"init must be one of {_INIT_MODES}, got {self.init!r}")
        if self.orth_mode not in _ORTH_MODES:
            raise InvalidConfigError(
                f"orth_mode must be one of {_ORTH_MODES}, got {self.orth_mode!r}"
            )
        if self.rerandomize_period is not None and self.rerandomize_period < 1:
            raise InvalidConfigError("rerandomize_period must be >= 1 when set")
        if self.init == "given" and self.given is None:
            raise InvalidConfigError("init='given' requires the given factor triple")


def _require_at_least(name, value, low):
    """Raise :class:`InvalidConfigError` naming ``name`` when ``value < low``."""
    if value < low:
        raise InvalidConfigError(f"{name} must be >= {low}, got {value}")


@dataclass
class DecompResult:
    """Outcome of a decomposition run.

    ``residual_trace`` holds the per-iteration relative residual
    ``||T - X|| / ||T||`` as the stop rule read it: from the Gram identity,
    and exactly below 1e-5 for a tensor of at most 4M entries in either
    format (see ``_Workspace.stop_ratio``).  It is present iff the config
    asked for it, and its length equals ``iterations_used``.
    ``factor_convergence_steps[r]`` is the first iteration after which
    column r stopped moving (-1 if it was still moving at termination);
    recorded only alongside the trace.
    """

    model: CpModel
    iterations_used: int
    converged: bool
    residual_trace: np.ndarray | None = None
    factor_convergence_steps: np.ndarray | None = None


@dataclass(frozen=True)
class _Deflated:
    """The tensor ``T - M`` of a tensor ``T`` minus a CP model ``M``, never formed.

    A run that reads its tensor only through a :class:`_Workspace` (the ALS
    family, ``svd_init``, ``tpm_run``, ``tpm_multi``) accepts it in place of
    a tensor: the workspace reads ``T`` and subtracts ``M``'s share from each
    result.
    """

    tensor: object
    model: CpModel


class _Workspace:
    """Per-run cache of what repeated MTTKRPs share, and the run's stop metric.

    The workspace first puts the tensor in its working form (see
    ``tensors._working_form``).  Every run reads the tensor through the
    workspace (its norm, the MTTKRPs, the SVD start's and simdiag's
    projections), so a sparse input that the density rule densifies gives
    the model of its dense copy bit for bit.  A tensor whose sum of squares overflows float64 raises
    ``ValueError`` here, before any run reads it.

    A :class:`_Deflated` input ``T - M`` is unwrapped: ``self.tensor`` is
    ``T`` and ``self.model`` the subtracted model ``M = [[w; A, B, C]]``
    (None for a plain tensor).  The residual ``T - M`` is never formed, the
    MTTKRP on a sum of a sparse and a factored tensor of Bader & Kolda (SIAM
    J. Sci. Comput. 2007): the mode-1 MTTKRP is ``T``'s minus
    ``A diag(w) ((B^T p) * (C^T q))`` and cyclically, the mode-3 projection
    is ``T``'s minus ``A diag(w * C^T v) B^T``, each O(d k r) on top of
    ``T``'s own, and ``tnorm`` is ``||T - M||`` (``tensors._residual_norm``).

    A tensor that stays sparse keeps each mode's fiber plan, cut into row
    blocks for the rank (``tensors._mode_plan``), built on the mode's first
    use and reused for the rest of the run; a call at a rank with another
    block budget builds it again.  A dense tensor keeps one partial
    ``Y = T x_m F`` (``tensors._KeptPartial``), the last one formed, with
    a copy of the ``F`` it came from.  A call of another mode whose factor
    of mode ``m`` equals that copy by value contracts ``Y`` with its third
    factor; any other call drops ``Y`` and forms the partial of the mode
    before its own, cyclically (3 for 1, 1 for 2, 2 for 3), in its place.  The
    dimension tree of Phan, Tichavský & Cichocki (IEEE TSP 2013) shares one
    partial between the first two updates of a sweep; keeping it across
    sweeps gives the multi-sweep tree of Ma & Solomonik (IPDPS 2021).  In
    an ALS sweep (``_sweep``) mode 1 forms ``T x_3 C``, which mode 2
    reuses, and mode 3 forms ``T x_2 B``; the next sweep's mode 1 reuses
    that, because ``_sweep`` hands on the very ``B`` mode 3 contracted, and
    its mode 2 forms ``T x_1 A``, which its mode 3 reuses.  So plain sweeps
    alternate between two tensor-sized GEMMs and one.  A sweep after a QR
    starts on new factors and forms two.  The power method's simultaneous
    updates form two per iteration, of modes 1 and 3 (``_power_kernel``).
    Values, not identities, are compared, because the factors change
    between updates (QR, weight sort, redraws) and callers may change an
    array in place.  The old partial is dropped before a new one is formed,
    so the memory stays at one ``(k, d, d)`` array.

    The exact residual (``explicit_ratio``) writes the model in the
    tensor's row-major ``(d1, d2*d3)`` layout into one buffer and subtracts
    the tensor in place (``tensors._residual_norm``); against ``T - M`` the
    model written is the fit and ``M`` side by side, ``[w, w_M]`` over the
    concatenated factors.  The buffer is allocated on the run's first exact
    residual and reused by every later one, so a converging fit allocates
    no tensor-sized temporaries per sweep.
    """

    def __init__(self, tensor):
        model = None
        if isinstance(tensor, _Deflated):
            tensor, model = tensor.tensor, tensor.model
        self.tensor = tensor = _working_form(tensor)
        self.model = model
        self.dims = tensor.dims
        if model is None:
            self.tnorm = tensor.norm()
        else:
            self.tnorm = _residual_norm(tensor, model.weights, *model.factors)
        if not math.isfinite(self.tnorm):
            raise ValueError("the tensor's sum of squares overflows float64; scale it down")
        self.dense = isinstance(tensor, DenseTensor3)
        self._modes = [None, None, None]
        self._partial = _KeptPartial(tensor.array) if self.dense else None
        self._residual = None

    def _plan(self, mode, k):
        kept = self._modes[mode - 1]
        if kept is None or kept.budget != _block_budget(k):
            kept = self._modes[mode - 1] = _mode_plan(self.tensor, mode, k)
        return kept

    def mttkrp(self, mode, p, q):
        if self.dense:
            out = self._partial.mttkrp(mode, p, q)
        else:
            out = _fiber_mttkrp(self._plan(mode, p.shape[1]), p, q)
        if self.model is not None:
            f = self.model.factors
            fp, fq = (f[i] for i in range(3) if i != mode - 1)
            out -= (f[mode - 1] * self.model.weights) @ ((fp.T @ p) * (fq.T @ q))
        return out

    def contract_mode3(self, v):
        """The mode-3 projection ``P[i, j] = sum_k R[i, j, k] v[k]`` of the
        workspace's tensor ``R`` (``T - M`` for a deflated one)."""
        out = contract_mode3(self.tensor, v)
        if self.model is not None:
            m = self.model
            out -= (m.A * (m.weights * (m.C.T @ v))) @ m.B.T
        return out

    def ls_update(self, mode, p, q):
        """Exact least-squares factor update; also returns the MTTKRP."""
        mtt = self.mttkrp(mode, p, q)
        return _gram_solve(mtt, p, q), mtt

    def stop_ratio(self, inner, model_sq, w, a, b, c):
        """The relative residual of the fit ``X = [[w; a, b, c]]``, a sweep's stop metric.

        It is read from the Gram identity (``tensors._gram_residual_norm``)
        with ``inner = <T, X>`` and ``model_sq = ||X||^2``, which the sweep
        has at hand.  Once that reading falls below ``_EXPLICIT_REFINE_LEVEL``,
        where the identity cancels, it is the exact residual
        (``explicit_ratio``), one more GEMM per sweep, for every tensor that
        has one (``tensors._exact_residual``).
        """
        ratio = _relative(_gram_residual_norm(self.tnorm**2, inner, model_sq), self.tnorm)
        if ratio < _EXPLICIT_REFINE_LEVEL and _exact_residual(self.tensor):
            return self.explicit_ratio(w, a, b, c)
        return ratio

    def explicit_ratio(self, w, a, b, c):
        """The relative residual of ``[[w; a, b, c]]`` (``tensors._residual_norm``)."""
        if self._residual is None and _exact_residual(self.tensor):
            d1, d2, d3 = self.dims
            self._residual = np.empty((d1, d2 * d3))
        if self.model is not None:
            pairs = zip((w, a, b, c), (self.model.weights, *self.model.factors))
            w, a, b, c = (np.concatenate(x, axis=-1) for x in pairs)
        return _relative(_residual_norm(self.tensor, w, a, b, c, out=self._residual), self.tnorm)


def _random_unit_columns(rng, d, k):
    cols = rng.standard_normal((d, k))
    return normalize_columns(cols)[0]


def _redraw_columns(rng, factors, cols):
    """Copies of ``factors`` with columns ``cols`` redrawn at random, mode by mode."""
    out = []
    for f in factors:
        f = np.array(f)
        f[:, cols] = _random_unit_columns(rng, f.shape[0], len(cols))
        out.append(f)
    return out


def _initial_factors(dims, cfg, rng, ws=None):
    if cfg.init == "random":
        return tuple(_random_unit_columns(rng, d, cfg.rank) for d in dims)
    if cfg.init == "svd":
        return _svd_init(ws, cfg.rank, rng)
    given = [np.asarray(f, dtype=np.float64) for f in cfg.given]
    expected = [(d, cfg.rank) for d in dims]
    if [f.shape for f in given] != expected:
        raise InvalidConfigError(
            f"init='given' needs factors of shapes {expected}, got {[f.shape for f in given]}"
        )
    return tuple(normalize_columns(f)[0] for f in given)


def _orthogonalize_with_retry(m, rng, label):
    """QR with up to 3 re-randomizations of degenerate columns."""
    for attempt in range(3):
        try:
            return orth_step(m)
        except DegenerateInputError as exc:
            logger.warning(
                "QR degeneracy in %s (attempt %d): re-randomizing columns %s",
                label,
                attempt + 1,
                list(exc.columns),
            )
            (m,) = _redraw_columns(rng, (m,), list(exc.columns))
    raise NumericalFailureError(
        f"orthogonalization of {label} failed after 3 re-randomizations"
    )


def als_sweep(tensor, a, b, c):
    """One full sweep of exact least-squares updates in mode order 1, 2, 3.

    Each mode solve uses the freshest versions of the other two factors.
    Columns are returned unnormalized; the scale bookkeeping belongs to the
    calling driver.  The sweep is the drivers' (``_sweep``), which solves
    against unit columns; its results are scaled back by the norms it took
    out, and a column that a solve zeroes stays zero.
    """
    a, na, b, nb, c, _ = _sweep(_Workspace(tensor), a, b, c)
    return a * na, b * (nb / np.where(na > 0.0, na, 1.0)), c / np.where(nb > 0.0, nb, 1.0)


def _sweep(ws, a, b, c):
    """One ALS sweep through ``ws``: unit ``a`` and ``b``, each followed by
    the norms taken out of it, the unnormalized ``c`` and the mode-3 MTTKRP.

    ``a`` and ``b`` are normalized as soon as they are solved, as in the
    CP-ALS of Kolda & Bader (SIAM Review 2009), so the ``b`` that the mode-3
    solve contracts is, bit for bit, the ``b`` that the next sweep's mode-1
    solve receives, and the workspace's kept partial serves both.  A column
    that a solve zeroes gets a unit stand-in (``normalize_columns``) but
    stays zero in the later solves of the sweep, so that, as unnormalized,
    its ``c`` column and weight are 0 and the other columns' solves do not
    see it.
    """
    a, na = normalize_columns(ws.ls_update(1, b, c)[0])
    live_a = a * (na > 0.0)
    b, nb = normalize_columns(ws.ls_update(2, live_a, c)[0])
    c, m3 = ws.ls_update(3, live_a, b * (nb > 0.0))
    return a, na, b, nb, c, m3


def _orthogonalizes(cfg, t):
    """Whether sweep ``t`` (from 1) orthogonalizes the factors before its solves."""
    return cfg.orth_mode == "always" or (cfg.orth_mode == "first_s" and t <= cfg.orth_steps)


def _check_rank(cfg, dims):
    """Raise unless ``cfg`` can orthogonalize rank-``cfg.rank`` factors of
    ``dims``.  The engine checks it; a caller whose set-up logs or costs
    anything checks it first, so that the error comes before that set-up."""
    if _orthogonalizes(cfg, 1) and cfg.rank > min(dims):
        raise InvalidConfigError(
            f"rank {cfg.rank} exceeds min(dims)={min(dims)}: orthogonalization "
            "requires rank <= dimension; use deflate_overcomplete for higher ranks"
        )


def _sweep_engine(cfg, dims, step, ws=None):
    """The ALS sweep policy that the driver and masked completion share.

    Draws the start, then runs sweeps ``t = 1, 2, ...``: on the
    ``rerandomize_period`` schedule the trailing columns are redrawn, and an
    orthogonalizing sweep sorts the columns by decreasing weight and replaces
    each factor by the Q of its QR.  ``step(t, rng, a, b, c)`` does the three
    mode updates and the normalize step, and returns unit factors, weights
    and the stop metric; a metric of ``None`` restarts the stop rule.  The run
    stops at an exact fit (metric below ``_RESIDUAL_FLOOR``) or once the
    metric's relative change is at most ``cfg.tol``.  The model is returned
    as the last sweep left it, not canonicalized.
    """
    _check_rank(cfg, dims)
    k = cfg.rank
    rng = np.random.default_rng(cfg.seed)
    a, b, c = _initial_factors(dims, cfg, rng, ws)
    period = cfg.rerandomize_period
    weights = np.zeros(k)
    trace = []
    last_move = np.zeros(k, dtype=np.int64)
    prev = None
    converged = False
    for t in range(1, cfg.max_iters + 1):
        if period is not None and t > 1 and (t - 1) % period == 0 and (t - 1) // period < k:
            a, b, c = _redraw_columns(rng, (a, b, c), np.arange((t - 1) // period, k))
        orth = _orthogonalizes(cfg, t)
        if orth and t > 1:
            # Keep the heaviest factors first so Gram-Schmidt anchors on them.
            order = np.argsort(-np.abs(weights), kind="stable")
            a, b, c = a[:, order], b[:, order], c[:, order]
            last_move = last_move[order]
        before = (a, b, c)
        if orth:
            a = _orthogonalize_with_retry(a, rng, "mode-1 factors")
            b = _orthogonalize_with_retry(b, rng, "mode-2 factors")
            c = _orthogonalize_with_retry(c, rng, "mode-3 factors")
        a, b, c, weights, metric = step(t, rng, a, b, c)
        trace.append(math.nan if metric is None else metric)
        if cfg.record_trace:
            last_move[_columns_moved(before, (a, b, c))] = t
        if metric is None:
            prev = None
            continue
        # Below the floor the fit is exact up to roundoff, where the
        # relative-change rule would only see floating-point noise.
        if metric < _RESIDUAL_FLOOR or (
            prev is not None and abs(prev - metric) <= cfg.tol * max(prev, 1e-300)
        ):
            converged = True
            break
        prev = metric
    steps = None
    if cfg.record_trace:
        steps = np.where(last_move < t, last_move + 1, -1)
    return DecompResult(
        model=CpModel(weights, a, b, c),
        iterations_used=t,
        converged=converged,
        residual_trace=np.asarray(trace) if cfg.record_trace else None,
        factor_convergence_steps=steps,
    )


def _driver(tensor, cfg):
    """Run the ALS family's sweep policy ``cfg`` on ``tensor``.

    When the last sweep orthogonalized, each weight is re-estimated as the
    full contraction ``T(a_r, b_r, c_r)``, the final step of the
    orthogonalized algorithm (``<T - M, a_r∘b_r∘c_r>`` for a
    :class:`_Deflated` input).  It is read from that sweep's mode-3 MTTKRP,
    ``w_r = sum_k C[k, r] m3[k, r]``, so the re-estimation reads the tensor
    no more.  A column that a solve zeroed has a zero ``m3`` column, so its
    weight is 0, not the tensor contracted with its unit stand-ins.
    """
    ws = _Workspace(tensor)
    last = {}

    def step(t, rng, a, b, c):
        a, _, b, _, c1, m3 = _sweep(ws, a, b, c)
        last["m3"] = m3
        inner = float(np.sum(c1 * m3))
        model_sq = float(((a.T @ a) * (b.T @ b) * (c1.T @ c1)).sum())
        c, weights = normalize_columns(c1)
        return a, b, c, weights, ws.stop_ratio(inner, model_sq, weights, a, b, c)

    result = _sweep_engine(cfg, ws.dims, step, ws)
    m = result.model
    weights = m.weights
    if _orthogonalizes(cfg, result.iterations_used):
        weights = np.einsum("kr,kr->r", m.C, last["m3"])
    result.model = CpModel(weights, m.A, m.B, m.C).canonical()
    return result


def _columns_moved(old, new):
    moved = np.zeros(old[0].shape[1], dtype=bool)
    for o, n in zip(old, new):
        corr = np.abs(np.einsum("ir,ir->r", o, n))
        moved |= corr < 1.0 - _MOVED_CORR_TOL
    return moved


def als_run(tensor, cfg):
    """Plain ALS: sequential least-squares sweeps with per-iteration
    normalization and weight re-estimation."""
    return _driver(tensor, replace(cfg, orth_mode="none"))


def orth_als_run(tensor, cfg):
    """ALS with per-iteration QR orthogonalization of all three factors."""
    return _driver(tensor, replace(cfg, orth_mode="always"))


def hybrid_run(tensor, cfg):
    """Orthogonalized iterations for the first ``cfg.orth_steps`` sweeps
    (default 5), plain ALS afterwards."""
    return _driver(tensor, replace(cfg, orth_mode="first_s"))


# The ALS family: the slice of ``ALGORITHMS`` that runs on ``(tensor, cfg)``.
ALS_RUNNERS = {"als": als_run, "orth-als": orth_als_run, "hybrid": hybrid_run}


def _rank1_update(ws, mode, u, v):
    """Rank-1 MTTKRP: contract every mode except ``mode`` with one vector."""
    return ws.mttkrp(mode, u[:, None], v[:, None])[:, 0]


def _require_unit(vec, name):
    v = np.asarray(vec, dtype=np.float64).reshape(-1)
    _require_unit_columns(v[:, None], _UNIT_NORM_TOL, name + " must be unit-norm, got norm {norm!r}")
    return v


def tpm_run(tensor, x0, y0, z0, iters):
    """Rank-1 alternating power updates from given unit initializations.

    Runs ``iters`` simultaneous mode updates with per-step normalization and
    returns ``(weight, x, y, z)`` where the weight is the full trilinear
    contraction against the converged triple.
    """
    x = _require_unit(x0, "x0")
    y = _require_unit(y0, "y0")
    z = _require_unit(z0, "z0")
    return _power_run(_Workspace(tensor), x, y, z, iters)


def _power_run(ws, x, y, z, iters):
    """:func:`_power_kernel` on a batch of one; returns ``(weight, x, y, z)``."""
    w, xs, ys, zs, alive = _power_kernel(ws, x[:, None], y[:, None], z[:, None], iters)
    if not alive[0]:
        raise NumericalFailureError(
            "power update vanished: iterate is orthogonal to every component"
        )
    return float(w[0]), xs[:, 0], ys[:, 0], zs[:, 0]


def _power_kernel(ws, xs, ys, zs, iters):
    """``iters`` simultaneous rank-1 power updates of every column triple.

    Returns ``(weights, xs, ys, zs, alive)``: each weight is the full
    contraction against its final unit triple, and ``alive`` is false where an
    update vanished (the iterate was orthogonal to every component).
    """
    _require_at_least("iters", iters, 0)
    alive = np.ones(xs.shape[1], dtype=bool)
    for _ in range(iters):
        # In this order a dense workspace forms the partials of modes 1 and
        # 3, each one GEMM, and not mode 2's batched one (tensors._dense_partial).
        y1 = ws.mttkrp(2, xs, zs)
        z1 = ws.mttkrp(3, xs, ys)
        x1 = ws.mttkrp(1, ys, zs)
        xs, nx = normalize_columns(x1)
        ys, ny = normalize_columns(y1)
        zs, nz = normalize_columns(z1)
        alive &= (nx > 0) & (ny > 0) & (nz > 0)
    return np.einsum("ir,ir->r", xs, ws.mttkrp(1, ys, zs)), xs, ys, zs, alive


def tpm_multi(tensor, n_inits, iters, rank, seed=0, init="random"):
    """Tensor power method with many restarts, clustered down to ``rank``.

    Each of the ``n_inits`` restarts gets an independent RNG stream derived
    from ``seed``, so results do not depend on execution order.  Restart
    results are sorted by decreasing ``|weight|``; a triple joins the first
    cluster whose representative correlates at least ``_CLUSTER_CORR``
    (0.9) with it in every mode, otherwise it seeds a new cluster.  The
    model holds the representatives of the ``rank`` heaviest clusters (fewer
    if fewer clusters formed, which is logged).
    """
    _require_at_least("rank", rank, 1)
    if n_inits < rank:
        raise ValueError(f"need at least rank={rank} initializations, got {n_inits}")
    ws = _Workspace(tensor)
    cfg = DecompConfig(rank=1, init=init)
    triples = [
        _initial_factors(ws.dims, cfg, np.random.default_rng(s), ws)
        for s in np.random.SeedSequence(seed).spawn(n_inits)
    ]
    starts = (np.hstack([t[mode] for t in triples]) for mode in range(3))
    weights, xs, ys, zs, alive = _power_kernel(ws, *starts, iters)
    dead = np.flatnonzero(~alive)
    if dead.size:
        logger.warning("tpm_multi: %d restarts degenerated and were dropped", dead.size)

    order = [i for i in np.argsort(-np.abs(weights), kind="stable") if alive[i]]
    rep_idx = []
    for i in order:
        for j in rep_idx:
            if min(abs(float(f[:, i] @ f[:, j])) for f in (xs, ys, zs)) >= _CLUSTER_CORR:
                break
        else:
            rep_idx.append(i)
    if len(rep_idx) < rank:
        logger.warning(
            "tpm_multi: only %d clusters found for requested rank %d",
            len(rep_idx),
            rank,
        )
    rep_idx = rep_idx[:rank]
    model = CpModel(weights[rep_idx], xs[:, rep_idx], ys[:, rep_idx], zs[:, rep_idx])
    return model.canonical()


def orth_tpm_run(tensor, rank, iters, seed=0):
    """Sequential power-method recovery with orthogonally projected restarts.

    For each factor in turn, a fresh random initialization is projected
    orthogonal to the factors already recovered (at initialization only, per
    mode), then plain power iterations run to convergence.  Projections that
    annihilate the draw are retried up to 3 times.
    """
    _require_at_least("rank", rank, 1)
    if rank > min(tensor.dims):
        raise InvalidConfigError(f"rank {rank} exceeds min(dims)={min(tensor.dims)}")
    rng = np.random.default_rng(seed)
    ws = _Workspace(tensor)
    bases = [np.zeros((d, 0)) for d in tensor.dims]
    cols = [[], [], []]
    weights = []
    for i in range(rank):
        for attempt in range(3):
            draw = [_random_unit_columns(rng, d, 1)[:, 0] for d in tensor.dims]
            triple = [_project_out(basis, v, 1e-8) for basis, v in zip(bases, draw)]
            if all(v is not None for v in triple):
                break
            logger.warning(
                "orth_tpm_run: projected initialization %d vanished (attempt %d)",
                i,
                attempt + 1,
            )
        else:
            raise DegenerateInputError(
                f"could not draw an initialization orthogonal to the first {i} factors"
            )
        w, x, y, z = _power_run(ws, *triple, iters)
        weights.append(w)
        for mode, v in enumerate((x, y, z)):
            cols[mode].append(v)
            u = _project_out(bases[mode], v, 1e-10)
            if u is not None:
                bases[mode] = np.column_stack([bases[mode], u])
    return CpModel(np.asarray(weights), *map(np.column_stack, cols)).canonical()


def _project_out(basis, v, tol):
    """``v`` minus its projection on the orthonormal columns of ``basis``,
    normalized; ``None`` when what is left has norm at most ``tol``."""
    res = v - basis @ (basis.T @ v)
    n = np.linalg.norm(res)
    return res / n if n > tol else None


def svd_init(tensor, rank, seed=None):
    """Factor initialization from the singular vectors of a random projection.

    Contracts the third mode with a random unit vector, takes the top
    ``rank`` left/right singular vectors as the mode-1/mode-2 starts, and
    bootstraps the mode-3 start with one least-squares update.  If the
    projection has numerical rank below ``rank``, the missing columns are
    padded with random unit vectors (logged).
    """
    return _svd_init(_Workspace(tensor), rank, np.random.default_rng(seed))


def _svd_init(ws, rank, rng):
    """:func:`svd_init` whose mode-3 solve runs through the run's workspace."""
    d1, d2, d3 = ws.dims
    _require_at_least("rank", rank, 1)
    if rank > min(d1, d2):
        raise InvalidConfigError(f"rank {rank} exceeds min(d1, d2)={min(d1, d2)}")
    u, s, v = _projection_svd(ws, rng, rank)
    numerical_rank = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
    a0, b0 = np.array(u), np.array(v)
    if numerical_rank < rank:
        logger.warning(
            "svd_init: projection rank %d < requested %d; padding with random columns",
            numerical_rank,
            rank,
        )
        a0[:, numerical_rank:] = _random_unit_columns(rng, d1, rank - numerical_rank)
        b0[:, numerical_rank:] = _random_unit_columns(rng, d2, rank - numerical_rank)
    c0, _ = ws.ls_update(3, a0, b0)
    return a0, b0, normalize_columns(c0)[0]


def _projection_svd(ws, rng, k):
    """Top ``k`` singular triples ``(U, S, V)`` of the workspace tensor's
    mode-3 projection onto a random unit vector drawn from ``rng``."""
    v = _random_unit_columns(rng, ws.dims[2], 1)[:, 0]
    return top_svd(ws.contract_mode3(v), k)


def simdiag(tensor, rank, seed=0):
    """Simultaneous diagonalization from two random mode-3 contractions.

    Eigenvectors of ``M1 M2^+`` give the mode-1 factors and eigenvectors of
    ``(M2^+ M1)^T`` the mode-2 factors, paired by eigenvalue; the mode-3
    factors and weights come from one least-squares solve.  Exact for
    noiseless tensors with linearly independent factors, and deliberately
    strict about its own failure modes: near-equal eigenvalues, numerically
    singular projections, or complex eigenvector residue trigger one redraw
    of the projection vectors, then :class:`NumericalFailureError`.
    """
    d3 = tensor.dims[2]
    _require_at_least("rank", rank, 1)
    if rank > min(tensor.dims):
        raise InvalidConfigError(f"rank {rank} exceeds min(dims)={min(tensor.dims)}")
    rng = np.random.default_rng(seed)
    ws = _Workspace(tensor)
    last_error = None
    for attempt in range(2):
        u = _random_unit_columns(rng, d3, 1)[:, 0]
        v = _random_unit_columns(rng, d3, 1)[:, 0]
        try:
            return _simdiag_from_projections(ws, u, v, rank)
        except NumericalFailureError as exc:
            last_error = exc
            logger.warning("simdiag attempt %d failed: %s", attempt + 1, exc)
    raise NumericalFailureError(f"simdiag failed after one redraw: {last_error}")


def _simdiag_from_projections(ws, u, v, rank):
    m1 = ws.contract_mode3(u)
    m2 = ws.contract_mode3(v)
    u2, s2, vh2 = np.linalg.svd(m2, full_matrices=False)
    if s2.size == 0 or s2[0] == 0.0 or (rank <= s2.size and s2[rank - 1] <= _PINV_RCOND * s2[0]):
        raise NumericalFailureError("second projection is numerically singular")
    # np.linalg.pinv(m2, _PINV_RCOND) from the SVD already taken, with the same bits.
    large = s2 > _PINV_RCOND * s2[0]
    s2_inv = np.divide(1.0, s2, where=large, out=np.zeros_like(s2))
    m2p = vh2.T @ (s2_inv[:, None] * u2.T)
    vals_a, vecs_a = eig_nonsym(m1 @ m2p)
    vals_b, vecs_b = eig_nonsym((m2p @ m1).T)
    sel_a = np.argsort(-np.abs(vals_a), kind="stable")[:rank]
    sel_b = np.argsort(-np.abs(vals_b), kind="stable")[:rank]
    lam = vals_a[sel_a]
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < _GAP_RTOL * np.abs(lam).max():
        raise NumericalFailureError("eigenvalue gap below tolerance; factors not separable")
    # Pair mode-2 eigenvectors to mode-1 ones through their shared eigenvalues.
    lam_b = vals_b[sel_b]
    used = np.zeros(rank, dtype=bool)
    pair = np.zeros(rank, dtype=np.int64)
    for i in range(rank):
        dist = np.abs(lam_b - lam[i])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        pair[i] = sel_b[j]
    a = _realize_eigvecs(vecs_a[:, sel_a])
    b = _realize_eigvecs(vecs_b[:, pair])
    c_raw, _ = ws.ls_update(3, a, b)
    c, w = normalize_columns(c_raw)
    return CpModel(w, a, b, c).canonical()


def _realize_eigvecs(vecs):
    """Phase-align eigenvectors and take real parts; reject complex residue."""
    out = np.empty(vecs.shape)
    for r in range(vecs.shape[1]):
        col = vecs[:, r]
        lead = col[int(np.argmax(np.abs(col)))]
        phase = lead / abs(lead) if lead != 0 else 1.0
        aligned = col / phase
        if np.linalg.norm(aligned.imag) > _IMAG_TOL * np.linalg.norm(aligned):
            raise NumericalFailureError(
                f"eigenvector {r} has complex residue beyond tolerance"
            )
        out[:, r] = aligned.real
    return normalize_columns(out)[0]


def _als_entry(runner):
    return lambda tensor, cfg, n_inits: runner(tensor, cfg)


def _check_init(name, cfg, inits):
    if cfg.init not in inits:
        raise InvalidConfigError(f"{name} takes init in {inits}, got {cfg.init!r}")


# The power methods run a fixed number of iterations and simdiag is direct:
# none of them has a stop rule to converge by.
def _tpm_entry(tensor, cfg, n_inits):
    _check_init("tpm", cfg, ("random", "svd"))
    model = tpm_multi(tensor, max(n_inits, cfg.rank), cfg.max_iters, cfg.rank, cfg.seed, cfg.init)
    return DecompResult(model, cfg.max_iters, converged=False)


def _orth_tpm_entry(tensor, cfg, n_inits):
    _check_init("orth-tpm", cfg, ("random",))
    model = orth_tpm_run(tensor, cfg.rank, cfg.max_iters, cfg.seed)
    return DecompResult(model, cfg.max_iters, converged=False)


def _simdiag_entry(tensor, cfg, n_inits):
    _check_init("simdiag", cfg, ("random",))
    return DecompResult(simdiag(tensor, cfg.rank, cfg.seed), 1, converged=False)


# Every decomposition algorithm by its command-line and benchmark name.  Each
# entry is ``run(tensor, cfg, n_inits) -> DecompResult``; ``n_inits`` is the
# restart count of ``tpm`` (at least ``cfg.rank``), and the others ignore it.
# An entry raises InvalidConfigError for a ``cfg.init`` it cannot start from.
ALGORITHMS = {
    **{name: _als_entry(runner) for name, runner in ALS_RUNNERS.items()},
    "tpm": _tpm_entry,
    "orth-tpm": _orth_tpm_entry,
    "simdiag": _simdiag_entry,
}


def beta_bound(beta0, gamma, k, c_max, steps):
    """Deterministic envelope recursion for weighted correlation ratios.

    Iterates ``b <- gamma * c_max + b^2 + 3 * gamma * k * c_max * b^2`` from
    ``beta0`` and returns the trajectory of length ``steps + 1``.  With
    ``c_max = 0`` this reduces to pure repeated squaring.
    """
    beta0, gamma, c_max = float(beta0), float(gamma), float(c_max)
    if not 0.0 <= beta0 < 1.0:
        raise ValueError(f"beta0 must lie in [0, 1), got {beta0}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if c_max < 0.0:
        raise ValueError(f"c_max must be >= 0, got {c_max}")
    _require_at_least("steps", steps, 0)
    out = np.empty(steps + 1)
    b = beta0
    out[0] = b
    boost = 1.0 + 3.0 * gamma * k * c_max
    # The recursion may diverge; inf is a legitimate (vacuous) upper envelope.
    for t in range(1, steps + 1):
        b = gamma * c_max + b * b * boost
        out[t] = b
    return out


@dataclass(frozen=True)
class TraceRecord:
    """Per-step correlation ratios of a symmetric power iteration against a
    known model.

    ``ratios[t, i]`` is the mode-1 correlation of truth column i with the
    iterate at step t, divided by the correlation of the ``target`` column
    (the one with the largest initial weighted correlation).
    ``weighted_ratios`` multiplies in ``w_i / w_target``.  Steps where the
    target correlation fell below the floor are marked undefined.
    """

    target: int
    ratios: np.ndarray
    weighted_ratios: np.ndarray
    defined: np.ndarray


def tpm_correlation_trace(tensor, truth, steps, seed=0, x0=None):
    """Run a symmetric power iteration and record correlation ratios.

    The iterate is shared across modes (x = y = z), matching the symmetric
    analysis setting; use symmetric tensors.  Returns a :class:`TraceRecord`
    with ``steps + 1`` rows (step 0 is the initialization).
    """
    _require_at_least("steps", steps, 0)
    d = truth.A.shape[0]
    rng = np.random.default_rng(seed)
    if x0 is None:
        x = _random_unit_columns(rng, d, 1)[:, 0]
    else:
        x = _require_unit(x0, "x0")
    w = truth.weights
    corr = truth.A.T @ x
    target = int(np.argmax(np.abs(w * corr)))
    k = truth.k

    ratios = np.full((steps + 1, k), np.nan)
    defined = np.zeros(steps + 1, dtype=bool)
    hat_w = w / w[target]

    def record(row, corr_vec):
        denom = corr_vec[target]
        if abs(denom) > _DENOM_FLOOR:
            ratios[row] = corr_vec / denom
            defined[row] = True

    record(0, corr)
    ws = _Workspace(tensor)
    for t in range(1, steps + 1):
        x1 = _rank1_update(ws, 1, x, x)
        n = np.linalg.norm(x1)
        if n == 0.0:
            raise NumericalFailureError("power update vanished during trace")
        x = x1 / n
        record(t, truth.A.T @ x)
    weighted = ratios * hat_w[None, :]
    return TraceRecord(target=target, ratios=ratios, weighted_ratios=weighted, defined=defined)
