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
the identity, the first mode update after orthogonalization reduces to the
bare MTTKRP with no pseudoinverse.  ``ALS_RUNNERS`` names the three runners
for the CLI and the benchmark suites.

Every sweep, and every other repeated MTTKRP, runs through one per-run
``_Workspace``.  For a dense tensor it keeps the mode-3 partial ``T x_3 C``
that modes 1 and 2 of a sweep both contract (the dimension tree of Phan,
Tichavský & Cichocki, IEEE TSP 2013), so a sweep costs two large GEMMs and
no Khatri-Rao product; for a sparse tensor it keeps each mode's fiber plan.
Each mode update is the exact least-squares step of the standard CP-ALS loop
(Kolda & Bader, SIAM Review 2009), taken through one Gram-pseudoinverse
helper shared with ``linalg.ls_solve_kr``.

The tensor power method is the rank-1 special case with simultaneous mode
updates; ``tpm_multi`` runs many random restarts and clusters the results,
``orth_tpm_run`` instead projects each fresh initialization orthogonal to the
factors already recovered.  ``simdiag`` is the classical eigendecomposition
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
from .linalg import _gram_solve, eig_nonsym, orth_step
from .tensors import (
    CpModel,
    DenseTensor3,
    contract3,
    contract_mode3,
    _dense_mttkrp,
    _fiber_mttkrp,
    _mode3_partial,
    _mode_plan,
    khatri_rao,
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

# Residuals below this level are recomputed from an explicit reconstruction:
# the Gram-identity shortcut loses accuracy to cancellation near zero.
_EXPLICIT_REFINE_LEVEL = 1e-5
# Tensors at most this large always get the explicit (exact) residual.
_EXPLICIT_SIZE_LIMIT = 40_000
# Relative residual at which a fit counts as exact regardless of tol.
_RESIDUAL_FLOOR = 1e-13


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
        if self.rank < 1:
            raise InvalidConfigError(f"rank must be >= 1, got {self.rank}")
        if self.max_iters < 1:
            raise InvalidConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise InvalidConfigError(f"tol must be positive, got {self.tol}")
        if self.orth_steps < 0:
            raise InvalidConfigError(f"orth_steps must be >= 0, got {self.orth_steps}")
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


@dataclass
class DecompResult:
    """Outcome of a decomposition run.

    ``residual_trace`` holds the per-iteration relative residual and is
    present iff the config asked for it; its length equals
    ``iterations_used``.  ``factor_convergence_steps[r]`` is the first
    iteration after which column r stopped moving (-1 if it was still moving
    at termination); recorded only alongside the trace.
    """

    model: CpModel
    iterations_used: int
    converged: bool
    residual_trace: np.ndarray | None = None
    factor_convergence_steps: np.ndarray | None = None


class _Workspace:
    """Per-run cache of what repeated MTTKRPs share.

    A sparse tensor keeps the fiber plan of each mode's nonzeros (see
    ``tensors._fiber_plan``), built on the mode's first use and reused for
    the rest of the run.  A dense tensor is read in its row-major layout
    (see ``tensors._dense_mttkrp``) and keeps the last mode-3 partial
    ``Y = T x_3 q`` with a copy of the ``q`` it came from.  A mode-1 or
    mode-2 call reuses ``Y`` when its ``q`` equals that copy by value, so an
    ALS sweep, whose first two modes both contract the old third factor,
    forms ``Y`` once (the dimension tree of Phan, Tichavský & Cichocki, IEEE
    TSP 2013).  Values, not identities, are compared because callers may
    change an array in place.
    """

    def __init__(self, tensor):
        self.tensor = tensor
        self.dims = tensor.dims
        self.size = self.dims[0] * self.dims[1] * self.dims[2]
        self.tnorm = tensor.norm()
        self.tnorm_sq = self.tnorm**2
        self.dense = isinstance(tensor, DenseTensor3)
        self._modes = [None, None, None]
        self._partial = self._partial_q = None

    def _mode(self, mode):
        if self._modes[mode - 1] is None:
            self._modes[mode - 1] = _mode_plan(self.tensor, mode)
        return self._modes[mode - 1]

    def mttkrp(self, mode, p, q):
        if not self.dense:
            return _fiber_mttkrp(self._mode(mode), p, q)
        arr = self.tensor.array
        if mode == 3:
            return _dense_mttkrp(arr, 3, p, q)
        if self._partial_q is None or not np.array_equal(self._partial_q, q):
            self._partial = _mode3_partial(arr, q)
            self._partial_q = np.array(q)
        return _dense_mttkrp(arr, mode, p, q, self._partial)

    def ls_update(self, mode, p, q):
        """Exact least-squares factor update; also returns the MTTKRP."""
        mtt = self.mttkrp(mode, p, q)
        return _gram_solve(mtt, p, q), mtt

    def ratio_from_sq(self, inner, model_sq):
        res_sq = max(self.tnorm_sq - 2.0 * inner + model_sq, 0.0)
        if self.tnorm == 0.0:
            return 0.0 if res_sq == 0.0 else math.inf
        return math.sqrt(res_sq) / self.tnorm

    def explicit_ratio(self, w, a, b, c):
        recon = (a * w) @ khatri_rao(b, c).T
        rnorm = float(np.linalg.norm(self.tensor.array.reshape(self.dims[0], -1) - recon))
        if self.tnorm == 0.0:
            return 0.0 if rnorm == 0.0 else math.inf
        return rnorm / self.tnorm

    def refine_ratio(self, ratio, w, a, b, c):
        """Swap in the exact residual where cancellation would dominate."""
        if self.dense and (self.size <= _EXPLICIT_SIZE_LIMIT or ratio < _EXPLICIT_REFINE_LEVEL):
            return self.explicit_ratio(w, a, b, c)
        return ratio


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
            m = np.array(m)
            m[:, list(exc.columns)] = _random_unit_columns(rng, m.shape[0], len(exc.columns))
    raise NumericalFailureError(
        f"orthogonalization of {label} failed after 3 re-randomizations"
    )


def als_sweep(tensor, a, b, c):
    """One full sweep of exact least-squares updates in mode order 1, 2, 3.

    Each mode solve uses the freshest versions of the other two factors.
    Columns are returned unnormalized; the scale bookkeeping belongs to the
    calling driver.
    """
    return _sweep(_Workspace(tensor), a, b, c)[:3]


def _sweep(ws, a, b, c):
    """One ALS sweep through ``ws``; also returns the mode-3 MTTKRP."""
    a1, _ = ws.ls_update(1, b, c)
    b1, _ = ws.ls_update(2, a1, c)
    c1, m3 = ws.ls_update(3, a1, b1)
    return a1, b1, c1, m3


def _orthogonalizes(cfg, t):
    """Whether sweep ``t`` (from 1) orthogonalizes the factors before its solves."""
    return cfg.orth_mode == "always" or (cfg.orth_mode == "first_s" and t <= cfg.orth_steps)


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
    k = cfg.rank
    if _orthogonalizes(cfg, 1) and k > min(dims):
        raise InvalidConfigError(
            f"rank {k} exceeds min(dims)={min(dims)}: orthogonalization "
            "requires rank <= dimension; use deflate_overcomplete for higher ranks"
        )
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
    ws = _Workspace(tensor)

    def step(t, rng, a, b, c):
        a1, b1, c1, m3 = _sweep(ws, a, b, c)
        inner = float(np.sum(c1 * m3))
        model_sq = float(((a1.T @ a1) * (b1.T @ b1) * (c1.T @ c1)).sum())
        res = ws.ratio_from_sq(inner, model_sq)
        a, na = normalize_columns(a1)
        b, nb = normalize_columns(b1)
        c, nc = normalize_columns(c1)
        weights = na * nb * nc
        return a, b, c, weights, ws.refine_ratio(res, weights, a, b, c)

    result = _sweep_engine(cfg, ws.dims, step, ws)
    m = result.model
    weights = m.weights
    if _orthogonalizes(cfg, result.iterations_used):
        # Weight re-estimation by full contraction against the tensor, the
        # final step of the orthogonalized algorithm.
        weights = np.einsum("ir,ir->r", m.A, ws.mttkrp(1, m.B, m.C))
    result.model = CpModel(weights, m.A, m.B, m.C).canonical()
    return result


def _columns_moved(old, new, corr_tol=1e-9):
    moved = np.zeros(old[0].shape[1], dtype=bool)
    for o, n in zip(old, new):
        corr = np.abs(np.einsum("ir,ir->r", o, n))
        moved |= corr < 1.0 - corr_tol
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


# The ALS family by its command-line and benchmark names.
ALS_RUNNERS = {"als": als_run, "orth-als": orth_als_run, "hybrid": hybrid_run}


def _rank1_update(ws, mode, u, v):
    """Rank-1 MTTKRP: contract every mode except ``mode`` with one vector."""
    return ws.mttkrp(mode, u[:, None], v[:, None])[:, 0]


def _require_unit(vec, name, tol=1e-9):
    v = np.asarray(vec, dtype=np.float64).reshape(-1)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > tol:
        raise ValueError(f"{name} must be unit-norm, got norm {n!r}")
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
    return _power_iterations(_Workspace(tensor), x, y, z, iters)


def _power_iterations(ws, x, y, z, iters):
    for _ in range(iters):
        x1 = _rank1_update(ws, 1, y, z)
        y1 = _rank1_update(ws, 2, x, z)
        z1 = _rank1_update(ws, 3, x, y)
        nx, ny, nz = np.linalg.norm(x1), np.linalg.norm(y1), np.linalg.norm(z1)
        if nx == 0.0 or ny == 0.0 or nz == 0.0:
            raise NumericalFailureError(
                "power update vanished: iterate is orthogonal to every component"
            )
        x, y, z = x1 / nx, y1 / ny, z1 / nz
    return float(contract3(ws.tensor, x, y, z)), x, y, z


def tpm_multi(
    tensor,
    n_inits,
    iters,
    rank,
    seed=0,
    init="random",
    cluster_threshold=0.9,
    inits=None,
):
    """Tensor power method with many restarts, clustered down to ``rank``.

    Each of the ``n_inits`` restarts gets an independent RNG stream derived
    from ``seed``, so results do not depend on execution order.  Restart
    results are sorted by decreasing ``|weight|``; a triple joins the first
    cluster whose representative correlates at least ``cluster_threshold``
    with it in every mode, otherwise it seeds a new cluster.  The model holds
    the representatives of the ``rank`` heaviest clusters (fewer if fewer
    clusters formed, which is logged).
    """
    if n_inits < rank:
        raise ValueError(f"need at least rank={rank} initializations, got {n_inits}")
    ws = _Workspace(tensor)
    if inits is None:
        streams = np.random.SeedSequence(seed).spawn(n_inits)
        triples = [_draw_tpm_init(ws, np.random.default_rng(s), init) for s in streams]
    else:
        if len(inits) != n_inits:
            raise ValueError("explicit inits must match n_inits")
        triples = [tuple(np.asarray(v, dtype=np.float64) for v in t) for t in inits]
    xs = np.column_stack([t[0] for t in triples])
    ys = np.column_stack([t[1] for t in triples])
    zs = np.column_stack([t[2] for t in triples])

    alive = np.ones(n_inits, dtype=bool)
    for _ in range(iters):
        x1 = ws.mttkrp(1, ys, zs)
        y1 = ws.mttkrp(2, xs, zs)
        z1 = ws.mttkrp(3, xs, ys)
        xs, nx = normalize_columns(x1)
        ys, ny = normalize_columns(y1)
        zs, nz = normalize_columns(z1)
        alive &= (nx > 0) & (ny > 0) & (nz > 0)
    weights = np.einsum("ir,ir->r", xs, ws.mttkrp(1, ys, zs))
    dead = np.flatnonzero(~alive)
    if dead.size:
        logger.warning("tpm_multi: %d restarts degenerated and were dropped", dead.size)

    order = [i for i in np.argsort(-np.abs(weights), kind="stable") if alive[i]]
    rep_idx = []
    for i in order:
        joined = False
        for j in rep_idx:
            corr = min(
                abs(float(xs[:, i] @ xs[:, j])),
                abs(float(ys[:, i] @ ys[:, j])),
                abs(float(zs[:, i] @ zs[:, j])),
            )
            if corr >= cluster_threshold:
                joined = True
                break
        if not joined:
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


def _draw_tpm_init(ws, rng, init):
    d1, d2, d3 = ws.dims
    if init == "random":
        return (
            _random_unit_columns(rng, d1, 1)[:, 0],
            _random_unit_columns(rng, d2, 1)[:, 0],
            _random_unit_columns(rng, d3, 1)[:, 0],
        )
    if init != "svd":
        raise ValueError(f"unknown TPM init {init!r}")
    v = _random_unit_columns(rng, d3, 1)[:, 0]
    m = contract_mode3(ws.tensor, v)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    x0, y0 = u[:, 0], vh[0]
    z0 = _rank1_update(ws, 3, x0, y0)
    n = np.linalg.norm(z0)
    if n == 0.0:
        z0 = _random_unit_columns(rng, d3, 1)[:, 0]
    else:
        z0 = z0 / n
    return x0, y0, z0


def orth_tpm_run(tensor, rank, iters, seed=0):
    """Sequential power-method recovery with orthogonally projected restarts.

    For each factor in turn, a fresh random initialization is projected
    orthogonal to the factors already recovered (at initialization only, per
    mode), then plain power iterations run to convergence.  Projections that
    annihilate the draw are retried up to 3 times.
    """
    d1, d2, d3 = tensor.dims
    if rank > min(tensor.dims):
        raise ValueError(f"rank {rank} exceeds min(dims)={min(tensor.dims)}")
    rng = np.random.default_rng(seed)
    ws = _Workspace(tensor)
    bases = [np.zeros((d, 0)) for d in (d1, d2, d3)]
    cols = [[], [], []]
    weights = []
    for i in range(rank):
        triple = None
        for attempt in range(3):
            draw = [
                _random_unit_columns(rng, d, 1)[:, 0] for d in (d1, d2, d3)
            ]
            projected = []
            ok = True
            for v, basis in zip(draw, bases):
                res = v - basis @ (basis.T @ v)
                n = np.linalg.norm(res)
                if n < 1e-8:
                    ok = False
                    break
                projected.append(res / n)
            if ok:
                triple = projected
                break
            logger.warning(
                "orth_tpm_run: projected initialization %d vanished (attempt %d)",
                i,
                attempt + 1,
            )
        if triple is None:
            raise DegenerateInputError(
                f"could not draw an initialization orthogonal to the first {i} factors"
            )
        w, x, y, z = _power_iterations(ws, *triple, iters)
        weights.append(w)
        for mode, v in enumerate((x, y, z)):
            cols[mode].append(v)
            basis = bases[mode]
            res = v - basis @ (basis.T @ v)
            n = np.linalg.norm(res)
            if n > 1e-10:
                bases[mode] = np.column_stack([basis, res / n])
    model = CpModel(
        np.asarray(weights),
        np.column_stack(cols[0]),
        np.column_stack(cols[1]),
        np.column_stack(cols[2]),
    )
    return model.canonical()


def svd_init(tensor, rank, seed=None, *, rng=None):
    """Factor initialization from the singular vectors of a random projection.

    Contracts the third mode with a random unit vector, takes the top
    ``rank`` left/right singular vectors as the mode-1/mode-2 starts, and
    bootstraps the mode-3 start with one least-squares update.  If the
    projection has numerical rank below ``rank``, the missing columns are
    padded with random unit vectors (logged).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    return _svd_init(_Workspace(tensor), rank, rng)


def _svd_init(ws, rank, rng):
    """:func:`svd_init` whose mode-3 solve runs through the run's workspace."""
    d1, d2, d3 = ws.dims
    if rank > min(d1, d2):
        raise ValueError(f"rank {rank} exceeds min(d1, d2)={min(d1, d2)}")
    v = _random_unit_columns(rng, d3, 1)[:, 0]
    m = contract_mode3(ws.tensor, v)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    numerical_rank = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
    a0 = np.array(u[:, :rank])
    b0 = np.array(vh[:rank].T)
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
    d1, d2, d3 = tensor.dims
    if rank > min(tensor.dims):
        raise ValueError(f"rank {rank} exceeds min(dims)={min(tensor.dims)}")
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


def _simdiag_from_projections(ws, u, v, rank, rcond=1e-8, gap_rtol=1e-8):
    m1 = contract_mode3(ws.tensor, u)
    m2 = contract_mode3(ws.tensor, v)
    s2 = np.linalg.svd(m2, compute_uv=False)
    if s2.size == 0 or s2[0] == 0.0 or (rank <= s2.size and s2[rank - 1] <= rcond * s2[0]):
        raise NumericalFailureError("second projection is numerically singular")
    m2p = np.linalg.pinv(m2, rcond=rcond)
    vals_a, vecs_a = eig_nonsym(m1 @ m2p)
    vals_b, vecs_b = eig_nonsym((m2p @ m1).T)
    sel_a = np.argsort(-np.abs(vals_a), kind="stable")[:rank]
    sel_b = np.argsort(-np.abs(vals_b), kind="stable")[:rank]
    lam = vals_a[sel_a]
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < gap_rtol * np.abs(lam).max():
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


def _realize_eigvecs(vecs, imag_tol=1e-6):
    """Phase-align eigenvectors and take real parts; reject complex residue."""
    out = np.empty(vecs.shape)
    for r in range(vecs.shape[1]):
        col = vecs[:, r]
        lead = col[int(np.argmax(np.abs(col)))]
        phase = lead / abs(lead) if lead != 0 else 1.0
        aligned = col / phase
        if np.linalg.norm(aligned.imag) > imag_tol * np.linalg.norm(aligned):
            raise NumericalFailureError(
                f"eigenvector {r} has complex residue beyond tolerance"
            )
        out[:, r] = aligned.real
    return normalize_columns(out)[0]


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


def tpm_correlation_trace(tensor, truth, steps, seed=0, x0=None, denom_floor=1e-13):
    """Run a symmetric power iteration and record correlation ratios.

    The iterate is shared across modes (x = y = z), matching the symmetric
    analysis setting; use symmetric tensors.  Returns a :class:`TraceRecord`
    with ``steps + 1`` rows (step 0 is the initialization).
    """
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
        if abs(denom) > denom_floor:
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
