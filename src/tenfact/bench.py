"""Synthetic instance generation and the reproducible experiment harness.

Instances are low-rank tensors with factors drawn uniformly from the unit
sphere and weights either uniform or geometrically spaced.  The two suites
mirror the standard evaluation protocols: ``run_recovery_suite`` counts how
many true factors each algorithm recovers at a correlation threshold, and
``run_residual_suite`` records per-iteration relative residual curves on a
shared instance per seed.

Both suites run one trial loop: each ``(spec, trial)`` job draws its
instance once, runs every algorithm on it and scores the model by recovered
factors.  They differ in two rules only.  The recovery suite scores the
final residual with ``residual_ratio`` and records a failing algorithm as a
zero-recovery error row; the residual suite records traces, takes the final
residual from the last trace entry and lets a failure propagate.

Reproducibility contract: every trial derives its RNG stream from
``(spec.seed, trial, algorithm)``, so reports are identical (except wall
time) regardless of execution order or worker count.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import glob
import logging
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .decompose import ALGORITHMS, ALS_RUNNERS, DecompConfig, _random_unit_columns
from .errors import TenfactError
from .linalg import match_factors
from .tensors import CpModel, DenseTensor3, cp_reconstruct, residual_ratio

__all__ = [
    "SynthSpec",
    "TrialReport",
    "ALGORITHM_NAMES",
    "gen_random_cp",
    "add_noise",
    "run_recovery_suite",
    "run_residual_suite",
    "write_recovery_csv",
    "write_traces_csv",
    "derived_seed",
]

logger = logging.getLogger(__name__)

RECOVERY_THRESHOLD = 0.9
DEFAULT_TPM_INITS = 100

RECOVERY_HEADER = [
    "algo",
    "d",
    "k",
    "weight_ratio",
    "noise",
    "seed",
    "trial",
    "recovered",
    "residual",
    "iters",
    "wall_ms",
]
TRACE_HEADER = ["algo", "seed", "iter", "residual"]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one family of random low-rank instances."""

    d: int
    k: int
    weight_scheme: str = "uniform"  # "uniform" | "geometric"
    weight_ratio: float = 1.0
    symmetric: bool = False
    noise_sigma_rel: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.k < 1:
            raise ValueError(f"d and k must be >= 1, got d={self.d}, k={self.k}")
        if self.weight_scheme not in ("uniform", "geometric"):
            raise ValueError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.weight_ratio < 1.0:
            raise ValueError(f"weight_ratio must be >= 1, got {self.weight_ratio}")
        if self.noise_sigma_rel < 0.0:
            raise ValueError("noise_sigma_rel must be >= 0")


@dataclass
class TrialReport:
    """One (instance, algorithm) outcome row."""

    algo: str
    d: int
    k: int
    weight_ratio: float
    noise: float
    seed: int
    trial: int
    recovered_count: int
    residual_final: float
    iterations: int
    wall_time_s: float
    residual_trace: np.ndarray | None = None
    error: str | None = None


def derived_seed(*parts):
    """Stable 64-bit seed derived from a tuple of integer key parts.

    The key length is folded into the entropy because SeedSequence ignores
    trailing zeros, which would otherwise make (s, 0) collide with (s,).
    """
    ss = np.random.SeedSequence((len(parts),) + tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def _weight_vector(spec):
    if spec.weight_scheme == "uniform" or spec.k == 1 or spec.weight_ratio == 1.0:
        return np.ones(spec.k)
    exponents = -np.arange(spec.k) / (spec.k - 1)
    return spec.weight_ratio**exponents


def gen_random_cp(spec):
    """Draw a random CP model and its dense reconstruction.

    Factors are i.i.d. uniform on the unit sphere (Gaussian draws,
    normalized); the symmetric flag reuses the mode-1 factors for all modes.
    Geometric weights interpolate so that ``w[0] / w[k-1] == weight_ratio``.
    """
    rng = np.random.default_rng(spec.seed)
    a = _random_unit_columns(rng, spec.d, spec.k)
    if spec.symmetric:
        b = c = a
    else:
        b = _random_unit_columns(rng, spec.d, spec.k)
        c = _random_unit_columns(rng, spec.d, spec.k)
    model = CpModel(_weight_vector(spec), a, b, c)
    return model, cp_reconstruct(model)


def add_noise(tensor, sigma_rel, seed=0):
    """Perturb each entry of a dense tensor by centered Gaussian noise of sd
    ``sigma_rel * |T_ijk|``."""
    if not isinstance(tensor, DenseTensor3):
        raise ValueError(f"add_noise takes a DenseTensor3, got {type(tensor).__name__}")
    if sigma_rel < 0:
        raise ValueError("sigma_rel must be >= 0")
    if sigma_rel == 0.0:
        return tensor
    rng = np.random.default_rng(seed)
    arr = tensor.array
    noisy = arr + rng.standard_normal(arr.shape) * (sigma_rel * np.abs(arr))
    return DenseTensor3(noisy)


# Benchmark names that run a registry entry from SVD starts.
_ALIASES = {"als-svd": ("als", "svd"), "tpm-svd": ("tpm", "svd")}
ALGORITHM_NAMES = (*ALGORITHMS, *_ALIASES)


def _resolve(name):
    """The registry name and init of a benchmark algorithm name."""
    return _ALIASES.get(name, (name, "random"))


def _trial(spec, trial, algorithms, iters, tol, traced):
    """Run every algorithm on one seeded instance; one TrialReport each.

    ``traced`` selects the residual suite's scoring and failure rule over the
    recovery suite's (see the module docstring).
    """
    instance_seed = derived_seed(spec.seed, trial)
    truth, tensor = gen_random_cp(replace(spec, seed=instance_seed))
    if spec.noise_sigma_rel > 0:
        tensor = add_noise(tensor, spec.noise_sigma_rel, seed=derived_seed(instance_seed, 977))
    reports = []
    for algo_idx, name in enumerate(algorithms):
        base, init = _resolve(name)
        start = time.perf_counter()
        trace = error = None
        try:
            cfg = DecompConfig(
                rank=spec.k,
                max_iters=iters,
                tol=tol,
                init=init,
                seed=derived_seed(spec.seed, trial, algo_idx),
                record_trace=traced,
            )
            result = ALGORITHMS[base](tensor, cfg, DEFAULT_TPM_INITS)
            recovered = match_factors(truth, result.model, RECOVERY_THRESHOLD).recovered_count
            trace, used = result.residual_trace, result.iterations_used
            residual = float(trace[-1]) if traced else residual_ratio(tensor, result.model)
        except TenfactError as exc:
            if traced:
                raise
            logger.warning("%s failed on trial %d: %s", name, trial, exc)
            error = str(exc)
            recovered, residual, used = 0, float("nan"), 0
        reports.append(
            TrialReport(
                algo=name,
                d=spec.d,
                k=spec.k,
                weight_ratio=spec.weight_ratio,
                noise=spec.noise_sigma_rel,
                seed=instance_seed,
                trial=trial,
                recovered_count=recovered,
                residual_final=residual,
                iterations=used,
                wall_time_s=time.perf_counter() - start,
                residual_trace=trace,
                error=error,
            )
        )
    return reports


def _jobs(grid, trials):
    """The ``(spec, trial)`` jobs of ``trials`` trials of every spec in ``grid``."""
    _require_positive("trials", trials)
    return [(spec, trial) for spec in grid for trial in range(trials)]


def _require_positive(name, count):
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"{name} must be a positive integer, got {count!r}")


def _run_trials(jobs, algorithms, iters, tol, threads, traced):
    """Run ``(spec, trial)`` jobs on a pool of ``threads`` workers, in job order.

    BLAS runs at one thread throughout (:func:`_one_blas_thread`), at every
    worker count, so that the last bits of a suite's results do not depend
    on the machine's core count or on ``threads``, which must be a positive
    integer.
    """
    _require_positive("threads", threads)

    def work(job):
        return _trial(*job, algorithms, iters, tol, traced)

    with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        per_job = list(pool.map(work, jobs))
    return [report for rows in per_job for report in rows]


@contextmanager
def _one_blas_thread():
    """Set numpy's OpenBLAS to one thread inside the block, then restore its count.

    The count is process-wide, so it is set here, in the calling thread,
    never from a worker.  Where the library or its symbols are missing (a
    numpy built on another BLAS), the block runs as it is.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


@functools.cache
def _openblas_thread_calls():
    """``(set, get)`` thread-count calls of the OpenBLAS bundled in numpy's
    wheel, the calls threadpoolctl uses, or None, logged once, without one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        try:
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    logger.info("numpy's bundled OpenBLAS not found; bench suites run BLAS at its own thread count")
    return None


def run_recovery_suite(grid, algorithms, trials, iters=100, tol=1e-6, threads=1):
    """Factor-recovery experiment over a grid of instance specs.

    For every spec in ``grid`` and every trial, a fresh seeded instance is
    generated and each algorithm is scored by the number of true factors
    matched at correlation 0.9.  Individual algorithm failures are recorded
    as zero-recovery rows and never abort the suite.  Reports come back
    sorted by (grid position, trial, algorithm position).
    """
    for name in algorithms:
        if name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {name!r}; choose from {ALGORITHM_NAMES}")
    return _run_trials(_jobs(grid, trials), algorithms, iters, tol, threads, traced=False)


def run_residual_suite(spec, algorithms, iters, trials=1, tol=1e-6, threads=1):
    """Residual-curve experiment: per-iteration traces on shared instances.

    Each trial builds one instance; every algorithm that records traces (the
    ALS family) is run on it with ``record_trace`` enabled.  Returns
    TrialReports carrying the traces.
    """
    traceable = tuple(n for n in ALGORITHM_NAMES if _resolve(n)[0] in ALS_RUNNERS)
    for name in algorithms:
        if name not in traceable:
            raise ValueError(f"residual suite supports {traceable}, got {name!r}")
    return _run_trials(_jobs([spec], trials), algorithms, iters, tol, threads, traced=True)


def write_recovery_csv(reports, path):
    """Emit recovery reports in the stable CSV schema (UTF-8, LF)."""
    rows = (
        [
            r.algo,
            r.d,
            r.k,
            _fmt(r.weight_ratio),
            _fmt(r.noise),
            r.seed,
            r.trial,
            r.recovered_count,
            _fmt(r.residual_final),
            r.iterations,
            _fmt(r.wall_time_s * 1000.0),
        ]
        for r in reports
    )
    _write_csv(path, RECOVERY_HEADER, rows)


def write_traces_csv(reports, path):
    """Emit residual traces, one row per (algo, seed, iteration)."""
    rows = (
        [r.algo, r.seed, it, _fmt(value)]
        for r in reports
        if r.residual_trace is not None
        for it, value in enumerate(r.residual_trace, start=1)
    )
    _write_csv(path, TRACE_HEADER, rows)


def _write_csv(path, header, rows):
    """Write ``header`` and then ``rows`` to ``path`` as CSV (UTF-8, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x):
    return repr(float(x))
