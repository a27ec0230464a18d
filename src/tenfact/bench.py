"""Synthetic instance generation and the reproducible experiment harness.

Instances are low-rank tensors with factors drawn uniformly from the unit
sphere and weights either uniform or geometrically spaced.  The two suites
mirror the standard evaluation protocols: ``run_recovery_suite`` counts how
many true factors each algorithm recovers at a correlation threshold, and
``run_residual_suite`` records per-iteration relative residual curves on a
shared instance per seed.

Reproducibility contract: every trial derives its RNG stream from
``(spec.seed, trial, algorithm)``, so reports are identical (except wall
time) regardless of execution order or worker count.
"""

from __future__ import annotations

import csv
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .decompose import (
    ALS_RUNNERS,
    DecompConfig,
    orth_tpm_run,
    simdiag,
    tpm_multi,
)
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

    def draw():
        g = rng.standard_normal((spec.d, spec.k))
        return g / np.linalg.norm(g, axis=0)

    a = draw()
    if spec.symmetric:
        b = c = a
    else:
        b = draw()
        c = draw()
    model = CpModel(_weight_vector(spec), a, b, c)
    return model, cp_reconstruct(model)


def add_noise(tensor, sigma_rel, seed=0):
    """Perturb each entry by centered Gaussian noise of sd ``sigma_rel * |T_ijk|``."""
    if sigma_rel < 0:
        raise ValueError("sigma_rel must be >= 0")
    if sigma_rel == 0.0:
        return tensor
    rng = np.random.default_rng(seed)
    arr = tensor.array
    noisy = arr + rng.standard_normal(arr.shape) * (sigma_rel * np.abs(arr))
    return DenseTensor3(noisy)


ALGORITHM_NAMES = (
    "als",
    "als-svd",
    "orth-als",
    "hybrid",
    "tpm",
    "tpm-svd",
    "orth-tpm",
    "simdiag",
)


def _run_algorithm(name, tensor, rank, seed, iters, tol, record_trace=False):
    """Dispatch one named algorithm; returns (model, iterations, trace)."""
    runner = ALS_RUNNERS.get("als" if name == "als-svd" else name)
    if runner is not None:
        cfg = DecompConfig(
            rank=rank,
            max_iters=iters,
            tol=tol,
            init="svd" if name == "als-svd" else "random",
            seed=seed,
            record_trace=record_trace,
        )
        result = runner(tensor, cfg)
        return result.model, result.iterations_used, result.residual_trace
    if name in ("tpm", "tpm-svd"):
        model = tpm_multi(
            tensor,
            n_inits=max(DEFAULT_TPM_INITS, rank),
            iters=iters,
            rank=rank,
            seed=seed,
            init="svd" if name == "tpm-svd" else "random",
        )
        return model, iters, None
    if name == "orth-tpm":
        model = orth_tpm_run(tensor, rank, iters, seed=seed)
        return model, iters, None
    if name == "simdiag":
        model = simdiag(tensor, rank, seed=seed)
        return model, 1, None
    raise ValueError(f"unknown algorithm {name!r}; choose from {ALGORITHM_NAMES}")


def _recovery_trial(spec, trial, algorithms, iters, tol):
    instance_seed = derived_seed(spec.seed, trial)
    instance_spec = replace(spec, seed=instance_seed)
    truth, tensor = gen_random_cp(instance_spec)
    if spec.noise_sigma_rel > 0:
        tensor = add_noise(tensor, spec.noise_sigma_rel, seed=derived_seed(instance_seed, 977))
    reports = []
    for algo_idx, name in enumerate(algorithms):
        algo_seed = derived_seed(spec.seed, trial, algo_idx)
        start = time.perf_counter()
        error = None
        try:
            model, used, _ = _run_algorithm(name, tensor, spec.k, algo_seed, iters, tol)
            recovered = match_factors(truth, model, RECOVERY_THRESHOLD).recovered_count
            residual = residual_ratio(tensor, model)
        except TenfactError as exc:
            logger.warning("%s failed on trial %d: %s", name, trial, exc)
            error = str(exc)
            recovered, residual, used = 0, float("nan"), 0
        wall = time.perf_counter() - start
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
                wall_time_s=wall,
                error=error,
            )
        )
    return reports


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
    jobs = [(gi, spec, trial) for gi, spec in enumerate(grid) for trial in range(trials)]

    def work(job):
        _, spec, trial = job
        return _recovery_trial(spec, trial, algorithms, iters, tol)

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_job = list(pool.map(work, jobs))
    else:
        per_job = [work(j) for j in jobs]
    reports = []
    for (gi, _, trial), rows in zip(jobs, per_job):
        reports.extend(rows)
    return reports


def run_residual_suite(spec, algorithms, iters, trials=1, tol=1e-6, threads=1):
    """Residual-curve experiment: per-iteration traces on shared instances.

    Each trial builds one instance; every algorithm that records traces (the
    ALS family) is run on it with ``record_trace`` enabled.  Returns
    TrialReports carrying the traces.
    """
    traceable = (*ALS_RUNNERS, "als-svd")
    for name in algorithms:
        if name not in traceable:
            raise ValueError(f"residual suite supports {traceable}, got {name!r}")

    def work(trial):
        instance_seed = derived_seed(spec.seed, trial)
        truth, tensor = gen_random_cp(replace(spec, seed=instance_seed))
        if spec.noise_sigma_rel > 0:
            tensor = add_noise(tensor, spec.noise_sigma_rel, seed=derived_seed(instance_seed, 977))
        rows = []
        for algo_idx, name in enumerate(algorithms):
            algo_seed = derived_seed(spec.seed, trial, algo_idx)
            start = time.perf_counter()
            model, used, trace = _run_algorithm(
                name, tensor, spec.k, algo_seed, iters, tol, record_trace=True
            )
            wall = time.perf_counter() - start
            rows.append(
                TrialReport(
                    algo=name,
                    d=spec.d,
                    k=spec.k,
                    weight_ratio=spec.weight_ratio,
                    noise=spec.noise_sigma_rel,
                    seed=instance_seed,
                    trial=trial,
                    recovered_count=match_factors(truth, model, RECOVERY_THRESHOLD).recovered_count,
                    residual_final=float(trace[-1]),
                    iterations=used,
                    wall_time_s=wall,
                    residual_trace=trace,
                )
            )
        return rows

    if threads > 1 and trials > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_trial = list(pool.map(work, range(trials)))
    else:
        per_trial = [work(t) for t in range(trials)]
    reports = []
    for rows in per_trial:
        reports.extend(rows)
    return reports


def write_recovery_csv(reports, path):
    """Emit recovery reports in the stable CSV schema (UTF-8, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECOVERY_HEADER)
        for r in reports:
            writer.writerow(
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
            )


def write_traces_csv(reports, path):
    """Emit residual traces, one row per (algo, seed, iteration)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for r in reports:
            if r.residual_trace is None:
                continue
            for it, value in enumerate(r.residual_trace, start=1):
                writer.writerow([r.algo, r.seed, it, _fmt(float(value))])


def _fmt(x):
    return repr(float(x))
