"""Seeded benchmark for tenfact.

One process runs one workload as a closed loop: one caller, one fit at a
time.  It builds the inputs from ``--seed`` (set-up, repeated and timed),
then runs passes over them for ``--seconds`` seconds, checks every output,
prints a report of every metric with its unit and sample count, and ends
with one JSON line.  Times are in reference seconds, calibrated against
fixed kernels for the drifting speed of a shared host (see clock.py); the
report gives wall seconds beside them.  With ``--trace 0`` that line
carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run, which rebinds tenfact's imported names
to timing wrappers.

    python3 perfbench/run.py --workload dense_skewed --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

# Fixed before numpy loads so that every run uses the same BLAS thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

import tenfact as tf
import tracing
import workloads
from clock import NOMINAL_S, Clock

END_TO_END = ("setup_s", "pass_s", "fit_s.hybrid", "peak_rss_mb")
MTTKRP_PROBE_S = 0.3


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def warm_up(name, workdir, seed, clock):
    """One untimed pass at smoke size, so that lazy imports and first calls
    (the first Hybrid-ALS fit in a process takes twice as long) fall outside
    every timing."""
    small = workloads.make(name, True, workdir)
    run = workloads.Run(small.quality_passes, clock)
    small.run_pass(small.setup(seed, run), 0, run)


def run_passes(workload, inputs, arms, counter, seconds):
    """Passes from 0 on for about ``seconds`` seconds, each pass run once per arm.

    An arm is a ``(run, context)`` pair; the traced run pairs an untraced arm
    with a traced one, so that both see the same passes at nearly the same
    time.  The loop stops at whichever pass boundary lies nearer ``seconds``,
    and never before the quality passes are done.  Recovery counts are taken
    over the quality passes, so they repeat exactly for a seed.
    """
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        for run, context in arms:
            run.begin_pass(index)
            before = counter.counts.copy()
            first = run.clock.mark()
            with context():
                workload.run_pass(inputs, index, run)
            run.pass_marks.append((first, run.clock.mark()))
            if run.in_quality_set:
                run.recovery += counter.counts - before
        index += 1
        now = time.perf_counter()
        if index >= workload.quality_passes and now - start + (now - pass_start) / 2 >= seconds:
            break
    for run, _ in arms:
        run.resolve()


def fits_of(run, algo=None, passes=None):
    return [
        f for f in run.fits
        if (algo is None or f["algo"] == algo) and (passes is None or f["pass"] < passes)
    ]


def per_pass_means(run, algo, key):
    """Mean of ``key`` over the ``algo`` fits of each pass, one value per pass."""
    by_pass = {}
    for f in fits_of(run, algo):
        by_pass.setdefault(f["pass"], []).append(f[key])
    return [statistics.fmean(values) for values in by_pass.values()]


def interquartile_mean(values):
    """Mean of the middle half: steadier than the median when the instances
    of a run differ in iteration count, and as blind to a stalled pass."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut])


def end_to_end(run, setup_marks):
    """Name -> (value, unit, samples): the user-visible figures of one run.

    ``setup_s`` is the median of the set-ups.  Pass and fit times are
    interquartile means over the passes; a fit time per pass is the mean of
    that pass's fits of the algorithm, so that a pass whose fits span several
    problem sizes (the completion grid) counts as one sample.  The named
    figures are in reference seconds; ``*.wall`` lines give wall seconds.
    """
    clock = run.clock
    n = len(setup_marks)
    out = {
        "setup_s": (statistics.median(clock.reference(*m) for m in setup_marks), "s", n),
        "setup_s.wall": (statistics.median(clock.wall(*m) for m in setup_marks), "s", n),
    }
    series = {"pass_s": (run.pass_s, run.pass_wall_s)}
    for algo in sorted({f["algo"] for f in run.fits}):
        series[f"fit_s.{algo}"] = (per_pass_means(run, algo, "s"), per_pass_means(run, algo, "wall_s"))
    for name, (reference, wall) in series.items():
        out[name] = (interquartile_mean(reference), "s", len(reference))
        out[f"{name}.wall"] = (interquartile_mean(wall), "s", len(wall))
    for name, values in sorted(run.quality.items()):
        out[name] = (statistics.fmean(values), "frac", len(values))
    out["failed_frac"] = (run.failed / max(run.attempted, 1), "frac", run.attempted)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    for kind, samples in clock.sample_s.items():
        out[f"reference_kernel_ms.{kind}"] = (1e3 * statistics.median(samples), "ms", len(samples))
        out[f"reference_kernel_ms.{kind}.nominal"] = (1e3 * NOMINAL_S[kind], "ms", 1)
    return out


def probe_mttkrp(tensor, factors):
    """Time the public MTTKRP on the workload's own tensor and last fitted factors.

    Flops and bytes are computed from the sizes, not measured.
    """
    dims = tensor.dims
    k = factors[0].shape[1]
    dense = isinstance(tensor, tf.DenseTensor3)
    nnz = tensor.size if dense else tensor.nnz
    out = {}
    flops = bytes_moved = seconds = 0.0
    for mode in (1, 2, 3):
        samples = []
        while not samples or (sum(samples) < MTTKRP_PROBE_S and len(samples) < 5):
            t0 = time.perf_counter()
            tf.mttkrp(tensor, factors, mode)
            samples.append(time.perf_counter() - t0)
        ms = statistics.median(samples) * 1e3
        out[f"tensors.mttkrp.mode{mode}.ms"] = (ms, "ms", len(samples))
        others = [d for m, d in enumerate(dims, start=1) if m != mode]
        if dense:
            flops += 2.0 * nnz * k
            bytes_moved += 8.0 * (nnz + others[0] * others[1] * k + dims[mode - 1] * k)
        else:
            flops += 3.0 * nnz * k
            bytes_moved += 8.0 * (4 * nnz + 2 * nnz * k + dims[mode - 1] * k)
        seconds += ms / 1e3
    out["tensors.mttkrp.gflops"] = (flops / seconds / 1e9, "GFLOP/s", 3)
    out["tensors.mttkrp.bytes"] = (bytes_moved, "B", 3)
    return out


LAYER_TIMES = ("linalg.orth_step", "tensors.normalize_columns")
LAYER_CALLS = (
    "linalg.orth_step",
    "tensors.normalize_columns",
    "tensors.khatri_rao",
    "tensors.matricize",
    "linalg.ls_solve_kr",
    "tensors.cp_reconstruct",
)
ALGOS = ("orth-als", "hybrid", "als", "deflate-hybrid", "deflate-als")


def per_layer(workload, run, tracer, untraced_pass_s, probe):
    """Name -> (value, unit, samples) for the layer metrics every workload reports.

    Times are per pass over all traced passes; counts are per pass over the
    quality passes, so they repeat exactly for a seed.
    """
    n = len(run.pass_s)
    q = workload.quality_passes
    timed = tracer.totals(set(range(n)))
    counted = tracer.totals(set(range(q)))
    out = dict(probe)
    for layer in LAYER_TIMES:
        out[f"{layer}.s"] = (timed[layer]["s"] / n, "s", n)
    for layer in LAYER_CALLS:
        out[f"{layer}.calls"] = (counted[layer]["calls"] / q, "count", q)
    # The deflation's per-block runs are fits too, not layer calls.
    fit_self = sum(
        v["self_s"] for name, v in timed.items() if name.startswith(("fit.", "overcomplete.inner."))
    )
    out["fit.self_s"] = (fit_self / n, "s", n)
    out["score.s"] = (timed["score"]["s"] / n, "s", n)
    for algo in ALGOS:
        fits = fits_of(run, algo, q)
        iters = statistics.fmean(f["iters"] for f in fits) if fits else 0.0
        out[f"fit.{algo}.iters"] = (iters, "count", len(fits))
    for label, algo in (("fit.hybrid", "hybrid"), ("fit", None)):
        fits = fits_of(run, algo)
        total_iters = sum(f["iters"] for f in fits)
        out[f"{label}.ms_per_iter"] = (1e3 * sum(f["s"] for f in fits) / total_iters, "ms", total_iters)
    for name in tracing.RECOVERY_COUNTERS:
        out[f"recovery.{name}"] = (float(run.recovery[name]), "count", q)
    # Each traced pass runs right after the same pass untraced.
    overhead = statistics.median(t / u for t, u in zip(run.pass_s, untraced_pass_s)) - 1.0
    out["trace_overhead_frac"] = (overhead, "frac", n)
    return out


def layer_detail(workload, run, tracer, inputs):
    """Workload-specific layer figures, printed in the traced report only."""
    n = len(run.pass_s)
    q = workload.quality_passes
    timed = tracer.totals(set(range(n)))
    counted = tracer.totals(set(range(q)))
    setup = tracer.totals({-1})
    tensor = inputs["probe"][0]
    nnz = tensor.size if isinstance(tensor, tf.DenseTensor3) else tensor.nnz
    out = {"tensors.mttkrp.nnz": (float(nnz), "count", 1)}
    for name in sorted(setup):
        out[f"{name}.s"] = (setup[name]["s"] / workload.setup_repeats, "s", workload.setup_repeats)
    for name in sorted(timed):
        out[f"{name}.s"] = (timed[name]["s"] / n, "s", n)
        out[f"{name}.self_s"] = (timed[name]["self_s"] / n, "s", n)
        out[f"{name}.calls"] = (counted[name]["calls"] / q, "count", q)
    if "overcomplete.als_sweep" in timed:
        out["overcomplete.refine_s"] = (timed["overcomplete.als_sweep"]["s"] / n, "s", n)
        deflations = counted["fit.deflate-hybrid"]["calls"] + counted["fit.deflate-als"]["calls"]
        blocks = sum(v["calls"] for name, v in counted.items() if name.startswith("overcomplete.inner."))
        out["overcomplete.blocks"] = (blocks / max(deflations, 1), "count", deflations)
    if "embed.build_trioccurrence" in timed:
        mb = inputs["coo_bytes"] / 1e6
        out["embed.nnz"] = (float(inputs["nnz"]), "count", 1)
        for io in ("write_coo", "read_coo"):
            out[f"fileio.{io}.mb_per_s"] = (mb * n / timed[f"fileio.{io}"]["s"], "MB/s", n)
    if isinstance(workload, workloads.CompletionGrid):
        first_trial = inputs["trials"][0][1]
        for p in workload.grid:
            tag = f"p{round(p * 100):02d}"
            fits = [f for f in run.fits if f["tag"] == p and f["algo"] == "hybrid"]
            sweeps = sum(f["iters"] for f in fits)
            out[f"completion.fit_s.{tag}"] = (statistics.median(f["s"] for f in fits), "s", len(fits))
            out[f"completion.ms_per_sweep.{tag}"] = (1e3 * sum(f["s"] for f in fits) / sweeps, "ms", sweeps)
            out[f"completion.observed.{tag}"] = (float(first_trial[p].n_observed), "count", 1)
        sweeps = sum(f["iters"] for f in fits_of(run, None, q))
        out["completion.sweeps"] = (sweeps / q, "count", q)
    return out


def print_metrics(kind, metrics):
    for name, (value, unit, samples) in metrics.items():
        print(f"{kind:<7} {name:<40} {value:>16.6g} {unit:<8} n={samples}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not Path(tf.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"tenfact was imported from {tf.__file__}, not from {ROOT / 'src'}")
    for key, value in environment().items():
        print(f"env     {key:<40} {value}")

    counter = tracing.RecoveryCounter()
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir, counter.attached():
        workload = workloads.make(args.workload, args.smoke, workdir)
        clock = Clock()
        warm_up(args.workload, workdir, args.seed, clock)
        setup_run = workloads.Run(workload.quality_passes, clock, tracer)
        setup_marks = []
        for _ in range(workload.setup_repeats):
            start = clock.mark()
            inputs = workload.setup(args.seed, setup_run)
            setup_marks.append((start, clock.mark()))

        run = workloads.Run(workload.quality_passes, clock)
        arms = [(run, contextlib.nullcontext)]
        if args.trace:
            traced = workloads.Run(workload.quality_passes, clock, tracer)
            rebinding = tracing.Rebinding(tracer)
            arms.append((traced, lambda: rebinding))
        run_passes(workload, inputs, arms, counter, args.seconds)
        figures = end_to_end(run, setup_marks)
        print_metrics("metric", figures)
        if args.trace:
            for name in rebinding.skipped:
                print(f"skipped {name} (not present)")
            probe = probe_mttkrp(*inputs["probe"])
            layers = per_layer(workload, traced, tracer, run.pass_s, probe)
            print_metrics("layer", layers)
            print_metrics("detail", layer_detail(workload, traced, tracer, inputs))

    runs = [arm_run for arm_run, _ in arms]
    problems = [problem for arm_run in runs for problem in arm_run.problems]
    for problem in problems:
        print(f"problem {problem}")
    if args.trace:
        metrics = layers
    else:
        metrics = {name: figures[name] for name in END_TO_END}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(arm_run.attempted for arm_run in runs),
        "failed": sum(arm_run.failed for arm_run in runs),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))


if __name__ == "__main__":
    main()
