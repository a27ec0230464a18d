"""Smoke test of the benchmark at tiny sizes.

Every workload runs untraced once and traced twice with one seed.  The last
line must validate against BENCHMARK.json, the report must name every
end-to-end metric that applies to the workload with a unit and a sample
count, and quality figures and iteration counts must repeat exactly.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = ("setup_s", "pass_s", "fit_s.hybrid", "failed_frac", "peak_rss_mb")
REPORTED = {
    "dense_skewed": (
        "fit_s.orth-als", "fit_s.als", "fit_s.deflate-hybrid", "fit_s.deflate-als",
        "recovered_frac.orth-als", "recovered_frac.hybrid", "recovered_frac.als",
        "recovered_frac.deflate-hybrid", "recovered_frac.deflate-als",
    ),
    "embed_desk": ("fit_s.orth-als", "fit_residual", "analogy_acc"),
    "completion_grid": ("fit_s.als", "solved_frac.hybrid", "solved_frac.als"),
}
QUALITY_PREFIXES = ("recovered_frac.", "solved_frac.", "fit_residual", "analogy_acc")


def bench(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True, cwd=ROOT,
    )
    lines = out.stdout.splitlines()
    rows = {}
    for line in lines[:-1]:
        fields = line.split()
        if fields[0] in ("metric", "layer", "detail"):
            kind, name, value, unit, samples = fields
            assert samples.startswith("n=") and int(samples[2:]) >= 0, line
            rows[(kind, name)] = (float(value), unit)
    return json.loads(lines[-1]), rows


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], m["name"]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    result, rows = bench(workload, 0)
    check_result(result, SPEC["end_to_end"])
    for name in COMMON + REPORTED[workload]:
        assert ("metric", name) in rows, name
        assert rows[("metric", name)][1], name

    traced = [bench(workload, 1) for _ in range(2)]
    for traced_result, traced_rows in traced:
        check_result(traced_result, SPEC["per_layer"])
    quality = {n: v for (k, n), v in rows.items() if n.startswith(QUALITY_PREFIXES)}
    assert quality
    iters = [{n: v for (k, n), v in r.items() if k == "layer" and n.endswith(".iters")} for _, r in traced]
    assert iters[0] and iters[0] == iters[1]
    for _, traced_rows in traced:
        assert {n: v for (k, n), v in traced_rows.items() if n in quality} == quality
