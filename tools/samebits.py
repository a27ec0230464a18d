"""Check that this tree's ``tenfact`` commands write the bits of another revision's.

    python tools/samebits.py --against REV

Exports the ``src`` directory of the git revision ``REV`` into a temporary
directory with ``git archive``, then runs one fixed list of ``tenfact``
commands, first against ``REV``'s ``src`` and then against this tree's, in
the same working directory and at ``OPENBLAS_NUM_THREADS=1``: ``decompose``
for every ``ALGORITHMS`` entry and ``--algo hybrid`` on a line-shuffled
copy of its input, ``complete`` on inputs of both forms with and without
observed zeros, and with zeros in shuffled line order, at both ``--algo``
values, ``overcomplete``, and
``embed gen-corpus``, ``build`` and ``factorize`` on a small corpus.  The
inputs are written once, with numpy alone.  It prints ``same`` or
``differs`` for every output file and for every command's exit code and
stdout (``<command>.stdout``), compares manifests without their
``timestamp``, removes the temporary directory, and exits 1 when anything
differs.  Uses only the standard library, numpy and git.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _write_coo(path, dims, idx, vals):
    """A ``.coo`` file with one line per ``(i, j, k, value)``, zeros kept."""
    lines = [f"{i} {j} {k} {v!r}" for (i, j, k), v in zip(idx.tolist(), vals.tolist())]
    path.write_text(" ".join(map(str, (*dims, len(lines)))) + "\n" + "\n".join(lines) + "\n")


def write_inputs(workdir):
    """The ``.coo`` inputs of :func:`commands`, from seeded rank-3 tensors:
    a fully stored one, and observations of 30% (the dense completion form)
    and 5% (the sparse form) of the entries, each with and without observed
    zeros, one in four observed values set to an explicit ``0.0``.  The
    full tensor and both inputs with zeros also get a ``-shuffled`` copy,
    their lines in a seeded random order, so that the unsorted paths of
    the readers run too; every other input is in ``argwhere`` order."""
    rng = np.random.default_rng(20261022)
    shuffle = np.random.default_rng(20261023)
    for name, d, p in [("full", 10, 1.0), ("dense", 12, 0.3), ("sparse", 20, 0.05)]:
        a, b, c = (rng.standard_normal((d, 3)) for _ in range(3))
        tensor = np.einsum("ir,jr,kr->ijk", a, b, c)
        idx = np.argwhere(rng.random((d, d, d)) < p)
        vals = tensor[tuple(idx.T)]
        if name != "full":
            _write_coo(workdir / f"{name}.coo", (d, d, d), idx, vals)
            vals[::4] = 0.0
            name += "-zeros"
        _write_coo(workdir / f"{name}.coo", (d, d, d), idx, vals)
        order = shuffle.permutation(len(vals))
        _write_coo(workdir / f"{name}-shuffled.coo", (d, d, d), idx[order], vals[order])


def commands(algorithms):
    """``(name, argv)`` of every command run, in order; each writes its
    outputs under names that start with ``name``."""
    runs = [
        (f"decompose-{algo}", ["decompose", "--input", "full.coo", "--algo", algo, "--rank", "2",
                               "--iters", "30", "--inits", "10", "--seed", "1"])
        for algo in algorithms
    ]
    runs.append(("decompose-hybrid-shuffled", [
        "decompose", "--input", "full-shuffled.coo", "--algo", "hybrid", "--rank", "2",
        "--iters", "30", "--inits", "10", "--seed", "1",
    ]))
    for coo in (
        "dense", "dense-zeros", "sparse", "sparse-zeros", "dense-zeros-shuffled",
        "sparse-zeros-shuffled",
    ):
        for algo in ("hybrid", "als"):
            runs.append((f"complete-{coo}-{algo}", [
                "complete", "--input", f"{coo}.coo", "--algo", algo, "--rank", "3",
                "--iters", "30", "--seed", "2",
            ]))
    runs.append(("overcomplete", [
        "overcomplete", "--input", "full.coo", "--rank", "12", "--block", "4", "--iters", "20",
        "--seed", "3",
    ]))
    runs.append(("corpus", [
        "embed", "gen-corpus", "--kind", "planted", "--tokens", "20000", "--seed", "4",
        "--quads-out", "corpus.quads",
    ]))
    runs.append(("tri", [
        "embed", "build", "--corpus", "corpus.txt", "--vocab", "80", "--window", "3",
        "--vocab-out", "tri.vocab",
    ]))
    runs.append(("embed", [
        "embed", "factorize", "--input", "tri.coo", "--vocab-file", "tri.vocab", "--rank", "8",
        "--iters", "10", "--seed", "5", "--model-out", "embed.cpm",
    ]))
    suffix = {"corpus": ".txt", "tri": ".coo", "embed": ".tsv"}
    return [(name, [*argv, "--out", name + suffix.get(name, ".cpm")]) for name, argv in runs]


def run_tree(src, workdir, outdir, runs):
    """Run ``runs`` on the package in ``src`` inside ``workdir``, then move
    every file they wrote, and each command's exit code and stdout, to
    ``outdir``."""
    inputs = set(os.listdir(workdir))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    outdir.mkdir()
    for name, argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "tenfact.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        (outdir / f"{name}.stdout").write_text(f"exit {proc.returncode}\n{proc.stdout}")
    for name in set(os.listdir(workdir)) - inputs:
        shutil.move(workdir / name, outdir / name)


def _content(path):
    """A file's bytes, or a manifest's keys other than ``timestamp``."""
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(path.read_text())
        manifest.pop("timestamp", None)
        return manifest
    return path.read_bytes()


def compare(old, new):
    """``(name, verdict)`` for every file name in either directory, sorted:
    ``same`` where both hold the same content (:func:`_content`), else
    ``differs``, a file missing on one side included."""
    names = sorted(set(os.listdir(old)) | set(os.listdir(new)))
    verdicts = []
    for name in names:
        a, b = old / name, new / name
        same = a.exists() and b.exists() and _content(a) == _content(b)
        verdicts.append((name, "same" if same else "differs"))
    return verdicts


def export_src(rev, dest):
    """Write the ``src`` directory of git revision ``rev`` under ``dest``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def main(argv):
    parser = argparse.ArgumentParser(description="Compare command outputs with a revision's.")
    parser.add_argument("--against", metavar="REV", required=True, help="git revision")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from tenfact.decompose import ALGORITHMS

    runs = commands(list(ALGORITHMS))
    with tempfile.TemporaryDirectory(prefix="samebits-") as tmp:
        tmp = Path(tmp)
        try:
            old_src = export_src(args.against, tmp / "rev")
        except subprocess.CalledProcessError as exc:
            sys.exit(f"samebits: {exc.stderr.decode().strip()}")
        workdir = tmp / "run"
        workdir.mkdir()
        write_inputs(workdir)
        run_tree(old_src, workdir, tmp / "old", runs)
        run_tree(ROOT / "src", workdir, tmp / "new", runs)
        verdicts = compare(tmp / "old", tmp / "new")
    for name, verdict in verdicts:
        print(f"{verdict:8s}{name}")
    return int(any(verdict != "same" for _, verdict in verdicts))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
