import argparse
import contextlib
import csv
import io
import json
import logging
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfact.bench import SynthSpec, gen_random_cp
from tenfact.cli import _build_parser, main
from tenfact.completion import sample_completion_problem
from tenfact.decompose import ALGORITHMS, ALS_RUNNERS
from tenfact.embed import build_trioccurrence
from tenfact.fileio import read_cpm, write_coo
from tenfact.overcomplete import _INNER_RUNNERS
from tenfact.tensors import SparseTensor3, cp_reconstruct, residual_ratio
from tenfact.textgen import zipf_corpus

from conftest import diagonal_tensor, random_model
from test_fileio import reference_coo_bytes


@pytest.fixture
def diag_coo(tmp_path):
    model, tensor = diagonal_tensor([3.0, 2.0, 1.0], 8)
    path = tmp_path / "diag.coo"
    write_coo(path, tensor)
    return model, tensor, str(path)


def leaf_parser(parser, *names):
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def choices(parser, dest):
    return next(a for a in parser._actions if a.dest == dest).choices


def strip_wall_ms(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


class TestDecomposeCommand:
    def test_diagonal_orth_als_trace(self, diag_coo, tmp_path):
        model, tensor, coo = diag_coo
        out = tmp_path / "model.cpm"
        trace = tmp_path / "trace.csv"
        code = main([
            "decompose", "--input", coo, "--algo", "orth-als", "--rank", "3",
            "--seed", "4", "--out", str(out), "--trace", str(trace),
        ])
        assert code == 0
        fitted = read_cpm(out)
        assert residual_ratio(tensor, fitted) < 1e-10
        rows = list(csv.reader(open(trace)))
        assert rows[0] == ["iter", "residual"]
        assert float(rows[-1][1]) < 1e-10
        manifest = json.loads((tmp_path / "model.cpm.manifest.json").read_text())
        assert manifest["subcommand"] == "decompose"
        assert manifest["master_seed"] == 4

    def test_missing_input_exit_1_no_output(self, tmp_path):
        out = tmp_path / "never.cpm"
        code = main([
            "decompose", "--input", str(tmp_path / "absent.coo"),
            "--rank", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()

    def test_usage_error_exit_1(self, tmp_path):
        assert main(["decompose", "--rank", "2"]) == 1

    @pytest.mark.parametrize("command", ["decompose", "complete"])
    def test_entry_lines_past_header_nnz_exit_1(self, tmp_path, capsys, command):
        coo = tmp_path / "t.coo"
        coo.write_text("2 2 2 2\n0 0 0 1.0\n1 1 1 2.0\n0 1 0 3.0\n\n")
        out = tmp_path / "model.cpm"
        code = main([command, "--input", str(coo), "--rank", "1", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {coo}: line 4: text after the header's 2 entries\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, message",
        [
            ("3 3 3 1000000000000", "entry line 2 must be 'i j k value'"),
            ("3 3 3 -1", "header 'd1 d2 d3 nnz' has a negative count: 3 3 3 -1"),
        ],
        ids=["nnz-past-the-file", "negative-nnz"],
    )
    def test_bad_header_count_exit_1(self, tmp_path, capsys, header, message):
        coo = tmp_path / "t.coo"
        coo.write_text(f"{header}\n0 0 0 1\n")
        out = tmp_path / "model.cpm"
        code = main(["decompose", "--input", str(coo), "--rank", "1", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {coo}: {message}\n"
        assert not out.exists()

    def test_simdiag_and_tpm(self, diag_coo, tmp_path):
        model, tensor, coo = diag_coo
        for algo, extra in (("simdiag", []), ("tpm", ["--inits", "60", "--iters", "30"])):
            out = tmp_path / f"{algo}.cpm"
            code = main([
                "decompose", "--input", coo, "--algo", algo, "--rank", "3",
                "--seed", "2", "--out", str(out), *extra,
            ])
            assert code == 0
            fitted = read_cpm(out)
            assert residual_ratio(tensor, fitted) < 1e-6

    @pytest.mark.parametrize(
        "command",
        [
            ["decompose", "--algo", "hybrid"],
            ["decompose", "--algo", "als"],
            ["decompose", "--algo", "simdiag"],
            ["decompose", "--algo", "tpm"],
            ["decompose", "--algo", "orth-tpm"],
            ["complete"],
            ["overcomplete"],
        ],
        ids=["hybrid", "als", "simdiag", "tpm", "orth-tpm", "complete", "overcomplete"],
    )
    def test_overflowing_sum_of_squares_exit_1(self, tmp_path, capsys, command):
        """Two entries of 1e308 are finite, but their sum of squares is not."""
        coo = tmp_path / "big.coo"
        coo.write_text("3 3 3 2\n0 0 0 1e308\n1 1 1 1e308\n")
        out = tmp_path / "model.cpm"
        code = main([*command, "--input", str(coo), "--rank", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the ") and err.count("\n") == 1
        assert "sum of squares overflows float64" in err
        assert not out.exists()

    def test_decompose_factor_of_huge_norm_writes_the_model(self, tmp_path):
        """An ALS solve at a rank above the dims gives a mode-1 column whose
        squares overflow though its norm does not; it printed an overflow
        warning and 'factor A column 0 has norm 0.0, expected 1' before."""
        coo = tmp_path / "t.coo"
        coo.write_text("1 2 1 1\n0 0 0 1e154\n")
        out = tmp_path / "model.cpm"
        code, lines = run_with_stderr_lines([
            "decompose", "--input", str(coo), "--algo", "als", "--rank", "3", "--iters", "1",
            "--seed", "0", "--out", str(out),
        ])
        assert (code, lines) == (0, [])
        model = read_cpm(out)
        assert model.k == 3 and np.isfinite(model.weights).all()

    @pytest.mark.parametrize(
        "text, rank, found",
        [
            ("3 3 3 1\n0 0 0 0.0\n", 1, 0),
            ("3 3 3 0\n", 1, 0),
            ("3 3 3 3\n0 0 0 1\n1 1 1 2\n2 2 2 3\n", 3, 2),
        ],
        ids=["all-zero", "empty", "two-clusters"],
    )
    def test_tpm_fewer_components_than_rank_exit_2(self, tmp_path, capsys, text, rank, found):
        coo = tmp_path / "t.coo"
        coo.write_text(text)
        out = tmp_path / "model.cpm"
        code = main([
            "decompose", "--input", str(coo), "--algo", "tpm", "--rank", str(rank),
            "--inits", "3", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.endswith(
            f"numerical failure: tpm found {found} components, fewer than --rank {rank}; "
            "no model written\n"
        )
        assert not out.exists()
        assert not (tmp_path / "model.cpm.manifest.json").exists()

    def test_algo_choices_are_the_registry(self):
        parser = _build_parser()
        assert choices(leaf_parser(parser, "decompose"), "algo") == list(ALGORITHMS)
        assert choices(leaf_parser(parser, "embed", "factorize"), "algo") == list(ALS_RUNNERS)
        assert choices(leaf_parser(parser, "overcomplete"), "inner") == list(_INNER_RUNNERS)

    @pytest.mark.parametrize("algo", ["orth-tpm", "simdiag"])
    def test_init_svd_rejected_where_ignored(self, diag_coo, tmp_path, capsys, algo):
        _, _, coo = diag_coo
        out = tmp_path / "never.cpm"
        code = main([
            "decompose", "--input", coo, "--algo", algo, "--rank", "3",
            "--init", "svd", "--seed", "2", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestBenchCommands:
    def test_recovery_row_count(self, tmp_path):
        out = tmp_path / "rec.csv"
        code = main([
            "bench", "recovery", "--d", "8", "--k", "2", "--ratios", "1,10,100",
            "--trials", "10", "--algos", "orth-als,als", "--seed", "3",
            "--iters", "20", "--threads", "1", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert len(rows) - 1 == 3 * 10 * 2  # 60 data rows

    def test_zero_trials_exit_1(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        code = main([
            "bench", "recovery", "--d", "6", "--k", "2", "--trials", "0",
            "--algos", "als", "--seed", "3", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: trials must be a positive integer, got 0\n"
        assert not out.exists()

    def test_seed_required(self, tmp_path):
        code = main([
            "bench", "recovery", "--d", "6", "--k", "2", "--trials", "1",
            "--algos", "als", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("suite", ["recovery", "residual"])
    @pytest.mark.parametrize(
        "flag,env", [("-4", None), ("0", None), ("abc", None), (None, "abc"), (None, "-2"), (None, "0")]
    )
    def test_rejects_bad_thread_count(self, tmp_path, monkeypatch, capsys, suite, flag, env):
        """A malformed or non-positive ``--threads`` or ``TENFACT_THREADS`` exits 1
        and writes no output."""
        monkeypatch.delenv("TENFACT_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("TENFACT_THREADS", env)
        out = tmp_path / "x.csv"
        argv = ["bench", suite, "--d", "6", "--k", "2", "--trials", "1", "--algos", "als",
                "--seed", "3", "--iters", "2", "--out", str(out)]
        if flag is not None:
            argv += ["--threads", flag]
        assert main(argv) == 1
        assert "TENFACT_THREADS take a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("TENFACT_THREADS", "abc")
        argv = ["bench", "residual", "--d", "6", "--k", "2", "--seed", "3", "--out", "x.csv"]
        assert _build_parser().parse_args(argv + ["--threads", "2"]).threads == 2

    def test_byte_identical_reruns_modulo_walltime(self, tmp_path):
        args = [
            "bench", "recovery", "--d", "8", "--k", "2", "--ratios", "1,10",
            "--trials", "2", "--algos", "orth-als,als", "--seed", "5",
            "--iters", "15", "--out",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(a), "--threads", "1"]) == 0
        assert main(args + [str(b), "--threads", "2"]) == 0
        assert strip_wall_ms(a) == strip_wall_ms(b)

    def test_residual_byte_identical_across_threads(self, tmp_path):
        args = [
            "bench", "residual", "--d", "8", "--k", "3", "--ratio", "10",
            "--trials", "3", "--algos", "orth-als,als,als-svd", "--seed", "5",
            "--iters", "12", "--out",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(a), "--threads", "1"]) == 0
        assert main(args + [str(b), "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_residual_suite(self, tmp_path):
        out = tmp_path / "traces.csv"
        code = main([
            "bench", "residual", "--d", "8", "--k", "2", "--iters", "6",
            "--algos", "orth-als,als", "--seed", "2", "--trials", "2",
            "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["algo", "seed", "iter", "residual"]
        assert len(rows) > 1


class TestCompleteAndOvercomplete:
    def test_complete_full_observation(self, tmp_path, rng):
        m = random_model(rng, (8, 8, 8), 2, weights=np.ones(2))
        tensor = cp_reconstruct(m)
        coo = tmp_path / "obs.coo"
        write_coo(coo, tensor)
        out = tmp_path / "model.cpm"
        code = main([
            "complete", "--input", str(coo), "--rank", "2", "--p", "1.0",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        fitted = read_cpm(out)
        # All entries observed: missing-entry error is trivially 0 and the
        # reconstruction matches everywhere.
        assert residual_ratio(tensor, fitted) < 1e-5

    def test_complete_keeps_explicit_zero_lines_observed(self, tmp_path, capsys):
        # Rank-1 data a=(1, 0), b=(1, 1), c=(1, 2): mode-1 row 1 is seen only
        # through the zero line, which must count as an observation.
        coo = tmp_path / "obs.coo"
        coo.write_text("2 2 2 3\n0 0 0 1.0\n0 1 1 2.0\n1 0 0 0.0\n")
        out = tmp_path / "model.cpm"
        code = main([
            "complete", "--input", str(coo), "--rank", "1", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        assert "3/8 entries observed" in capsys.readouterr().out
        fitted = cp_reconstruct(read_cpm(out)).array
        assert fitted[1, 0, 0] == pytest.approx(0.0, abs=1e-6)
        assert fitted[0, 0, 0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lines", ["0 0 0 1.0\n0 0 0 -1.0\n", "0 0 0 1.0\n0 0 0 1.0\n"])
    def test_complete_repeated_position_exit_1(self, tmp_path, capsys, lines):
        # Summed, the first file would leave (0, 0, 0) unobserved and the second observe 2.0.
        coo = tmp_path / "obs.coo"
        coo.write_text("2 2 2 3\n" + lines + "1 1 1 2.0\n")
        out = tmp_path / "model.cpm"
        code = main([
            "complete", "--input", str(coo), "--rank", "1", "--seed", "0", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {coo}: a position is given on more than one line\n"
        )
        assert not out.exists()

    def test_complete_out_of_range_row_exit_1(self, tmp_path, capsys):
        """Rows (0, 3, 0) and (1, 0, 0) of dims (2, 3, 2) share the linear key
        6, so the range is checked before any repeat."""
        coo = tmp_path / "obs.coo"
        coo.write_text("2 3 2 2\n0 3 0 1.0\n1 0 0 2.0\n")
        out = tmp_path / "model.cpm"
        code = main([
            "complete", "--input", str(coo), "--rank", "1", "--seed", "0", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: entry index out of range for dims\n"
        assert not out.exists()

    def test_complete_negative_ridge_exit_1(self, tmp_path, capsys):
        coo = tmp_path / "obs.coo"
        coo.write_text("2 2 2 2\n0 0 0 1.0\n1 1 1 2.0\n")
        out = tmp_path / "model.cpm"
        code = main([
            "complete", "--input", str(coo), "--rank", "1", "--ridge", "-1", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: ridge must be >= 0, got -1.0\n"
        assert not out.exists()

    def test_complete_overflowing_row_solves_exit_2(self, tmp_path, capfd):
        """Row solves that overflow end in one error line and exit 2; they
        ended in 'factor A has non-finite entries' before."""
        coo = tmp_path / "obs.coo"
        coo.write_text("2 3 2 2\n0 1 1 3e-160\n1 2 1 3e-160\n")
        out = tmp_path / "model.cpm"
        code = main([
            "complete", "--input", str(coo), "--rank", "2", "--algo", "als", "--ridge", "0",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 2
        captured = capfd.readouterr()
        assert captured.err.splitlines()[-1] == (
            "numerical failure: completion's row solves overflow float64; scale the observed values "
            "toward 1 or raise the ridge"
        )
        assert "DLASCL" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["hybrid", "als"])
    def test_complete_weight_near_sqrt_max_writes_the_model(self, tmp_path, algo):
        """A rank-1 fit of one observation of 1e154 solves a mode-1 column
        of norm 4.95e154; the mode-2 systems scaled by its square overflowed,
        and the command exited 2 with 'row solves overflow float64'."""
        coo = tmp_path / "t.coo"
        coo.write_text("1 2 1 1\n0 0 0 1e154\n")
        out = tmp_path / "model.cpm"
        code, lines = run_with_stderr_lines([
            "complete", "--input", str(coo), "--rank", "1", "--algo", algo, "--seed", "0",
            "--out", str(out),
        ])
        assert code == 0, lines
        model = read_cpm(out)
        assert model.k == 1 and np.isfinite(model.weights).all()
        assert cp_reconstruct(model).array[0, 0, 0] == pytest.approx(1e154, rel=1e-12)

    def test_complete_prints_observed_rmse(self, tmp_path, capsys):
        """On the dense form too, the printed RMSE is the RMSE over the
        observed entries, in the pinned line."""
        _, t = gen_random_cp(SynthSpec(d=6, k=2, seed=4))
        problem = sample_completion_problem(t, 0.4, seed=2)
        coo = tmp_path / "obs.coo"
        idx, vals = problem.all_indices(), problem.all_values()
        lines = [f"{i} {j} {k} {float(v)!r}" for (i, j, k), v in zip(idx, vals)]
        coo.write_text(f"6 6 6 {len(lines)}\n" + "\n".join(lines) + "\n")
        out = tmp_path / "model.cpm"
        code = main(["complete", "--input", str(coo), "--rank", "2", "--seed", "1", "--out", str(out)])
        assert code == 0
        model = read_cpm(out)
        per_entry = (model.A[idx[:, 0]] * model.B[idx[:, 1]] * model.C[idx[:, 2]]) @ model.weights
        rmse = float(np.sqrt(np.mean((per_entry - vals) ** 2)))
        line = capsys.readouterr().out.strip()
        match = re.fullmatch(
            rf"completion: rank 2, observed RMSE (\S+), {problem.n_observed}/216 entries observed", line
        )
        assert match
        assert float(match.group(1)) == pytest.approx(rmse, rel=1e-5, abs=1e-12)

    def test_complete_rank_above_dimension_fails_in_one_line(self, tmp_path, capsys, caplog):
        """A rank that the hybrid policy cannot orthogonalize is one error
        line; the set-up's warnings about rows without observations came
        before it."""
        coo = tmp_path / "obs.coo"
        coo.write_text("1 3 3 2\n0 0 0 1.0\n0 1 1 2.0\n")
        out = tmp_path / "model.cpm"
        with caplog.at_level(logging.WARNING, logger="tenfact"):
            code = main([
                "complete", "--input", str(coo), "--rank", "2", "--seed", "0", "--out", str(out),
            ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: rank 2 exceeds min(dims)=1: orthogonalization requires rank <= dimension; "
            "use deflate_overcomplete for higher ranks\n"
        )
        assert caplog.records == []
        assert not out.exists()

    def test_complete_malformed_line_exit_1_with_line_number(self, tmp_path, capsys):
        coo = tmp_path / "obs.coo"
        coo.write_text("2 2 2 3\n0 0 0 1.0\n0 1 1\n1 0 0 0.0\n")
        out = tmp_path / "model.cpm"
        code = main([
            "complete", "--input", str(coo), "--rank", "1", "--seed", "0", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {coo}: entry line 2 must be 'i j k value'\n"
        assert not out.exists()

    def test_overcomplete_emits_requested_rank(self, tmp_path):
        m = random_model(np.random.default_rng((77, 1)), (6, 6, 6), 9,
                         weights=1.05 ** (-np.arange(9, dtype=float)))
        tensor = cp_reconstruct(m)
        coo = tmp_path / "t.coo"
        write_coo(coo, tensor)
        out = tmp_path / "m.cpm"
        code = main([
            "overcomplete", "--input", str(coo), "--rank", "9", "--seed", "2",
            "--iters", "60", "--out", str(out),
        ])
        assert code == 0
        assert read_cpm(out).k == 9

    def test_overcomplete_sparse_input_beyond_one_block(self, tmp_path):
        # 8M entries, 300 stored: the input stays sparse through every block.
        rng = np.random.default_rng(4)
        dims = (200, 200, 200)
        flat = rng.choice(dims[0] * dims[1] * dims[2], size=300, replace=False)
        idx = np.column_stack(np.unravel_index(flat, dims))
        coo = tmp_path / "big.coo"
        write_coo(coo, SparseTensor3(dims, idx, rng.uniform(0.5, 2.0, 300)))
        out = tmp_path / "m.cpm"
        code = main([
            "overcomplete", "--input", str(coo), "--rank", "4", "--block", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert read_cpm(out).k == 4

    def test_overcomplete_negative_block_names_block(self, diag_coo, tmp_path, capsys):
        _, _, coo = diag_coo
        out = tmp_path / "never.cpm"
        code = main([
            "overcomplete", "--input", coo, "--rank", "4", "--block", "-1", "--out", str(out),
        ])
        assert code == 1
        assert "block" in capsys.readouterr().err
        assert not out.exists()


# Explicit zeros, subnormals, values whose squares overflow float64, and
# ordinary floats.
COO_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


# Values from 1e150 to 1.3e154 pass the set-up's sum-of-squares check, but
# a rank-1 fit of one of them solves for columns of norm near sqrt(max).
HUGE_VALUES = st.one_of(COO_VALUES, st.floats(1e150, 1.3e154))


@st.composite
def tiny_coo_lines(draw, values=COO_VALUES):
    """The text of a ``.coo`` file of dims 1-4 with one line up to one per
    entry, its values drawn from ``values``."""
    dims = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    size = math.prod(dims)
    flat = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    vals = draw(st.lists(values, min_size=len(flat), max_size=len(flat)))
    lines = [
        f"{i} {j} {k} {v!r}" for (i, j, k), v in zip(zip(*np.unravel_index(flat, dims)), vals)
    ]
    return dims, f"{dims[0]} {dims[1]} {dims[2]} {len(lines)}\n" + "\n".join(lines) + "\n"


def run_with_stderr_lines(argv):
    """``main(argv)``'s exit code and stderr lines, with Python warnings and
    the package's logged warnings, which the CLI prints on stderr, counted
    as lines."""
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    logging.getLogger("tenfact").addHandler(handler)
    try:
        with (
            warnings.catch_warnings(record=True) as caught,
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
        ):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        logging.getLogger("tenfact").removeHandler(handler)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def assert_asked_rank_or_one_line(command, coo, rank, algo):
    """``command`` either exits 0 with a ``.cpm`` of the asked rank and
    finite entries, or exits 1 or 2 with one line on stderr and writes no
    model."""
    dims, text = coo
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.coo", Path(tmp) / "model.cpm"
        path.write_text(text)
        code, lines = run_with_stderr_lines([
            command, "--input", str(path), "--rank", str(rank), "--algo", algo,
            "--seed", "0", "--out", str(out),
        ])
        if code == 0:
            model = read_cpm(out)
            assert model.k == rank and model.dims == dims
            for x in (model.weights, *model.factors):
                assert np.isfinite(x).all()
        else:
            assert code in (1, 2) and len(lines) == 1, lines
            assert not out.exists()


class TestCompleteProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        coo=tiny_coo_lines(HUGE_VALUES),
        rank=st.integers(1, 3),
        algo=st.sampled_from(["hybrid", "als"]),
    )
    def test_complete_writes_the_asked_rank_or_fails_in_one_line(self, coo, rank, algo):
        assert_asked_rank_or_one_line("complete", coo, rank, algo)


class TestDecomposeProperty:
    @settings(max_examples=300, deadline=None)
    @given(coo=tiny_coo_lines(), rank=st.integers(1, 3), algo=st.sampled_from(list(ALS_RUNNERS)))
    def test_decompose_writes_the_asked_rank_or_fails_in_one_line(self, coo, rank, algo):
        assert_asked_rank_or_one_line("decompose", coo, rank, algo)


class TestEmbedCommands:
    def test_pipeline_and_eval(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        assert main([
            "embed", "gen-corpus", "--kind", "planted", "--seed", "7",
            "--out", str(corpus), "--quads-out", str(tmp_path / "quads.tsv"),
        ]) == 0
        tri = tmp_path / "tri.coo"
        vocab = tmp_path / "vocab.txt"
        assert main([
            "embed", "build", "--corpus", str(corpus), "--vocab", "100",
            "--window", "3", "--out", str(tri), "--vocab-out", str(vocab),
        ]) == 0
        emb = tmp_path / "emb.tsv"
        assert main([
            "embed", "factorize", "--input", str(tri), "--vocab-file", str(vocab),
            "--rank", "24", "--algo", "hybrid", "--iters", "40", "--seed", "3",
            "--out", str(emb),
        ]) == 0
        assert main([
            "embed", "eval", "--embeddings", str(emb),
            "--analogy", str(tmp_path / "quads.tsv"),
        ]) == 0

    def test_build_writes_reference_coo_bytes(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        assert main([
            "embed", "gen-corpus", "--kind", "planted", "--seed", "11",
            "--out", str(corpus), "--quads-out", str(tmp_path / "quads.tsv"),
        ]) == 0
        tri = tmp_path / "tri.coo"
        assert main([
            "embed", "build", "--corpus", str(corpus), "--vocab", "60",
            "--window", "4", "--out", str(tri), "--vocab-out", str(tmp_path / "vocab.txt"),
        ]) == 0
        _, counts = build_trioccurrence(str(corpus), 60, 4)
        assert counts.nnz > 1000 and counts.values.max() > 9
        assert tri.read_bytes() == reference_coo_bytes(counts)

    def test_factorize_model_out_listed_in_manifest(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c d a c b d a b d c a d b c\n")
        tri, vocab = tmp_path / "tri.coo", tmp_path / "vocab.txt"
        assert main([
            "embed", "build", "--corpus", str(corpus), "--vocab", "4",
            "--out", str(tri), "--vocab-out", str(vocab),
        ]) == 0
        emb, cpm = tmp_path / "emb.tsv", tmp_path / "model.cpm"
        assert main([
            "embed", "factorize", "--input", str(tri), "--vocab-file", str(vocab),
            "--rank", "2", "--iters", "3", "--seed", "1", "--out", str(emb),
            "--model-out", str(cpm),
        ]) == 0
        model = read_cpm(cpm)
        assert model.dims == (4, 4, 4) and model.k == 2
        manifest = json.loads((tmp_path / "emb.tsv.manifest.json").read_text())
        assert manifest["outputs"] == [str(emb), str(cpm)]

    def test_eval_similarity_prints_result(self, tmp_path, capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text("alpha\t1.0\t0.0\nbeta\t0.8\t0.6\ngamma\t0.0\t1.0\n")
        sim = tmp_path / "sim.tsv"
        sim.write_text("alpha beta 3.0\nalpha gamma 1.0\nbeta gamma 2.0\nalpha zeta 1.0\n")
        code = main(["embed", "eval", "--embeddings", str(emb), "--similarity", str(sim)])
        assert code == 0
        assert capsys.readouterr().out == "similarity: spearman 1.0000 (3 pairs, 1 skipped)\n"

    def test_eval_needs_a_test_file(self, tmp_path, capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text("alpha\t1.0\t0.0\n")
        assert main(["embed", "eval", "--embeddings", str(emb)]) == 1
        assert capsys.readouterr().err == "error: embed eval needs --similarity and/or --analogy\n"

    def test_gen_corpus_desk_writes_zipf_corpus(self, tmp_path):
        out = tmp_path / "desk.txt"
        assert main([
            "embed", "gen-corpus", "--kind", "desk", "--tokens", "2000", "--seed", "5",
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == zipf_corpus(2000, seed=5).encode("utf-8")

    @pytest.mark.parametrize("tokens", ["0", "-3"])
    def test_gen_corpus_rejects_tokens_below_1(self, tmp_path, capsys, tokens):
        out = tmp_path / "desk.txt"
        code = main(["embed", "gen-corpus", "--tokens", tokens, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --tokens must be at least 1, got {tokens}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alpha\t1.0\t0.0\nbeta\t0.0\t1.0\t2.0\n", "line 2: 3 values, want 2"),
            ("\n\n", "no embedding rows"),
            ("", "no embedding rows"),
            ("alpha\nbeta\t0.0\t1.0\n", "line 1: a word with no values"),
            ("alpha\t1.0\tx\n", "line 1: could not convert string to float: 'x'"),
            ("alpha\t1.0\t0.0\nbeta\t\t1.0\n", "line 2: could not convert string to float: ''"),
        ],
        ids=["ragged", "blank", "empty", "no-values", "not-a-number", "empty-field"],
    )
    def test_eval_bad_embeddings_exit_1(self, tmp_path, capsys, text, message):
        emb = tmp_path / "emb.tsv"
        emb.write_text(text)
        sim = tmp_path / "sim.tsv"
        sim.write_text("alpha beta 1.0\n")
        code = main(["embed", "eval", "--embeddings", str(emb), "--similarity", str(sim)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {emb}: {message}\n"

    @pytest.mark.parametrize("vocab", ["0", "-2"])
    def test_build_rejects_vocab_below_1(self, tmp_path, capsys, vocab):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a a a b b c d e f g\n")
        out = tmp_path / "tri.coo"
        code = main([
            "embed", "build", "--corpus", str(corpus), "--vocab", vocab,
            "--out", str(out), "--vocab-out", str(tmp_path / "vocab.txt"),
        ])
        assert code == 1
        assert f"max_vocab must be >= 1, got {vocab}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_no_usable_pairs_exit_2(self, tmp_path):
        emb = tmp_path / "emb.tsv"
        emb.write_text("alpha\t1.0\t0.0\nbeta\t0.0\t1.0\n")
        sim = tmp_path / "sim.tsv"
        sim.write_text("gamma delta 1.0\n")
        code = main(["embed", "eval", "--embeddings", str(emb), "--similarity", str(sim)])
        assert code == 2


# The manifest's ``config`` is the parsed namespace without ``func``, so this
# table also pins every subcommand's manifest keys and defaults.
PARSED = [
    (
        ["decompose", "--input", "T.coo", "--rank", "3", "--out", "m.cpm"],
        {
            "command": "decompose", "input": "T.coo", "algo": "orth-als", "rank": 3,
            "iters": 100, "tol": 1e-6, "seed": 0, "init": "random", "hybrid_switch": 5,
            "rerand_period": None, "inits": 100, "out": "m.cpm", "trace": None,
        },
    ),
    (
        ["bench", "recovery", "--d", "8", "--k", "2", "--seed", "1", "--trials", "2",
         "--out", "r.csv"],
        {
            "command": "bench", "bench_command": "recovery", "d": 8, "k": 2, "noise": 0.0,
            "symmetric": False, "algos": "orth-als,als", "tol": 1e-6, "seed": 1,
            "threads": 3, "out": "r.csv", "ratios": "1", "trials": 2, "iters": 100,
        },
    ),
    (
        ["bench", "residual", "--d", "8", "--k", "2", "--seed", "1", "--out", "t.csv"],
        {
            "command": "bench", "bench_command": "residual", "d": 8, "k": 2, "noise": 0.0,
            "symmetric": False, "algos": "orth-als,als", "tol": 1e-6, "seed": 1,
            "threads": 3, "out": "t.csv", "ratio": 1.0, "trials": 1, "iters": 50,
        },
    ),
    (
        ["complete", "--input", "o.coo", "--rank", "2", "--out", "m.cpm"],
        {
            "command": "complete", "input": "o.coo", "rank": 2, "algo": "hybrid",
            "hybrid_switch": 5, "ridge": 1e-8, "iters": 100, "tol": 1e-6, "seed": 0,
            "p": None, "out": "m.cpm",
        },
    ),
    (
        ["overcomplete", "--input", "T.coo", "--rank", "9", "--out", "m.cpm"],
        {
            "command": "overcomplete", "input": "T.coo", "rank": 9, "block": None,
            "inner": "hybrid", "iters": 100, "tol": 1e-6, "seed": 0, "out": "m.cpm",
        },
    ),
    (
        ["embed", "build", "--corpus", "c.txt", "--out", "t.coo", "--vocab-out", "v.txt"],
        {
            "command": "embed", "embed_command": "build", "corpus": "c.txt", "vocab": 2000,
            "window": 3, "out": "t.coo", "vocab_out": "v.txt",
        },
    ),
    (
        ["embed", "factorize", "--input", "t.coo", "--vocab-file", "v.txt", "--out", "e.tsv"],
        {
            "command": "embed", "embed_command": "factorize", "input": "t.coo",
            "vocab_file": "v.txt", "rank": 50, "algo": "orth-als", "hybrid_switch": 5,
            "scale": "log1p", "iters": 30, "tol": 1e-5, "seed": 0, "out": "e.tsv",
            "model_out": None,
        },
    ),
    (
        ["embed", "eval", "--embeddings", "e.tsv"],
        {
            "command": "embed", "embed_command": "eval", "embeddings": "e.tsv",
            "similarity": None, "analogy": None,
        },
    ),
    (
        ["embed", "gen-corpus", "--out", "c.txt"],
        {
            "command": "embed", "embed_command": "gen-corpus", "kind": "desk",
            "tokens": 200_000, "seed": 0, "out": "c.txt", "quads_out": None,
        },
    ),
]


@pytest.mark.parametrize(
    "argv,expected", PARSED, ids=[" ".join(a for a in argv[:2] if a[0] != "-") for argv, _ in PARSED]
)
def test_parsed_namespace(monkeypatch, argv, expected):
    monkeypatch.setenv("TENFACT_THREADS", "3")
    parsed = vars(_build_parser().parse_args(argv))
    assert callable(parsed.pop("func"))
    assert parsed == expected
