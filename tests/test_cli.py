import csv
import json

import numpy as np
import pytest

from tenfact.cli import main
from tenfact.fileio import read_cpm, write_coo
from tenfact.tensors import cp_reconstruct, residual_ratio

from conftest import diagonal_tensor, random_model


@pytest.fixture
def diag_coo(tmp_path):
    model, tensor = diagonal_tensor([3.0, 2.0, 1.0], 8)
    path = tmp_path / "diag.coo"
    write_coo(path, tensor)
    return model, tensor, str(path)


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

    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = main([
            "bench", "recovery", "--d", "6", "--k", "2", "--trials", "0",
            "--algos", "als", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert len(rows) == 1

    def test_seed_required(self, tmp_path):
        code = main([
            "bench", "recovery", "--d", "6", "--k", "2", "--trials", "1",
            "--algos", "als", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1

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

    def test_eval_no_usable_pairs_exit_2(self, tmp_path):
        emb = tmp_path / "emb.tsv"
        emb.write_text("alpha\t1.0\t0.0\nbeta\t0.0\t1.0\n")
        sim = tmp_path / "sim.tsv"
        sim.write_text("gamma delta 1.0\n")
        code = main(["embed", "eval", "--embeddings", str(emb), "--similarity", str(sim)])
        assert code == 2
