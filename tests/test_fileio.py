import operator
import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tenfact import fileio
from tenfact.fileio import _parse_coo, read_coo, read_cpm, write_coo, write_cpm
from tenfact.tensors import SparseTensor3, cp_reconstruct

from conftest import random_model, random_sparse


ENTRY_LINE = "{path}: entry line %d must be 'i j k value'"
EXTRA_LINE = "{path}: line %d: text after the header's %d entries"


class TestCooFormat:
    def test_roundtrip_sparse(self, rng, tmp_path):
        s = random_sparse(rng, (5, 4, 6), 20)
        path = tmp_path / "t.coo"
        write_coo(path, s)
        back = read_coo(path)
        assert back.dims == s.dims
        np.testing.assert_array_equal(back.indices, s.indices)
        np.testing.assert_array_equal(back.values, s.values)

    def test_roundtrip_dense(self, rng, tmp_path):
        t = cp_reconstruct(random_model(rng, (3, 3, 3), 2))
        path = tmp_path / "t.coo"
        write_coo(path, t)
        np.testing.assert_allclose(read_coo(path).to_dense().array, t.array, atol=1e-15)

    def test_header_and_line_format(self, tmp_path):
        s = SparseTensor3.from_entries((2, 3, 4), [(1, 2, 3, 0.5), (0, 0, 0, -2.0)])
        path = tmp_path / "t.coo"
        write_coo(path, s)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 3 4 2"
        assert lines[1] == "0 0 0 -2.0"
        assert lines[2] == "1 2 3 0.5"

    def test_scientific_notation_parsed(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("2 2 2 1\n0 1 0 1.5e-3\n")
        s = read_coo(path)
        assert s.values[0] == pytest.approx(1.5e-3)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("2 2 2\n")
        with pytest.raises(ValueError):
            read_coo(path)

    def test_entries_past_header_nnz_rejected(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("2 2 2 2\n0 0 0 1.0\n1 1 1 2.0\n0 1 0 3.0\n")
        with pytest.raises(ValueError, match="line 4: text after the header's 2 entries"):
            read_coo(path)
        path.write_text("2 2 2 2\n0 0 0 1.0\n1 1 1 2.0\n\n \n")
        assert read_coo(path).nnz == 2

    def test_byte_identical_rewrite(self, rng, tmp_path):
        s = random_sparse(rng, (4, 4, 4), 12)
        p1, p2 = tmp_path / "a.coo", tmp_path / "b.coo"
        write_coo(p1, s)
        write_coo(p2, read_coo(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "body, expect",
        [
            # Malformed: the line loop's message for the file at "{path}".
            pytest.param("2 2 2 2\n0 0 0 1.0\n0 1 1\n", ENTRY_LINE % 2, id="short-line"),
            pytest.param("2 2 2 2\n0 0 0 1.0\n0 1 1 2.0 3.0\n", ENTRY_LINE % 2, id="five-tokens"),
            pytest.param(
                "2 2 2 1\n1.0 0 0 1.0\n", "invalid literal for int() with base 10: '1.0'", id="float-index"
            ),
            pytest.param("2 2 2 2\n0 0 0 1.0\n\n1 1 1 2.0\n", ENTRY_LINE % 2, id="blank-line"),
            pytest.param("2 2 2 2\n# note\n0 0 0 1.0\n1 1 1 2.0\n", ENTRY_LINE % 1, id="comment-line"),
            pytest.param("2 2 2 1\n0 0 0 1.0 # note\n", ENTRY_LINE % 1, id="trailing-comment"),
            pytest.param("2 2 2 3\n0 0 0 1.0\n1 1 1 2.0\n", ENTRY_LINE % 3, id="too-few-lines"),
            pytest.param("2 2 2 1\n0 0 0 1.0\n1 1 1 2.0\n", EXTRA_LINE % (3, 1), id="too-many-lines"),
            pytest.param("2 2 2 1\n0 0 0 1.0\n\nnot an entry", EXTRA_LINE % (4, 1), id="text-after-blank"),
            pytest.param("2 2 2 0\n0 0 0 1.0\n", EXTRA_LINE % (2, 0), id="entries-past-zero"),
            pytest.param("3 3 3 1000000000000\n0 0 0 1\n", ENTRY_LINE % 2, id="nnz-past-the-file"),
            pytest.param(
                "3 3 3 -1\n0 0 0 1\n", "{path}: header 'd1 d2 d3 nnz' has a negative count: 3 3 3 -1", id="negative-nnz"
            ),
            # Accepted: the (i, j, k) rows and values, in file order.
            pytest.param("2 2 2 1\n+1 0 0 +2.5\n", ([[1, 0, 0]], [2.5]), id="plus-signs"),
            pytest.param("20 2 2 1\n1_0 0 0 1_0.5\n", ([[10, 0, 0]], [10.5]), id="underscores"),
            pytest.param(
                "2 2 2 2\n0\t0\t0\t1.0\n1\t1\t1\t-2e-3\n", ([[0, 0, 0], [1, 1, 1]], [1.0, -2e-3]), id="tabs"
            ),
            pytest.param(
                "2 2 2 2\r\n1 1 1 2.0\r\n0 0 0 1.0\r\n", ([[1, 1, 1], [0, 0, 0]], [2.0, 1.0]), id="crlf"
            ),
            pytest.param("2 2 2 1\n0 0 0 1.0\n\n  \n\t\n", ([[0, 0, 0]], [1.0]), id="trailing-blank-lines"),
        ],
    )
    def test_reader_contract(self, tmp_path, body, expect):
        path = tmp_path / "t.coo"
        path.write_bytes(body.encode())
        if isinstance(expect, str):
            message = expect.format(path=path)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _parse_coo(path)
            return
        dims, idx, vals = _parse_coo(path)
        assert dims == tuple(int(x) for x in body.split()[:3])
        assert idx.dtype == np.int64 and idx.tolist() == expect[0]
        assert vals.dtype == np.float64 and vals.tobytes() == np.array(expect[1]).tobytes()

    @pytest.mark.parametrize("parse", [fileio._parse_coo_lines, _parse_coo])
    def test_header_count_past_the_file_allocates_nothing(self, tmp_path, parse):
        """Arrays are sized by the entry lines the file can hold, at least
        ``0 0 0 1`` and a newline each, not by the header's count."""
        path = tmp_path / "t.coo"
        path.write_text("3 3 3 10000000\n0 0 0 1\n1 1 1 2\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(ENTRY_LINE.format(path=path) % 3)):
                parse(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_reads_a_pipe(self, tmp_path):
        """A pipe has no size to cut the header's count by, and is read whole."""
        path = tmp_path / "t.coo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("2 2 2 2\n0 0 0 1.0\n1 1 1 2.0\n",))
        writer.start()
        try:
            dims, idx, vals = _parse_coo(path)
        finally:
            writer.join(timeout=10)
        assert dims == (2, 2, 2) and idx.tolist() == [[0, 0, 0], [1, 1, 1]] and vals.tolist() == [1.0, 2.0]

    def test_reader_warning_falls_back_to_line_loop(self, tmp_path, monkeypatch):
        # numpy 1.x accepts an index "1.0" with a DeprecationWarning.
        path = tmp_path / "t.coo"
        path.write_text("2 2 2 1\n1 1 1 2.0\n")
        loadtxt = np.loadtxt

        def warn_then_parse(*args, **kwargs):
            warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warn_then_parse)
        monkeypatch.setattr(fileio, "_parse_coo_lines", lambda p: "line loop")
        assert _parse_coo(path) == "line loop"


def reference_coo_bytes(tensor):
    """A sparse tensor's ``.coo`` file, formatted one line at a time."""
    d1, d2, d3 = tensor.dims
    lines = [f"{d1} {d2} {d3} {tensor.nnz}\n"]
    for (i, j, k), v in zip(tensor.indices, tensor.values):
        lines.append(f"{int(i)} {int(j)} {int(k)} {float(v)!r}\n")
    return "".join(lines).encode()


_magnitudes = st.floats(min_value=5e-324, max_value=1e308)


@given(
    entries=st.dictionaries(
        st.tuples(*(st.integers(0, 4),) * 3),
        st.one_of(_magnitudes, _magnitudes.map(operator.neg)),
        max_size=40,
    ),
    pad=st.tuples(*(st.integers(0, 2),) * 3),
    dense=st.booleans(),
    chunk_rows=st.sampled_from([1, 3, 1 << 13]),
)
def test_fast_paths_match_line_references(entries, pad, dense, chunk_rows):
    keys = sorted(entries)
    idx = np.array(keys, dtype=np.int64).reshape(-1, 3)
    dims = tuple(int(m) + 1 + p for m, p in zip(idx.max(axis=0, initial=0), pad))
    tensor = SparseTensor3(dims, idx, [entries[key] for key in keys])
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / "t.coo"
        write_coo(path, tensor.to_dense() if dense else tensor)
        assert path.read_bytes() == reference_coo_bytes(tensor)
        want_dims, want_idx, want_vals = fileio._parse_coo_lines(path)
        # The chunked reader must take the file itself, not fall back.
        for got_dims, got_idx, got_vals in (fileio._parse_coo_chunks(path), _parse_coo(path)):
            assert got_dims == want_dims
            assert got_idx.dtype == np.int64 and np.array_equal(got_idx, want_idx)
            assert got_vals.dtype == np.float64 and got_vals.tobytes() == want_vals.tobytes()


_INTEGRAL_EDGES = (9999999999999998.0, 1e16, 2.0**53 + 2)
# Largest indices on both sides of a digit width, and dims of the three sizes
# that keep a dense copy under 10 MB: one mode each up to 1001, 101 and 11.
_DIM_CHOICES = ((1, 2, 10, 11, 100, 101, 1000, 1001), (1, 2, 10, 11, 100, 101), (1, 2, 10, 11))


@given(
    dims=st.tuples(*(st.sampled_from(choices) for choices in _DIM_CHOICES)).flatmap(st.permutations),
    nnz=st.sampled_from([0, 1, 5, 40, 1100]),
    values=st.lists(
        st.one_of(
            st.integers(1, 2**53).map(float),
            st.integers(1, 60).map(float),
            st.sampled_from(_INTEGRAL_EDGES),
            _magnitudes,
        ).flatmap(lambda v: st.sampled_from([v, -v])),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**32 - 1),
    dense=st.booleans(),
    chunk_rows=st.sampled_from([1, 3, 1 << 13]),
)
@example(dims=[1001, 101, 11], nnz=1100, values=[3.0, -1.0, 7.0], seed=0, dense=False, chunk_rows=1 << 13)
@example(dims=[11, 1000, 2], nnz=40, values=[*_INTEGRAL_EDGES, -2.0, 0.5], seed=1, dense=True, chunk_rows=3)
@example(dims=[10, 10, 10], nnz=0, values=[1.0], seed=2, dense=False, chunk_rows=1)
def test_write_coo_matches_line_reference(dims, nnz, values, seed, dense, chunk_rows):
    """Digit-table and ``repr`` blocks, in any mix per chunk, give the reference bytes."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(np.prod(dims), size=min(nnz, int(np.prod(dims))), replace=False)
    idx = np.column_stack(np.unravel_index(flat, dims))
    if nnz:
        # The largest index of each mode, and the one below it, on every draw.
        top = np.array(dims) - 1
        idx = np.unique(np.vstack([idx, top, np.maximum(top - 1, 0)]), axis=0)
    tensor = SparseTensor3(dims, idx, np.resize(values, len(idx)))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / "t.coo"
        write_coo(path, tensor.to_dense() if dense else tensor)
        assert path.read_bytes() == reference_coo_bytes(tensor)


def test_write_coo_builds_no_table_larger_than_the_entries(tmp_path, monkeypatch):
    tensor = SparseTensor3((10**7, 2, 2), [(0, 0, 0), (9_999_999, 1, 0), (12_345, 0, 1)], [1.0, -2.0, 0.5])
    build = fileio._decimal_table
    sizes = []

    def record(n, nnz):
        table = build(n, nnz)
        sizes.append(0 if table is None else len(table))
        return table

    monkeypatch.setattr(fileio, "_decimal_table", record)
    write_coo(tmp_path / "t.coo", tensor)
    assert (tmp_path / "t.coo").read_bytes() == reference_coo_bytes(tensor)
    assert sizes and max(sizes) <= tensor.nnz


class TestCpmFormat:
    def test_roundtrip(self, rng, tmp_path):
        m = random_model(rng, (4, 5, 6), 3)
        path = tmp_path / "m.cpm"
        write_cpm(path, m)
        back = read_cpm(path)
        np.testing.assert_array_equal(back.weights, m.weights)
        np.testing.assert_array_equal(back.A, m.A)
        np.testing.assert_array_equal(back.B, m.B)
        np.testing.assert_array_equal(back.C, m.C)

    def test_header_layout(self, rng, tmp_path):
        m = random_model(rng, (2, 3, 4), 2)
        path = tmp_path / "m.cpm"
        write_cpm(path, m)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 3 4 2"
        assert len(lines) == 2 + 2 + 3 + 4
        assert len(lines[1].split()) == 2  # weights row
        assert len(lines[2].split()) == 2  # first factor row has k values

    @pytest.mark.parametrize(
        "tail, bad_line",
        [("9 9\n", 9), ("not a row\n", 9), ("\n\n9 9\nnot a row\n", 11)],
        ids=["numbers", "text", "after-blank-lines"],
    )
    def test_text_after_factor_rows(self, rng, tmp_path, tail, bad_line):
        path = tmp_path / "m.cpm"
        write_cpm(path, random_model(rng, (2, 2, 2), 1))
        path.write_text(path.read_text() + tail)
        with pytest.raises(ValueError, match=f"line {bad_line}: text after the factor rows"):
            read_cpm(path)

    def test_trailing_blank_lines(self, rng, tmp_path):
        path = tmp_path / "m.cpm"
        write_cpm(path, random_model(rng, (2, 2, 2), 1))
        path.write_text(path.read_text() + "\n  \n\t\n")
        assert read_cpm(path).dims == (2, 2, 2)

    def test_factor_rows_past_the_file_allocate_nothing(self, tmp_path):
        path = tmp_path / "big.cpm"
        path.write_text("1000000000 2 2 3\n1 2 3\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: factor row has 0 values, want 3$"):
                read_cpm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("header", ["-1 2 2 1", "2 2 2 -1"])
    def test_negative_header_count(self, tmp_path, header):
        path = tmp_path / "bad.cpm"
        path.write_text(f"{header}\n1.0\n")
        message = f"{path}: header 'd1 d2 d3 k' has a negative count: {header}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_cpm(path)

    def test_weight_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.cpm"
        path.write_text("2 2 2 2\n1.0\n1 0\n0 1\n1 0\n0 1\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            read_cpm(path)
