"""Text formats for tensors (.coo) and CP models (.cpm).

``.coo``: first line ``d1 d2 d3 nnz``, then nnz lines ``i j k value``
(0-based indices, whitespace separated, decimal or scientific values).
Only blank lines may follow the entries.

``.cpm``: line 1 ``d1 d2 d3 k``; line 2 the k weights; then d1 rows of the
mode-1 factor, d2 rows of the mode-2 factor, d3 rows of the mode-3 factor,
k values per row.  Only blank lines may follow the factor rows.

Floats are written with ``repr`` (shortest round-trip), so identical data
produces byte-identical files.

``.coo`` I/O runs at array speed.  ``write_coo`` assembles each chunk of
up to ``_CHUNK_ROWS`` lines as one ``uint8`` block and writes it with one
``write``, so its memory does not grow with nnz.  Each column is a block of
digit rows padded with NUL; the space, ``.0`` and newline columns sit
between them, and one mask drops the padding.  An index column is gathered
from a table of the decimal forms of ``0 .. dim-1``.  In a chunk of
integral values, each value is its sign, digits gathered from a table of
``0 .. max|v|``, and ``.0``: that is ``repr`` of an integral float below
1e16.  A table is built only when it has at most nnz rows, so its cost is
bounded by the entries.  A column without a table, and a chunk with any
non-integral value, is formatted with ``str`` or ``repr``.  Files are
byte-identical to writing one line at a time.

``_parse_coo`` (behind ``read_coo`` and ``tenfact complete``) parses the
body in chunks of the same size with numpy's C text reader.  Index columns
parse as integers, so an index written ``1.0`` stays rejected.  The line
loop ``_parse_coo_lines`` is the one reference: when the reader raises,
warns, or returns fewer rows than a chunk has lines (it skips blank lines),
the loop parses the whole file again and raises its line-numbered
``ValueError`` or returns its result.  Where both accept a file, their
arrays are bitwise equal.

A header count is never trusted with memory.  A negative one raises at
the header, and no reader allocates for more entry lines or factor rows
than the rest of the file can hold (:func:`_room`), so a count past the
file's end raises at its first missing line, naming the file.
"""

from __future__ import annotations

import itertools
import os
import stat
import warnings

import numpy as np

from .tensors import CpModel, DenseTensor3, SparseTensor3

__all__ = ["read_coo", "write_coo", "read_cpm", "write_cpm"]


# Entries per chunk of the fast paths, about 100 KB of text.  Chunks of
# 65536 were no faster and raised the embedding pipeline's peak RSS by 2 MB.
_CHUNK_ROWS = 1 << 13
_COO_ROW = np.dtype([("i", "i8"), ("j", "i8"), ("k", "i8"), ("value", "f8")])
# Characters of the shortest entry line, ``0 0 0 1``, before its newline.
_COO_LINE = 7
# Bytes of ``write_coo``'s lines.  NUL pads the digit blocks: no line holds it.
_SPACE, _NEWLINE, _POINT_ZERO = (np.frombuffer(b, np.uint8) for b in (b" ", b"\n", b".0"))


def _parse_coo(path):
    """Dims, (nnz, 3) indices and values of a ``.coo`` file's lines, as written."""
    try:
        # numpy 1.x reads an index "1.0" as 1, with a DeprecationWarning.
        # Warnings are recorded, not raised: the filters are process-wide,
        # and an error filter would raise other threads' warnings as well.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parsed = _parse_coo_chunks(path)
        if not caught:
            return parsed
    except Exception:
        pass
    # Whatever the reader rejects or warns about, the loop rejects with its
    # own message or accepts; either way its answer is the reference.
    return _parse_coo_lines(path)


def _parse_coo_chunks(path):
    """``_parse_coo_lines``' result by numpy's reader; raises where it may differ."""
    with open(path, "r", encoding="utf-8") as fh:
        d1, d2, d3, nnz = _header(path, fh, "d1 d2 d3 nnz")
        if _room(fh, nnz, _COO_LINE) < nnz:
            raise ValueError("more entry lines than the file can hold")
        idx = np.empty((nnz, 3), dtype=np.int64)
        vals = np.empty(nnz)
        for lo in range(0, nnz, _CHUNK_ROWS):
            lines = min(_CHUNK_ROWS, nnz - lo)
            rows = np.loadtxt(
                itertools.islice(fh, lines), dtype=_COO_ROW, comments=None, ndmin=1
            )
            if rows.shape[0] != lines:
                raise ValueError("blank or missing entry lines")
            chunk = slice(lo, lo + lines)
            idx[chunk, 0], idx[chunk, 1], idx[chunk, 2] = rows["i"], rows["j"], rows["k"]
            vals[chunk] = rows["value"]
        if any(line.strip() for line in fh):
            raise ValueError("text after the entry lines")
    return (d1, d2, d3), idx, vals


def _parse_coo_lines(path):
    """The line-at-a-time ``.coo`` parser: the reference and the fallback.

    Its arrays are sized by :func:`_room`, so a header that promises more
    entries than the file holds is rejected at its first missing line, and
    never allocates for the entries it promises.
    """
    with open(path, "r", encoding="utf-8") as fh:
        d1, d2, d3, nnz = _header(path, fh, "d1 d2 d3 nnz")
        rows = _room(fh, nnz, _COO_LINE)
        idx = np.empty((rows, 3), dtype=np.int64)
        vals = np.empty(rows)
        for n in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 4:
                raise ValueError(f"{path}: entry line {n + 1} must be 'i j k value'")
            idx[n] = (int(parts[0]), int(parts[1]), int(parts[2]))
            vals[n] = float(parts[3])
        for line_no, line in enumerate(fh, start=nnz + 2):
            if line.strip():
                raise ValueError(f"{path}: line {line_no}: text after the header's {nnz} entries")
    return (d1, d2, d3), idx, vals


def _header(path, fh, form):
    """The four integers of an open file's header line ``form``, none negative."""
    fields = fh.readline().split()
    if len(fields) != 4:
        raise ValueError(f"{path}: header must be '{form}'")
    counts = tuple(int(x) for x in fields)
    if min(counts) < 0:
        raise ValueError(f"{path}: header '{form}' has a negative count: {' '.join(fields)}")
    return counts


def _room(fh, count, width):
    """``count`` cut to the lines of at least ``width`` characters and a
    newline (the file's last line may lack it) that the rest of ``fh`` holds.

    A parser that sizes its arrays by this, not by a header's count, meets
    a missing or short line before it runs out of rows.  A file that is not
    regular, such as a pipe, has no size to cut by: ``count`` is returned.
    """
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        return count
    return min(count, (info.st_size - fh.tell() + 1) // (width + 1))


def read_coo(path):
    """Parse a ``.coo`` file into a :class:`SparseTensor3`."""
    return SparseTensor3(*_parse_coo(path))


def write_coo(path, tensor):
    """Write a dense or sparse tensor's nonzero entries as ``.coo``."""
    if isinstance(tensor, DenseTensor3):
        nonzero = tensor.array != 0.0
        idx, vals = np.argwhere(nonzero), tensor.array[nonzero]
    else:
        idx, vals = tensor.indices, tensor.values
    dims, nnz = tensor.dims, len(vals)
    index_tables = [_decimal_table(dim, nnz) for dim in dims]
    # Both tensor types hold finite entries only, so ``int(top)`` is defined.
    top = max(vals.max(initial=0.0), -vals.min(initial=0.0))
    value_table = _decimal_table(int(top) + 1, nnz)
    with open(path, "wb") as fh:
        fh.write(f"{dims[0]} {dims[1]} {dims[2]} {nnz}\n".encode())
        for lo in range(0, nnz, _CHUNK_ROWS):
            rows, v = idx[lo : lo + _CHUNK_ROWS], vals[lo : lo + _CHUNK_ROWS]
            parts = []
            for column, table in zip(rows.T, index_tables):
                parts += [_decimal_block(column, table), _SPACE]
            if value_table is not None and np.array_equal(v, np.trunc(v)):
                # The table stops below nnz, far below 1e16, and repr of an
                # integral float below 1e16 is its sign, integer and ".0".
                sign = np.where(np.signbit(v), ord("-"), 0).astype(np.uint8)
                digits = np.take(value_table, np.abs(v).astype(np.intp), axis=0)
                parts += [sign[:, None], digits, _POINT_ZERO]
            else:
                parts.append(_text_block(map(repr, v.tolist())))
            parts.append(_NEWLINE)
            fh.write(_join_columns(parts, len(v)))


def _decimal_table(n, nnz):
    """Rows of ``uint8`` digits of ``0 .. n-1``, right-aligned after NUL padding.

    ``None`` when ``n`` exceeds ``nnz``: a table larger than the file's
    entries would cost more than the column it serves.
    """
    if n > nnz:
        return None
    numbers = np.arange(n)[:, None]
    powers = 10 ** np.arange(len(str(n - 1)) - 1, -1, -1)
    table = (numbers // powers % 10 + ord("0")).astype(np.uint8)
    # Leading zeros become padding; the units digit always stays.
    table[:, :-1][numbers < powers[:-1]] = 0
    return table


def _decimal_block(column, table):
    """Digit rows of an index column: gathered from ``table``, or by ``str``."""
    if table is not None:
        return np.take(table, column, axis=0)
    return _text_block(map(str, column.tolist()))


def _text_block(strings):
    """Rows of ``uint8`` characters of ASCII strings, left-aligned before NUL padding."""
    block = np.array(list(strings), dtype="S")
    return block.view(np.uint8).reshape(len(block), block.itemsize)


def _join_columns(parts, rows):
    """The bytes of ``rows`` lines that are the row-wise concatenation of ``parts``.

    A part is a ``(rows, width)`` block or a 1-D run of bytes shared by every
    row; NUL bytes are padding and are dropped.
    """
    flat = np.hstack([np.broadcast_to(part, (rows, part.shape[-1])) for part in parts]).ravel()
    return np.compress(flat != 0, flat).tobytes()


def read_cpm(path):
    """Parse a ``.cpm`` file into a :class:`CpModel`."""
    with open(path, "r", encoding="utf-8") as fh:
        d1, d2, d3, k = _header(path, fh, "d1 d2 d3 k")
        weights = np.array([float(x) for x in fh.readline().split()])
        if weights.size != k:
            raise ValueError(f"{path}: expected {k} weights, got {weights.size}")

        def read_factor(rows):
            # A row of k values is k numbers and k - 1 separators; at k = 0
            # the rows take no memory, and an end of file reads as one.
            m = np.empty((_room(fh, rows, 2 * k - 1) if k else rows, k))
            for r in range(rows):
                parts = fh.readline().split()
                if len(parts) != k:
                    raise ValueError(f"{path}: factor row has {len(parts)} values, want {k}")
                m[r] = [float(x) for x in parts]
            return m

        a = read_factor(d1)
        b = read_factor(d2)
        c = read_factor(d3)
        for line_no, line in enumerate(fh, start=d1 + d2 + d3 + 3):
            if line.strip():
                raise ValueError(f"{path}: line {line_no}: text after the factor rows")
    return CpModel(weights, a, b, c)


def write_cpm(path, model):
    """Write a CP model as ``.cpm``."""
    d1, d2, d3 = model.dims
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{d1} {d2} {d3} {model.k}\n")
        fh.write(" ".join(repr(float(w)) for w in model.weights) + "\n")
        for factor in (model.A, model.B, model.C):
            for row in factor:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")
