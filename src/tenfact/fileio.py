"""Text formats for tensors (.coo) and CP models (.cpm).

``.coo``: first line ``d1 d2 d3 nnz``, then nnz lines ``i j k value``
(0-based indices, whitespace separated, decimal or scientific values).

``.cpm``: line 1 ``d1 d2 d3 k``; line 2 the k weights; then d1 rows of the
mode-1 factor, d2 rows of the mode-2 factor, d3 rows of the mode-3 factor,
k values per row.

Floats are written with ``repr`` (shortest round-trip), so identical data
produces byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .tensors import CpModel, DenseTensor3, SparseTensor3

__all__ = ["read_coo", "write_coo", "read_cpm", "write_cpm"]


def _parse_coo(path):
    """Dims, (nnz, 3) indices and values of a ``.coo`` file's lines, as written."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"{path}: header must be 'd1 d2 d3 nnz'")
        d1, d2, d3, nnz = (int(x) for x in header)
        idx = np.empty((nnz, 3), dtype=np.int64)
        vals = np.empty(nnz)
        for n in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 4:
                raise ValueError(f"{path}: entry line {n + 1} must be 'i j k value'")
            idx[n] = (int(parts[0]), int(parts[1]), int(parts[2]))
            vals[n] = float(parts[3])
    return (d1, d2, d3), idx, vals


def read_coo(path):
    """Parse a ``.coo`` file into a :class:`SparseTensor3`."""
    return SparseTensor3(*_parse_coo(path))


def write_coo(path, tensor):
    """Write a dense or sparse tensor's nonzero entries as ``.coo``."""
    if isinstance(tensor, DenseTensor3):
        idx = np.argwhere(tensor.array != 0.0)
        vals = tensor.array[tensor.array != 0.0]
    else:
        idx, vals = tensor.indices, tensor.values
    d1, d2, d3 = tensor.dims
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{d1} {d2} {d3} {len(vals)}\n")
        for (i, j, k), v in zip(idx, vals):
            fh.write(f"{int(i)} {int(j)} {int(k)} {float(v)!r}\n")


def read_cpm(path):
    """Parse a ``.cpm`` file into a :class:`CpModel`."""
    with open(path, "r", encoding="utf-8") as fh:
        d1, d2, d3, k = (int(x) for x in fh.readline().split())
        weights = np.array([float(x) for x in fh.readline().split()])
        if weights.size != k:
            raise ValueError(f"{path}: expected {k} weights, got {weights.size}")

        def read_factor(rows):
            m = np.empty((rows, k))
            for r in range(rows):
                parts = fh.readline().split()
                if len(parts) != k:
                    raise ValueError(f"{path}: factor row has {len(parts)} values, want {k}")
                m[r] = [float(x) for x in parts]
            return m

        a = read_factor(d1)
        b = read_factor(d2)
        c = read_factor(d3)
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
