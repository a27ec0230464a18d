"""Overcomplete decomposition by block deflation.

Rank beyond the dimension rules out direct orthogonalization, so factors are
recovered in blocks of at most ``block`` (default: the smallest dimension):
decompose the current residual tensor, subtract the recovered block, repeat.
After every block past the first, all factors recovered so far are refined by
one full plain-ALS sweep against the original tensor, initialized at the
current estimates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np

from .bench import derived_seed
from .decompose import DecompConfig, als_run, als_sweep, hybrid_run
from .errors import InvalidConfigError, NumericalFailureError, TenfactError
from .tensors import (
    _DENSE_MAX_ENTRIES,
    CpModel,
    DenseTensor3,
    SparseTensor3,
    cp_reconstruct,
    normalize_columns,
)

__all__ = ["deflate_overcomplete"]

logger = logging.getLogger(__name__)

_INNER_RUNNERS = {"hybrid": hybrid_run, "als": als_run}


def deflate_overcomplete(tensor, total_rank, inner_cfg=None, block=None, inner="hybrid"):
    """Recover ``total_rank`` factors of a tensor block by block.

    The residual after a block is dense, so a sparse tensor that needs more
    than one block (``total_rank > block``) is densified once, up front,
    when it has at most ``tensors._DENSE_MAX_ENTRIES`` entries, and raises
    :class:`InvalidConfigError` before any block runs when it has more.  A
    sparse tensor that fits in one block is decomposed as it is, in the
    format the workspace's density rule gives it.
    ``inner`` selects the per-block decomposition ("hybrid" or "als"); the
    first block runs with ``inner_cfg.seed`` unchanged, so a single-block
    call reproduces the inner algorithm exactly.  A failing inner
    decomposition raises :class:`NumericalFailureError` whose ``partial``
    attribute carries the factors accumulated so far.
    """
    if total_rank < 1:
        raise ValueError(f"total_rank must be >= 1, got {total_rank}")
    if inner not in _INNER_RUNNERS:
        raise ValueError(f"inner must be one of {tuple(_INNER_RUNNERS)}, got {inner!r}")
    runner = _INNER_RUNNERS[inner]
    if block is None:
        block = min(tensor.dims)
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    block = min(block, min(tensor.dims))
    if isinstance(tensor, SparseTensor3) and total_rank > block:
        if math.prod(tensor.dims) > _DENSE_MAX_ENTRIES:
            raise InvalidConfigError(
                f"a sparse tensor of more than {_DENSE_MAX_ENTRIES} entries deflates in one "
                f"block only: rank {total_rank} > block {block}"
            )
        tensor = tensor.to_dense()
    if inner_cfg is None:
        inner_cfg = DecompConfig(rank=block)

    accumulated = None
    residual = tensor
    block_index = 0
    while accumulated is None or accumulated.k < total_rank:
        remaining = total_rank - (0 if accumulated is None else accumulated.k)
        rank_b = min(block, remaining)
        seed_b = inner_cfg.seed if block_index == 0 else derived_seed(inner_cfg.seed, block_index)
        cfg_b = replace(inner_cfg, rank=rank_b, seed=seed_b, record_trace=False)
        try:
            result = runner(residual, cfg_b)
        except TenfactError as exc:
            raise NumericalFailureError(
                f"block {block_index} decomposition failed: {exc}", partial=accumulated
            ) from exc
        piece = result.model
        if accumulated is None:
            accumulated = piece
        else:
            accumulated = CpModel(
                np.concatenate([accumulated.weights, piece.weights]),
                np.hstack([accumulated.A, piece.A]),
                np.hstack([accumulated.B, piece.B]),
                np.hstack([accumulated.C, piece.C]),
            )
            accumulated = _refine_once(tensor, accumulated)
        logger.info(
            "deflation block %d: rank %d accumulated %d/%d",
            block_index,
            rank_b,
            accumulated.k,
            total_rank,
        )
        if accumulated.k < total_rank:
            residual = DenseTensor3(tensor.array - cp_reconstruct(accumulated).array)
        block_index += 1
    return accumulated


def _refine_once(tensor, model):
    """One plain-ALS sweep over all accumulated factors against the original."""
    a = model.A * model.weights
    a1, b1, c1 = als_sweep(tensor, a, model.B, model.C)
    a, na = normalize_columns(a1)
    b, nb = normalize_columns(b1)
    c, nc = normalize_columns(c1)
    return CpModel(na * nb * nc, a, b, c).canonical()
