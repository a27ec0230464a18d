"""Overcomplete decomposition by block deflation.

Rank beyond the dimension rules out direct orthogonalization, so factors are
recovered in blocks of at most ``block`` (default: the smallest dimension):
decompose the residual ``T - M`` of the tensor against the model ``M``
recovered so far, append the recovered block to ``M``, repeat.  The residual
is never formed: each block's run gets ``decompose._Deflated(T, M)``, whose
workspace takes every MTTKRP, projection and norm from ``T`` and corrects it
by ``M``'s factors, so a dense and a sparse tensor deflate by the same code
at any rank.  ``T`` is put in its working form (``tensors._working_form``)
once, and every block and refine sweep reads that form.
After every block past the first, all factors recovered so far are refined by
one full plain-ALS sweep against the original tensor, initialized at the
current estimates.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from .bench import derived_seed
from .decompose import DecompConfig, _Deflated, als_run, als_sweep, hybrid_run
from .errors import NumericalFailureError, TenfactError
from .tensors import CpModel, _working_form, normalize_columns

__all__ = ["deflate_overcomplete"]

logger = logging.getLogger(__name__)

_INNER_RUNNERS = {"hybrid": hybrid_run, "als": als_run}


def deflate_overcomplete(tensor, total_rank, inner_cfg=None, block=None, inner="hybrid"):
    """Recover ``total_rank`` factors of a tensor block by block.

    Each block after the first decomposes ``T - M``, the tensor minus the
    model accumulated so far, without forming it (``decompose._Deflated``),
    so a sparse tensor stays sparse at any rank and no block allocates a
    tensor-sized residual.  ``inner`` selects the per-block decomposition
    ("hybrid" or "als"); the first block runs on the tensor itself with
    ``inner_cfg.seed`` unchanged, so a single-block call reproduces the inner
    algorithm exactly.  A failing inner decomposition raises
    :class:`NumericalFailureError` whose ``partial`` attribute carries the
    factors accumulated so far.
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
    if inner_cfg is None:
        inner_cfg = DecompConfig(rank=block)
    tensor = _working_form(tensor)

    accumulated = None
    block_index = 0
    while accumulated is None or accumulated.k < total_rank:
        remaining = total_rank - (0 if accumulated is None else accumulated.k)
        rank_b = min(block, remaining)
        seed_b = inner_cfg.seed if block_index == 0 else derived_seed(inner_cfg.seed, block_index)
        cfg_b = replace(inner_cfg, rank=rank_b, seed=seed_b, record_trace=False)
        residual = tensor if accumulated is None else _Deflated(tensor, accumulated)
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
            pairs = zip(
                (accumulated.weights, *accumulated.factors), (piece.weights, *piece.factors)
            )
            joined = CpModel(*(np.concatenate(x, axis=-1) for x in pairs))
            accumulated = _refine_once(tensor, joined)
        logger.info(
            "deflation block %d: rank %d accumulated %d/%d",
            block_index,
            rank_b,
            accumulated.k,
            total_rank,
        )
        block_index += 1
    return accumulated


def _refine_once(tensor, model):
    """One plain-ALS sweep over all accumulated factors against the original.

    The sweep's mode-1 solve reads only the B and C factors.
    """
    a1, b1, c1 = als_sweep(tensor, model.A, model.B, model.C)
    a, na = normalize_columns(a1)
    b, nb = normalize_columns(b1)
    c, nc = normalize_columns(c1)
    return CpModel(na * nb * nc, a, b, c).canonical()
