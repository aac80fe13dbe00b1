"""Segment (ragged-array) utilities shared by every survey engine.

The columnar drivers all speak the same CSR/ragged dialect: a flat array
of values plus an ``offsets`` array such that segment ``w`` occupies
``flat[offsets[w]:offsets[w + 1]]``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["concat_segments", "ragged_gather"]


def concat_segments(ids, starts: Sequence[int], ends: Sequence[int]):
    """Concatenate ``ids[s:e]`` slices into one flat array plus offsets.

    The CSR/ragged layout consumed by the row kernels: segment ``w``
    occupies ``flat[offsets[w]:offsets[w + 1]]``.
    """
    starts_arr = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(ends, dtype=np.int64) - starts_arr
    index, offsets = ragged_gather(starts_arr, lengths)
    if index.size == 0:
        return index, offsets
    return np.asarray(ids)[index], offsets


def ragged_gather(starts, lengths) -> Tuple["np.ndarray", "np.ndarray"]:
    """Flat gather index of ragged segments ``[starts[i], starts[i]+lengths[i])``.

    Returns ``(gather, offsets)`` where ``gather`` indexes the source array
    and ``offsets`` delimits the segments in the gathered result.
    """
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    return (
        np.arange(total, dtype=np.int64) + np.repeat(starts - offsets[:-1], lengths)
    ), offsets
