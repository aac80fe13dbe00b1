"""Segment (ragged-array) utilities shared by every survey engine.

The columnar drivers all speak the same CSR/ragged dialect: a flat array
of values plus an ``offsets`` array such that segment ``w`` occupies
``flat[offsets[w]:offsets[w + 1]]``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["ragged_gather"]


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
