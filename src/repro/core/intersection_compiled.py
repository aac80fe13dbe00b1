"""Compiled kernel tier: numba-jitted row intersection loops.

The columnar tier (:mod:`repro.core.intersection`) vectorizes the row
kernels as NumPy array pipelines; their comparison counts are *replayed*
through closed forms over searchsorted ranks.  This module provides the
third tier: the scalar reference loops themselves, written in the restricted
nopython subset of Python and wrapped with ``numba.njit`` when numba is
importable.  Because the compiled functions *are* the scalar merge loops,
their matches and ``comparisons`` totals equal the scalar kernels' by
construction — no replay formula to keep honest.

Import is always safe: without numba, :data:`NUMBA_AVAILABLE` is False and
the loop functions stay plain Python.  :mod:`repro.core.intersection` only
registers the ``compiled`` tier in its tier tables when numba is present, so
a numba-less install transparently resolves ``kernel_tier="compiled"`` down
the declared chain (``compiled -> columnar -> scalar``); the pure-Python
loops remain directly callable either way, which is what lets the cross-tier
property suite pin the contract even on machines without the wheel.

The kernels receive and return exactly what the columnar tier does
(:class:`~repro.core.intersection.RowBatchResult`), so the engine drivers
are tier-agnostic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .intersection import RowAdjacency, RowBatchResult, _check_offsets

try:  # The jit is optional; the loops below run unjitted without it.
    import numba as _numba
except ImportError:
    _numba = None

__all__ = [
    "NUMBA_AVAILABLE",
    "merge_path_rows_compiled",
    "binary_search_rows_compiled",
    "hash_rows_compiled",
    "COMPILED_ROW_KERNELS",
]

#: True when numba imported and the loops below are jitted.
NUMBA_AVAILABLE = _numba is not None


# ---------------------------------------------------------------------------
# nopython loop bodies (jitted when numba is available)
# ---------------------------------------------------------------------------
#
# Every loop writes matches into caller-preallocated int64 output arrays
# (at most one match per candidate, so ``len(cand)`` slots always suffice)
# and returns ``(match_count, comparisons)``.  Comparison counting follows
# the scalar kernels of intersection.py line for line.


def _merge_rows_loop(cand, offs, seg_rows, keys, indptr, out_seg, out_cand, out_adj):
    m = 0
    comparisons = 0
    for seg in range(offs.shape[0] - 1):
        i = offs[seg]
        hi = offs[seg + 1]
        row = seg_rows[seg]
        j = indptr[row]
        jhi = indptr[row + 1]
        while i < hi and j < jhi:
            comparisons += 1
            ck = cand[i]
            ak = keys[j]
            if ck == ak:
                out_seg[m] = seg
                out_cand[m] = i
                out_adj[m] = j
                m += 1
                i += 1
                j += 1
            elif ck < ak:
                i += 1
            else:
                j += 1
    return m, comparisons


def _binary_rows_loop(cand, offs, seg_rows, keys, indptr, out_seg, out_cand, out_adj):
    m = 0
    comparisons = 0
    for seg in range(offs.shape[0] - 1):
        row = seg_rows[seg]
        adj_lo = indptr[row]
        n_row = indptr[row + 1] - adj_lo
        for i in range(offs[seg], offs[seg + 1]):
            ck = cand[i]
            lo = 0
            hi = n_row
            while lo < hi:
                comparisons += 1
                mid = (lo + hi) // 2
                if keys[adj_lo + mid] < ck:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < n_row:
                comparisons += 1
                if keys[adj_lo + lo] == ck:
                    out_seg[m] = seg
                    out_cand[m] = i
                    out_adj[m] = adj_lo + lo
                    m += 1
    return m, comparisons


def _hash_rows_loop(cand, offs, seg_rows, keys, indptr, out_seg, out_cand, out_adj):
    m = 0
    comparisons = cand.shape[0]
    for seg in range(offs.shape[0] - 1):
        i = offs[seg]
        hi = offs[seg + 1]
        row = seg_rows[seg]
        j = indptr[row]
        jhi = indptr[row + 1]
        comparisons += jhi - j
        while i < hi and j < jhi:
            ck = cand[i]
            ak = keys[j]
            if ck == ak:
                out_seg[m] = seg
                out_cand[m] = i
                out_adj[m] = j
                m += 1
                i += 1
                j += 1
            elif ck < ak:
                i += 1
            else:
                j += 1
    return m, comparisons


if NUMBA_AVAILABLE:  # pragma: no cover - requires a numba install
    _jit = _numba.njit(cache=True, nogil=True)
    _merge_rows_loop = _jit(_merge_rows_loop)
    _binary_rows_loop = _jit(_binary_rows_loop)
    _hash_rows_loop = _jit(_hash_rows_loop)


# ---------------------------------------------------------------------------
# Tier wrappers: columnar-tier signatures around the loops
# ---------------------------------------------------------------------------


def _as_i64(values) -> "np.ndarray":
    # np.asarray strips ndarray subclasses (memmap columns of an
    # out-of-core CSR become plain views), which is what the jit wants.
    return np.asarray(values, dtype=np.int64)


def _run_rows(
    loop, candidate_keys, offsets, seg_rows, adjacency: RowAdjacency
) -> RowBatchResult:
    cand = _as_i64(candidate_keys)
    offs = _as_i64(offsets)
    rows = _as_i64(seg_rows)
    _check_offsets(cand, offs)
    keys = _as_i64(adjacency.keys)
    indptr = _as_i64(adjacency.indptr)
    out_seg = np.empty(cand.size, dtype=np.int64)
    out_cand = np.empty(cand.size, dtype=np.int64)
    out_adj = np.empty(cand.size, dtype=np.int64)
    m, comparisons = loop(cand, offs, rows, keys, indptr, out_seg, out_cand, out_adj)
    return RowBatchResult(out_seg[:m], out_cand[:m], out_adj[:m], int(comparisons))


def merge_path_rows_compiled(
    candidate_keys: Sequence[int],
    offsets: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
) -> RowBatchResult:
    """Compiled-tier :func:`~repro.core.intersection.merge_path_rows`."""
    return _run_rows(_merge_rows_loop, candidate_keys, offsets, seg_rows, adjacency)


def binary_search_rows_compiled(
    candidate_keys: Sequence[int],
    offsets: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
) -> RowBatchResult:
    """Compiled-tier :func:`~repro.core.intersection.binary_search_rows`."""
    return _run_rows(_binary_rows_loop, candidate_keys, offsets, seg_rows, adjacency)


def hash_rows_compiled(
    candidate_keys: Sequence[int],
    offsets: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
) -> RowBatchResult:
    """Compiled-tier :func:`~repro.core.intersection.hash_rows`."""
    return _run_rows(_hash_rows_loop, candidate_keys, offsets, seg_rows, adjacency)


#: Compiled-tier kernels, keyed like INTERSECTION_KERNELS.  Registered into
#: the tier tables by intersection.py only when numba is present; always
#: importable (and contract-tested) as plain Python.
COMPILED_ROW_KERNELS = {
    "merge_path": merge_path_rows_compiled,
    "binary_search": binary_search_rows_compiled,
    "hash": hash_rows_compiled,
}
