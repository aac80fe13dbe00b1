"""Property-based row-kernel equivalence against the scalar reference.

Every row kernel in :data:`~repro.core.intersection.ROW_KERNELS` promises
the *identical* matches and the *identical* aggregate comparison count that
one scalar :data:`~repro.core.intersection.INTERSECTION_KERNELS` call per
segment produces (:func:`~repro.core.intersection._rows_via_scalar`, the
oracle).  The suite drives every row kernel over random and adversarial
inputs — empty adjacencies, empty segments, empty rows, single-element
segments, and keys duplicated across segments and shared with the
adjacency — twice: at the production cutoffs (small inputs take the scalar
route) and with the NumPy pipeline forced for every input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import intersection
from repro.core.intersection import (
    INTERSECTION_KERNELS,
    ROW_KERNELS,
    RowAdjacency,
    _rows_via_scalar,
)

KERNEL_NAMES = tuple(INTERSECTION_KERNELS)


def canonical_rows(result):
    """(seg, cand_pos, adj_pos, comparisons) as plain int lists."""
    return (
        [int(v) for v in result.seg],
        [int(v) for v in result.cand_pos],
        [int(v) for v in result.adj_pos],
        int(result.comparisons),
    )


def sorted_unique(draw, order_count, max_len, min_len=0):
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=order_count - 1),
            min_size=min_len,
            max_size=max_len,
            unique=True,
        )
    )
    return sorted(keys)


@st.composite
def row_cases(draw):
    """Candidate segments + a multi-row adjacency (empty rows included)."""
    order_count = draw(st.integers(min_value=1, max_value=40))
    n_rows = draw(st.integers(min_value=1, max_value=5))
    rows = [
        sorted_unique(draw, order_count, max_len=min(order_count, 8))
        for _ in range(n_rows)
    ]
    keys = []
    indptr = [0]
    for row in rows:
        keys.extend(row)
        indptr.append(len(keys))
    n_segments = draw(st.integers(min_value=0, max_value=6))
    segments = [
        sorted_unique(draw, order_count, max_len=min(order_count, 8))
        for _ in range(n_segments)
    ]
    offsets = [0]
    flat = []
    for seg in segments:
        flat.extend(seg)
        offsets.append(len(flat))
    seg_rows = [
        draw(st.integers(min_value=0, max_value=n_rows - 1)) for _ in range(n_segments)
    ]
    adjacency = RowAdjacency(
        np.asarray(keys, dtype=np.int64),
        np.asarray(indptr, dtype=np.int64),
        order_count,
    )
    return flat, offsets, seg_rows, adjacency


def assert_rows_match_reference(name, flat, offsets, seg_rows, adjacency):
    """Row kernel ``name``, on both routes, reproduces the scalar reference."""
    row_fn = ROW_KERNELS[name]
    oracle = canonical_rows(
        _rows_via_scalar(INTERSECTION_KERNELS[name], flat, offsets, seg_rows, adjacency)
    )
    got = canonical_rows(row_fn(flat, offsets, seg_rows, adjacency))
    assert got == oracle, f"{name}/default-cutoffs diverged: {got} != {oracle}"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intersection, "_SCALAR_BATCH_CUTOFF", -1)
        got = canonical_rows(row_fn(flat, offsets, seg_rows, adjacency))
    assert got == oracle, f"{name}/force-vectorized diverged: {got} != {oracle}"


@pytest.mark.parametrize("name", KERNEL_NAMES)
@settings(max_examples=120, deadline=None)
@given(case=row_cases())
def test_row_kernels_match_scalar_reference(name, case):
    """Same matches, same comparison totals: every row kernel, both routes."""
    assert_rows_match_reference(name, *case)


def _adjacency(rows, order_count=64):
    keys, indptr = [], [0]
    for row in rows:
        keys.extend(row)
        indptr.append(len(keys))
    return RowAdjacency(
        np.asarray(keys, dtype=np.int64), np.asarray(indptr, dtype=np.int64), order_count
    )


#: Hand-written adversarial shapes: (flat candidates, offsets, seg_rows, rows).
ADVERSARIAL_ROW_CASES = [
    # everything empty
    ([], [0], [], [[]]),
    # empty segments interleaved with singletons
    ([5], [0, 0, 1, 1], [0, 0, 0], [[5]]),
    # segment against an empty row
    ([1, 2, 3], [0, 3], [1], [[1, 2, 3], []]),
    # single-element segments, duplicate keys across segments
    ([7, 7, 7], [0, 1, 2, 3], [0, 1, 0], [[7], [3, 7]]),
    # full overlap: candidates == the row
    ([2, 4, 6], [0, 3], [0], [[2, 4, 6]]),
    # no overlap, candidate keys below/above the row's range
    ([0, 1, 60, 63], [0, 2, 4], [0, 0], [[10, 20, 30]]),
]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_row_kernels_adversarial_cases(name):
    for flat, offsets, seg_rows, rows in ADVERSARIAL_ROW_CASES:
        assert_rows_match_reference(name, flat, offsets, seg_rows, _adjacency(rows))
