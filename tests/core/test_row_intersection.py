"""Parity tests: row kernels vs their scalar counterparts.

The row kernels are contractually *aggregates* of the scalar kernels: per
segment they must return exactly the matches the scalar kernel would
against the segment's adjacency row, and their comparison total must equal
the sum of the scalar counts — otherwise a columnar survey would drift from
the legacy path's simulated-cost accounting.
"""

from __future__ import annotations

import random

import numpy
import pytest

from repro.core import intersection
from repro.core.intersection import (
    INTERSECTION_KERNELS,
    ROW_KERNELS,
    RowAdjacency,
    merge_path_rows,
)

identity = lambda x: x  # noqa: E731 - key function for plain int keys

KERNEL_IDS = ["merge_path", "hash", "binary_search"]


def flatten(segments):
    flat = [key for segment in segments for key in segment]
    offsets = [0]
    for segment in segments:
        offsets.append(offsets[-1] + len(segment))
    return flat, offsets


ROW_KERNEL_PAIRS = [
    (name, INTERSECTION_KERNELS[name], ROW_KERNELS[name])
    for name in ("merge_path", "hash", "binary_search")
]


#: Key universe of the row-kernel tests.  The composite-key stride
#: (order_count) must bound *every* id — candidates and adjacency alike —
#: exactly as the dense ``<+`` order ids do in production.
ROW_KEY_SPACE = 60


def build_row_adjacency(rows):
    """RowAdjacency over explicit per-row sorted key lists."""
    keys, indptr = flatten(rows)
    return RowAdjacency(
        numpy.asarray(keys, dtype=numpy.int64),
        numpy.asarray(indptr, dtype=numpy.int64),
        ROW_KEY_SPACE,
    )


def row_scalar_reference(scalar_kernel, segments, seg_rows, rows):
    """One scalar call per segment against its own row: the row contract."""
    flat, offsets = flatten(segments)
    matches, comparisons = [], 0
    row_starts = [0]
    for row in rows:
        row_starts.append(row_starts[-1] + len(row))
    for seg_index, segment in enumerate(segments):
        row = seg_rows[seg_index]
        result = scalar_kernel(segment, rows[row], identity, identity)
        comparisons += result.comparisons
        for i, j in result.matches:
            matches.append((seg_index, offsets[seg_index] + i, row_starts[row] + j))
    return matches, comparisons


@pytest.mark.parametrize("name,scalar,row_kernel", ROW_KERNEL_PAIRS, ids=KERNEL_IDS)
class TestRowKernelParity:
    @pytest.fixture(autouse=True, params=["production-cutoff", "force-vectorized"])
    def _batch_cutoff(self, request, monkeypatch):
        # The small-input fast path reroutes tiny inputs through the scalar
        # reference, which would make these parity cases tautological; the
        # second parametrization forces every input down the vectorized
        # NumPy pipeline so its edge-case handling stays pinned too.
        if request.param == "force-vectorized":
            monkeypatch.setattr("repro.core.intersection._SCALAR_BATCH_CUTOFF", -1)

    def assert_parity(self, scalar, row_kernel, segments, seg_rows, rows):
        flat, offsets = flatten(segments)
        adjacency = build_row_adjacency(rows)
        expected_matches, expected_comparisons = row_scalar_reference(
            scalar, segments, seg_rows, rows
        )
        result = row_kernel(flat, offsets, seg_rows, adjacency)
        got = list(
            zip(
                (int(s) for s in result.seg),
                (int(c) for c in result.cand_pos),
                (int(a) for a in result.adj_pos),
            )
        )
        assert got == expected_matches
        assert int(result.comparisons) == expected_comparisons

    def test_basic_multi_row(self, name, scalar, row_kernel):
        rows = [[2, 3, 4, 7, 10], [1, 9], []]
        segments = [[1, 3, 5, 7, 9], [2, 3, 4], [1, 9], [4]]
        self.assert_parity(scalar, row_kernel, segments, [0, 0, 1, 2], rows)

    def test_same_row_many_segments(self, name, scalar, row_kernel):
        rows = [[5, 9, 11]]
        segments = [[2, 5, 9], [9, 11], [1]]
        self.assert_parity(scalar, row_kernel, segments, [0, 0, 0], rows)

    @pytest.mark.parametrize(
        "segments,seg_rows,rows",
        [
            pytest.param([[], [3]], [0, 1], [[], [3]], id="empty-row-and-segment"),
            pytest.param([], [], [[1, 2]], id="no-segments"),
            pytest.param([[1, 2], [3]], [0, 0], [[]], id="empty-adjacency"),
            pytest.param([[7]], [0], [[7]], id="single-entry-match"),
            pytest.param([[7]], [0], [[8]], id="single-entry-miss"),
            pytest.param(
                [list(range(0, 40, 2))] * 2,
                [0, 0],
                [list(range(0, 40, 2))],
                id="all-matching",
            ),
            # Segments entirely below / entirely above the row's range hit
            # the "one side exhausts immediately" paths of the cost formula.
            pytest.param(
                [[1, 2, 3], [50, 51]], [0, 0], [[10, 20, 30]], id="disjoint-extremes"
            ),
        ],
    )
    def test_adversarial(self, name, scalar, row_kernel, segments, seg_rows, rows):
        self.assert_parity(scalar, row_kernel, segments, seg_rows, rows)

    def test_random_fuzz(self, name, scalar, row_kernel):
        rng = random.Random(4321)
        for _ in range(150):
            nrows = rng.randint(1, 6)
            rows = [
                sorted(rng.sample(range(60), rng.randint(0, 15))) for _ in range(nrows)
            ]
            segments, seg_rows = [], []
            for _ in range(rng.randint(0, 8)):
                segments.append(sorted(rng.sample(range(60), rng.randint(0, 12))))
                seg_rows.append(rng.randrange(nrows))
            self.assert_parity(scalar, row_kernel, segments, seg_rows, rows)


class TestRowResultShape:
    @pytest.mark.parametrize("name", KERNEL_IDS)
    @pytest.mark.parametrize("cutoff", [-1, 96], ids=["force-vectorized", "scalar"])
    def test_matches_ordered_by_segment_then_candidate(self, cutoff, name, monkeypatch):
        monkeypatch.setattr("repro.core.intersection._SCALAR_BATCH_CUTOFF", cutoff)
        adjacency = build_row_adjacency([[5, 9]])
        result = ROW_KERNELS[name]([5, 9, 5, 9], [0, 2, 4], [0, 0], adjacency)
        assert [int(s) for s in result.seg] == [0, 0, 1, 1]
        assert [int(c) for c in result.cand_pos] == [0, 1, 2, 3]
        assert [int(a) for a in result.adj_pos] == [0, 1, 0, 1]
        assert len(result) == 4

    @pytest.mark.parametrize("cutoff", [-1, 96], ids=["force-vectorized", "scalar"])
    def test_bad_offsets_rejected(self, cutoff, monkeypatch):
        monkeypatch.setattr("repro.core.intersection._SCALAR_BATCH_CUTOFF", cutoff)
        adjacency = build_row_adjacency([[1]])
        with pytest.raises(ValueError):
            merge_path_rows([1, 2, 3], [0, 2], [0], adjacency)
        with pytest.raises(ValueError):
            ROW_KERNELS["hash"]([1, 2, 3], [1, 3], [0], adjacency)


class TestScalarRouting:
    """Each kernel name has one row implementation, and it routes by size.

    ``merge_path_rows`` and ``hash_rows`` hand a call to
    ``_rows_via_scalar`` only when both the candidate count and the segment
    count are at or below their cutoffs; ``binary_search_rows`` always
    does.  Either way the result is the scalar reference.
    """

    def test_row_kernels_cover_every_kernel_name(self):
        assert set(ROW_KERNELS) == set(INTERSECTION_KERNELS)

    #: (shape id, segment count, candidates per segment) relative to the
    #: shipped cutoffs, and whether merge_path/hash take the scalar route.
    SHAPES = [
        ("small", 2, 3, True),
        ("at-both-cutoffs", 4, 24, True),
        ("above-candidate-cutoff", 1, 97, False),
        ("above-segment-cutoff", 5, 1, False),
    ]

    @pytest.mark.parametrize("name", KERNEL_IDS)
    @pytest.mark.parametrize(
        "n_segments,per_segment,scalar_route",
        [shape[1:] for shape in SHAPES],
        ids=[shape[0] for shape in SHAPES],
    )
    def test_route_follows_cutoffs(
        self, name, n_segments, per_segment, scalar_route, monkeypatch
    ):
        assert intersection._SCALAR_BATCH_CUTOFF == 96
        assert intersection._SCALAR_ROW_SEGMENT_CUTOFF == 4
        order_count = 400
        segments = [
            [3 * k + s for k in range(per_segment)] for s in range(n_segments)
        ]
        rows = [list(range(0, order_count, 2)), list(range(0, order_count, 5))]
        seg_rows = [s % len(rows) for s in range(n_segments)]
        flat, offsets = flatten(segments)
        keys, indptr = flatten(rows)
        adjacency = RowAdjacency(
            numpy.asarray(keys, dtype=numpy.int64),
            numpy.asarray(indptr, dtype=numpy.int64),
            order_count,
        )
        reference = intersection._rows_via_scalar
        calls = []

        def spy(*args):
            calls.append(args[0])
            return reference(*args)

        monkeypatch.setattr(intersection, "_rows_via_scalar", spy)
        result = ROW_KERNELS[name](flat, offsets, seg_rows, adjacency)
        expected = scalar_route or name == "binary_search"
        assert calls == ([INTERSECTION_KERNELS[name]] if expected else [])

        matches, comparisons = row_scalar_reference(
            INTERSECTION_KERNELS[name], segments, seg_rows, rows
        )
        got = list(
            zip(
                (int(s) for s in result.seg),
                (int(c) for c in result.cand_pos),
                (int(a) for a in result.adj_pos),
            )
        )
        assert got == matches
        assert result.comparisons == comparisons
