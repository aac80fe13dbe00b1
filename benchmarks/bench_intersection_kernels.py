"""Row intersection kernels — cutoff sweep and survey replay parity.

Not a figure from the paper: this microbenchmark pins the row kernels
(:data:`repro.core.intersection.ROW_KERNELS`) the columnar engine
intersects with.  Each is a NumPy array pipeline with a scalar small-input
route (:func:`~repro.core.intersection._rows_via_scalar`) governed by
``_SCALAR_BATCH_CUTOFF`` / ``_SCALAR_ROW_SEGMENT_CUTOFF``; both routes share
one contract (identical matches, identical aggregate comparison counts).

Two jobs here:

1. **Cutoff sweep** — force the row kernels down their scalar and
   vectorized routes across input sizes bracketing the cutoffs, time both,
   assert parity at every point, and record where the crossover actually
   sits so the cutoff constants can be audited against measurements.
2. **Replay parity** — capture every row-kernel invocation of a real
   columnar survey over the ``rmat-weak`` dataset (the ``bench_survey_engine``
   workload), replay the captured calls through ``ROW_KERNELS["merge_path"]``
   and through the scalar reference, and assert bit-identical matches +
   comparison counts.  Both replay times are recorded.
"""

from __future__ import annotations

import time

import numpy as np

from _artifacts import emit, emit_json
from repro.bench import format_table, load_dataset
from repro.core import intersection as intersection_mod
from repro.core.callbacks import TriangleCounter
from repro.core.engine import DEFAULT_CALLBACK_COMPUTE_UNITS
from repro.core.engine.driver import (
    drive_columnar_push,
    legacy_push_payload_overhead,
    make_columnar_push_handler,
    make_columnar_wedge_check,
)
from repro.core.intersection import (
    ROW_KERNELS,
    _rows_via_scalar,
    merge_path_intersection,
)
from repro.graph.dodgr import DODGraph
from repro.runtime.world import World

NODES = 16
#: A cutoff constant large enough to force the scalar route at every size
#: this sweep generates (and small enough to stay an exact int64).
FORCE_SCALAR = 1 << 40


def best_seconds(fn, repeats=3, iterations=5):
    """Best-of-``repeats`` mean seconds per call over ``iterations`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


# ---------------------------------------------------------------------------
# Synthetic inputs bracketing the cutoffs
# ---------------------------------------------------------------------------


def make_row_input(rng, n_segments, seg_len, n_rows, row_len, order_count=1 << 16):
    """Sorted candidate segments + a multi-row adjacency + a row per segment."""
    total = n_segments * seg_len
    offsets = (np.arange(n_segments + 1, dtype=np.int64) * seg_len).astype(np.int64)
    candidates = np.concatenate(
        [
            np.sort(rng.choice(order_count, size=seg_len, replace=False))
            for _ in range(n_segments)
        ]
        or [np.empty(0, dtype=np.int64)]
    ).astype(np.int64)
    assert candidates.size == total
    keys = np.concatenate(
        [
            np.sort(rng.choice(order_count, size=row_len, replace=False))
            for _ in range(n_rows)
        ]
    ).astype(np.int64)
    indptr = (np.arange(n_rows + 1, dtype=np.int64) * row_len).astype(np.int64)
    adjacency = intersection_mod.RowAdjacency(keys, indptr, order_count)
    seg_rows = rng.integers(0, n_rows, size=n_segments).astype(np.int64)
    return candidates, offsets, seg_rows, adjacency


def canonical_rows(result):
    return (
        [int(v) for v in result.seg],
        [int(v) for v in result.cand_pos],
        [int(v) for v in result.adj_pos],
        int(result.comparisons),
    )


# ---------------------------------------------------------------------------
# Cutoff sweep: scalar route vs vectorized route across sizes
# ---------------------------------------------------------------------------


def _with_cutoffs(batch_cutoff, segment_cutoff, fn):
    """Run ``fn`` with the module cutoffs pinned, restoring them afterwards."""
    saved = (
        intersection_mod._SCALAR_BATCH_CUTOFF,
        intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF,
    )
    intersection_mod._SCALAR_BATCH_CUTOFF = batch_cutoff
    intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF = segment_cutoff
    try:
        return fn()
    finally:
        (
            intersection_mod._SCALAR_BATCH_CUTOFF,
            intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF,
        ) = saved


def test_cutoff_sweep(benchmark):
    """Time both routes of the columnar row kernels around the scalar cutoffs.

    ``_SCALAR_BATCH_CUTOFF`` (96 candidate keys) and
    ``_SCALAR_ROW_SEGMENT_CUTOFF`` (4 segments) claim the scalar loops win
    below them.  This sweep forces
    each route at sizes bracketing the cutoffs, asserts the two routes agree
    bit-for-bit, and records the measured crossover next to the defaults.
    """
    rng = np.random.default_rng(10)
    row_fn = ROW_KERNELS["merge_path"]

    row_rows = []
    # segment count sweeps through the 4-segment cutoff (short segments, so
    # the 96-key cutoff alone would keep routing small calls to scalar).
    for n_segments in [1, 2, 4, 8, 16, 64]:
        cand, offs, seg_rows, adjacency = make_row_input(rng, n_segments, 8, 32, 12)
        scalar_result = _with_cutoffs(
            FORCE_SCALAR, FORCE_SCALAR, lambda: row_fn(cand, offs, seg_rows, adjacency)
        )
        vector_result = _with_cutoffs(
            -1, -1, lambda: row_fn(cand, offs, seg_rows, adjacency)
        )
        assert canonical_rows(scalar_result) == canonical_rows(vector_result), (
            f"row route mismatch at {n_segments} segments"
        )
        scalar_s = _with_cutoffs(
            FORCE_SCALAR,
            FORCE_SCALAR,
            lambda: best_seconds(lambda: row_fn(cand, offs, seg_rows, adjacency)),
        )
        vector_s = _with_cutoffs(
            -1, -1, lambda: best_seconds(lambda: row_fn(cand, offs, seg_rows, adjacency))
        )
        row_rows.append(
            {
                "shape": "rows",
                "total_keys": int(cand.size),
                "segments": n_segments,
                "scalar_us": scalar_s * 1e6,
                "vectorized_us": vector_s * 1e6,
                "scalar_over_vectorized": scalar_s / vector_s,
                "default_route": "scalar"
                if (
                    cand.size <= intersection_mod._SCALAR_BATCH_CUTOFF
                    and n_segments <= intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF
                )
                else "vectorized",
            }
        )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = row_rows
    emit(
        format_table(
            [
                {
                    **{k: row[k] for k in ("shape", "total_keys", "segments", "default_route")},
                    "scalar us": round(row["scalar_us"], 2),
                    "vectorized us": round(row["vectorized_us"], 2),
                    "scalar/vectorized": round(row["scalar_over_vectorized"], 2),
                }
                for row in rows
            ],
            title="Row-kernel scalar cutoffs — route timing sweep",
        )
    )
    emit_json(
        "bench_intersection_cutoffs",
        {
            "batch_cutoff_default": intersection_mod._SCALAR_BATCH_CUTOFF,
            "segment_cutoff_default": intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF,
            "sweep": rows,
        },
    )
    benchmark.extra_info["points"] = len(rows)
    # The defaults must not be absurd: at the largest swept size the
    # vectorized route has to win.
    assert row_rows[-1]["scalar_over_vectorized"] > 1.0


# ---------------------------------------------------------------------------
# Replay: real survey call shapes through the row kernel and its reference
# ---------------------------------------------------------------------------


def capture_row_calls(dataset):
    """Run a columnar push survey recording every row-kernel invocation.

    Returns the captured ``(candidates, offsets, seg_rows, adjacency)``
    argument tuples — the exact call shapes ``bench_survey_engine``'s
    workload feeds the kernel layer — plus the triangle count for parity.
    """
    world = World(NODES)
    graph = dataset.to_distributed(world)
    dodgr = DODGraph.build(graph, mode="bulk")
    reducer = TriangleCounter(world)
    base = ROW_KERNELS["merge_path"]
    calls = []

    def recording_kernel(candidates, offsets, seg_rows, adjacency):
        calls.append((candidates, offsets, seg_rows, adjacency))
        return base(candidates, offsets, seg_rows, adjacency)

    handler = world.register_handler(
        make_columnar_push_handler(
            dodgr,
            make_columnar_wedge_check(
                recording_kernel, reducer.callback, DEFAULT_CALLBACK_COMPUTE_UNITS
            ),
        )
    )
    overhead = legacy_push_payload_overhead(handler.handler_id)
    world.begin_phase("push")
    for ctx in world.ranks:
        drive_columnar_push(ctx, dodgr, dodgr.csr(ctx), handler, overhead)
    world.barrier()
    return calls, reducer.result()


def _scalar_reference(candidates, offsets, seg_rows, adjacency):
    return _rows_via_scalar(
        merge_path_intersection, candidates, offsets, seg_rows, adjacency
    )


#: The replayed implementations: the production row kernel and the scalar
#: reference it must reproduce.
REPLAY_KERNELS = {
    "row_kernel": ROW_KERNELS["merge_path"],
    "scalar_reference": _scalar_reference,
}


def replay(calls, kernel_fn):
    """Replay every captured call through ``kernel_fn``."""
    return [
        canonical_rows(kernel_fn(cand, offs, rows, adjacency))
        for cand, offs, rows, adjacency in calls
    ]


def test_replay_parity(benchmark):
    """The merge-path row kernel reproduces the scalar reference exactly on
    every row-kernel call of a real columnar survey."""
    dataset = load_dataset("rmat-weak")
    calls, triangles = capture_row_calls(dataset)
    assert calls, "columnar survey produced no row-kernel calls"

    def run_all():
        out = {}
        for label, kernel_fn in REPLAY_KERNELS.items():
            seconds = best_seconds(
                lambda: replay(calls, kernel_fn), repeats=3, iterations=1
            )
            out[label] = (seconds, replay(calls, kernel_fn))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert results["row_kernel"][1] == results["scalar_reference"][1], (
        "merge-path row kernel diverged from the scalar reference"
    )

    row_s = results["row_kernel"][0]
    trajectory = {
        "dataset": dataset.name,
        "nodes": NODES,
        "row_kernel_calls": len(calls),
        "triangles": triangles,
        "replay": {
            label: {
                "replay_seconds": seconds,
                "speedup_vs_row_kernel": row_s / seconds,
            }
            for label, (seconds, _results) in results.items()
        },
    }
    emit(
        format_table(
            [
                {
                    "kernel": label,
                    "replay seconds": round(seconds, 4),
                    "vs row kernel": f"{row_s / seconds:.2f}x",
                }
                for label, (seconds, _results) in results.items()
            ],
            title=f"Row-kernel replay — {len(calls)} captured row-kernel calls",
        )
    )
    emit_json("bench_intersection_kernels", trajectory)
    benchmark.extra_info["row_kernel_calls"] = len(calls)
