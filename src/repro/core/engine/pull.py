"""Pull-phase machinery: how engines deliver and intersect pulled adjacency.

The Push-Pull pull phase ships ``Adj^m_+(q)`` from its owner to the ranks
on ``q``'s pull list (coalesced: at most once per requesting rank); the
requester intersects it locally against every pivot of its own that wanted
``q``.  Each engine has its own strategy:

* ``legacy`` — one sized RPC per (q, requester), one scalar merge per
  waiting pivot;
* ``columnar`` — one RPC per (owner rank, requesting rank) pair carrying
  every pulled adjacency row at once, row-kernel intersection, triangles
  delivered to the reducer as one
  :class:`~repro.graph.metadata.TriangleBatch`; every replaced
  per-(q, requester) delivery is accounted — in legacy send order — at its
  exact serialized size, so the Table 3/Table 4 columns stay
  byte-identical.

Handler factories close over the run's driver-side ``pivots_by_target``
state (owned by the Push-Pull runner); drivers consume the owner-side
``pull_lists``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ...graph.dodgr import DODGraph, entry_key
from ...graph.metadata import TriangleBatch, TriangleMetadata
from ...runtime.serialization import uvarint_size
from ..intersection import INTERSECTION_KERNELS, ROW_KERNELS
from .driver import (
    candidate_key,
    deliver_batch,
    legacy_push_payload_overhead,
    resolve_batch_callback,
    row_adjacency,
)
from .request import TriangleCallback
from .segments import concat_segments

__all__ = ["make_pull_handler", "drive_pull"]


def _make_legacy_pull_handler(
    dodgr: DODGraph,
    intersect,
    callback: Optional["TriangleCallback"],
    per_triangle_compute: int,
    pivots_by_target,
):
    """Pull-phase: Adj^m_+(q) arrives at a source rank; intersect locally."""

    def _pull_deliver_handler(
        ctx, q: Any, meta_q: Any, adjacency_q: List[tuple]
    ) -> None:
        ctx.add_counter("vertices_pulled", 1)
        store = dodgr.local_store(ctx)
        wanting_pivots = pivots_by_target[ctx.rank].get(q, ())
        for p, q_index in wanting_pivots:
            record = store.get(p)
            if record is None:
                continue
            adjacency_p = record["adj"]
            meta_p = record["meta"]
            meta_pq = adjacency_p[q_index][2]
            suffix = adjacency_p[q_index + 1 :]
            ctx.add_counter("wedge_checks", len(suffix))
            result = intersect(suffix, adjacency_q, entry_key, candidate_key)
            ctx.add_compute(result.comparisons)
            for suff_idx, pulled_idx in result.matches:
                r, _d_r, meta_pr, meta_r = suffix[suff_idx]
                meta_qr = adjacency_q[pulled_idx][2]
                ctx.add_counter("triangles_found", 1)
                if callback is not None:
                    ctx.add_compute(per_triangle_compute)
                    callback(
                        ctx,
                        TriangleMetadata(
                            p=p, q=q, r=r,
                            meta_p=meta_p, meta_q=meta_q, meta_r=meta_r,
                            meta_pq=meta_pq, meta_pr=meta_pr, meta_qr=meta_qr,
                        ),
                    )

    return _pull_deliver_handler


def _make_columnar_pull_handler(
    dodgr: DODGraph,
    row_kernel,
    callback: Optional["TriangleCallback"],
    batch_callback,
    per_triangle_compute: int,
    pivots_by_target,
):
    """Pull-phase delivery, columnar: one RPC per (owner, requester) pair.

    ``q_rows`` indexes every adjacency row this owner rank is delivering
    to this requester, in the owner's legacy send order.  Each waiting
    pivot's suffix becomes one segment of a single row-kernel call
    against the owner's CSR rows, and the closing triangles are handed
    to the reducer as one :class:`TriangleBatch`.
    """

    def _pull_deliver_columnar_handler(ctx, owner_csr, q_rows) -> None:
        ctx.add_counter("vertices_pulled", len(q_rows))
        csr = dodgr.csr(ctx)
        targets = pivots_by_target[ctx.rank]
        row_of = csr.row_of
        rows: List[int] = []
        starts: List[int] = []
        ends: List[int] = []
        seg_q_rows: List[int] = []
        wedge_checks = 0
        for q_row in q_rows.tolist():
            q = owner_csr.row_vertices[q_row]
            for p, q_index in targets.get(q, ()):
                row = row_of(p)
                if row is None:
                    continue
                lo, hi = csr.row_slice(row)
                start = lo + q_index + 1
                # int(): spilled (mmap) indptr columns yield NumPy scalars.
                wedge_checks += int(hi - start)
                rows.append(row)
                starts.append(start)
                ends.append(hi)
                seg_q_rows.append(q_row)
        ctx.add_counter("wedge_checks", wedge_checks)
        if not rows:
            return
        candidate_ids, offsets = concat_segments(csr.tgt_ids, starts, ends)
        adjacency = row_adjacency(owner_csr, dodgr.order_count())
        result = row_kernel(
            candidate_ids, offsets, np.asarray(seg_q_rows, dtype=np.int64), adjacency
        )
        ctx.add_compute(int(result.comparisons))
        matches = len(result)
        if not matches:
            return
        ctx.add_counter("triangles_found", matches)
        if callback is None:
            return
        ctx.add_compute(per_triangle_compute * matches)
        starts_arr = np.asarray(starts, dtype=np.int64)
        seg = result.seg if hasattr(result.seg, "tolist") else np.asarray(result.seg)
        cand_pos = (
            result.cand_pos
            if hasattr(result.cand_pos, "tolist")
            else np.asarray(result.cand_pos)
        )
        src_pos = (starts_arr[seg] + cand_pos - offsets[seg]).tolist()
        seg_list = seg.tolist()
        adj_pos = (
            result.adj_pos.tolist()
            if hasattr(result.adj_pos, "tolist")
            else list(result.adj_pos)
        )
        entries = csr.entries
        owner_entries = owner_csr.entries
        builders = {
            "p": lambda: [csr.row_vertices[rows[s]] for s in seg_list],
            "meta_p": lambda: [csr.row_meta[rows[s]] for s in seg_list],
            "q": lambda: [owner_csr.row_vertices[seg_q_rows[s]] for s in seg_list],
            "meta_q": lambda: [owner_csr.row_meta[seg_q_rows[s]] for s in seg_list],
            "meta_pq": lambda: [entries[starts[s] - 1][2] for s in seg_list],
            "r": lambda: [entries[pos][0] for pos in src_pos],
            "meta_pr": lambda: [entries[pos][2] for pos in src_pos],
            "meta_r": lambda: [entries[pos][3] for pos in src_pos],
            "meta_qr": lambda: [owner_entries[pos][2] for pos in adj_pos],
        }
        batch = TriangleBatch(len(src_pos), builders)
        deliver_batch(ctx, batch, callback, batch_callback)

    return _pull_deliver_columnar_handler


def make_pull_handler(
    columnar: bool,
    dodgr: DODGraph,
    kernel: str,
    callback: Optional["TriangleCallback"],
    per_triangle_compute: int,
    pivots_by_target,
):
    """Build the requester-side pull handler of the columnar or legacy engine."""
    if columnar:
        return _make_columnar_pull_handler(
            dodgr,
            ROW_KERNELS[kernel],
            callback,
            resolve_batch_callback(callback),
            per_triangle_compute,
            pivots_by_target,
        )
    return _make_legacy_pull_handler(
        dodgr, INTERSECTION_KERNELS[kernel], callback, per_triangle_compute,
        pivots_by_target,
    )


def drive_pull(columnar: bool, ctx, dodgr: DODGraph, handler, pull_list) -> None:
    """Run one owner rank's pull deliveries at the engine's granularity.

    ``pull_list`` maps each locally owned ``q`` to the source ranks that
    should receive ``Adj^m_+(q)``.  The legacy engine sends one sized RPC
    per (q, requester); the columnar engine coalesces one RPC per
    requesting rank, accounting each replaced delivery — in legacy send
    order — at the exact serialized size of the legacy message (same wire
    framing as the push accounting: outer pair + argument list + payload
    list).
    """
    if columnar:
        rank = ctx.rank
        csr = dodgr.csr(rank)
        pull_overhead = legacy_push_payload_overhead(handler.handler_id)
        groups: Dict[int, Tuple[List[int], List[int]]] = {}
        for q, requesters in pull_list.items():
            row = csr.row_of(q)
            if row is None:
                continue
            lo, hi = csr.row_slice(row)
            # The pulled payload omits meta(r): the requesting rank
            # stores meta(r) locally for every r it may close with.  int():
            # spilled (mmap) columns yield NumPy scalars.
            nbytes = int(
                pull_overhead
                + csr.row_wire_sizes[row]
                + uvarint_size(hi - lo)
                + csr.cand_size_cumsum[hi]
                - csr.cand_size_cumsum[lo]
            )
            for source_rank in requesters:
                ctx.account_rpc(source_rank, nbytes)
                group = groups.get(source_rank)
                if group is None:
                    groups[source_rank] = group = ([], [0])
                group[0].append(row)
                group[1][0] += nbytes
        for source_rank, (q_row_list, (group_bytes,)) in groups.items():
            ctx.async_call_batched(
                source_rank,
                handler,
                csr,
                np.asarray(q_row_list, dtype=np.int64),
                virtual_rpcs=len(q_row_list),
                virtual_bytes=group_bytes,
            )
        return
    store = dodgr.local_store(ctx)
    for q, requesters in pull_list.items():
        record = store.get(q)
        if record is None:
            continue
        meta_q = record["meta"]
        # The pulled payload omits meta(r): the requesting rank stores
        # meta(r) locally for every r in its pivots' adjacency lists.
        payload = [(entry[0], entry[1], entry[2]) for entry in record["adj"]]
        for source_rank in requesters:
            ctx.async_call_sized(source_rank, handler, q, meta_q, payload)
