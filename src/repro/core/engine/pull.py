"""Pull-phase machinery: how engines deliver and intersect pulled adjacency.

The Push-Pull pull phase ships ``Adj^m_+(q)`` from its owner to the ranks
on ``q``'s pull list (coalesced: at most once per requesting rank); the
requester checks it locally against every pivot of its own that wanted
``q``.  The pull handler of each engine is a thin adapter over that
engine's wedge-check step (:mod:`~repro.core.engine.driver`): the
candidates are the local pivots' suffixes after ``q``, the adjacency is
the pulled row, and meta(r) is read from the local side.

* ``legacy`` — one sized RPC per (q, requester), one scalar check per
  waiting pivot;
* ``columnar`` — one RPC per (owner rank, requesting rank) pair carrying
  every pulled adjacency row at once (the owner's CSR plus row indices),
  all waiting pivots checked in one step; every replaced
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

from ...graph.dodgr import DODGraph
from ...runtime.serialization import uvarint_size
from .driver import legacy_push_payload_overhead, make_wedge_check, row_adjacency
from .request import TriangleCallback
from .segments import ragged_gather

__all__ = ["make_pull_handler", "drive_pull"]


def _make_legacy_pull_handler(dodgr: DODGraph, check, pivots_by_target):
    """Pull-phase: Adj^m_+(q) arrives at a source rank; check every waiting pivot."""

    def _pull_deliver_handler(
        ctx, q: Any, meta_q: Any, adjacency_q: List[tuple]
    ) -> None:
        ctx.add_counter("vertices_pulled", 1)
        store = dodgr.local_store(ctx)
        for p, q_index in pivots_by_target[ctx.rank].get(q, ()):
            record = store.get(p)
            if record is None:
                continue
            adjacency_p = record["adj"]
            check(
                ctx, p, q, record["meta"], meta_q, adjacency_p[q_index][2],
                adjacency_p[q_index + 1 :], adjacency_q,
            )

    return _pull_deliver_handler


def _make_columnar_pull_handler(dodgr: DODGraph, check, pivots_by_target):
    """Pull-phase delivery, columnar: one RPC per (owner, requester) pair.

    ``q_rows`` indexes every adjacency row this owner rank is delivering
    to this requester, in the owner's legacy send order.  Each waiting
    pivot's suffix becomes one segment of a single wedge check against
    the owner's CSR rows.
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
        for q_row in q_rows.tolist():
            q = owner_csr.row_vertices[q_row]
            for p, q_index in targets.get(q, ()):
                row = row_of(p)
                if row is None:
                    continue
                lo, hi = csr.row_slice(row)
                rows.append(row)
                starts.append(lo + q_index + 1)
                ends.append(hi)
                seg_q_rows.append(q_row)
        starts_arr = np.asarray(starts, dtype=np.int64)
        cand_pos, offsets = ragged_gather(
            starts_arr, np.asarray(ends, dtype=np.int64) - starts_arr
        )
        check(
            ctx, csr, np.asarray(rows, dtype=np.int64), starts_arr - 1,
            cand_pos, offsets, owner_csr, np.asarray(seg_q_rows, dtype=np.int64),
            row_adjacency(owner_csr, dodgr.order_count()),
        )

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
    check = make_wedge_check(
        columnar, kernel, callback, per_triangle_compute, meta_r_from_p=True
    )
    if columnar:
        return _make_columnar_pull_handler(dodgr, check, pivots_by_target)
    return _make_legacy_pull_handler(dodgr, check, pivots_by_target)


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
