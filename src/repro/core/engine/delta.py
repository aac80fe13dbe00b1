"""Delta-survey machinery: the incremental engines' handlers and drivers.

:func:`repro.core.incremental.incremental_triangle_survey` surveys exactly
the triangles containing at least one edge of an applied batch
(:class:`~repro.graph.delta.AppliedDelta`), via the wedge decomposition
documented in :mod:`repro.core.incremental`.  Each wedge lands in one of
two candidate streams: the full-check stream is checked against all of
``Adj^m_+(q)``, the new-check stream against the delta's new entries of
it only.  Both handlers are the engine's push adapter over its one
wedge-check step (:mod:`repro.core.engine.driver`); they differ only in
the q adjacency they read (:func:`make_delta_handlers`).  The drivers
build the streams:

* ``legacy`` — the scalar reference: one sized RPC per (wedge, stream)
  carrying the filtered candidate tuples (the parity oracle);
* ``columnar`` — candidate selection as boolean array masks over the CSR
  edge positions, one coalesced RPC per (source rank, destination rank,
  stream) through the push driver's
  :func:`~repro.core.engine.driver.send_by_destination`.  Every replaced
  legacy message is accounted — in legacy send order, through the real
  buffer bank — at its exact serialized size.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Tuple

import numpy as np

from ...graph.delta import AppliedDelta
from ...graph.dodgr import DODGraph
from ...runtime.serialization import uvarint_size_array
from ..intersection import RowAdjacency
from .driver import (
    make_columnar_push_handler,
    make_legacy_push_handler,
    send_by_destination,
)
from .segments import ragged_gather

__all__ = [
    "new_source_vertices",
    "make_delta_handlers",
    "drive_columnar_delta",
    "drive_legacy_delta",
]


def new_source_vertices(delta: AppliedDelta) -> set:
    """Vertices with at least one new *outgoing* directed edge in the DODGr.

    The directed form of a new undirected pair points from the ``<+``-smaller
    endpoint to the larger, so only the smaller endpoint can own a new entry.
    Old-old wedges targeting any other vertex cannot close a delta triangle.
    """
    order_ids = delta.dodgr.order_ids()
    sources = set()
    for u, v, _meta in delta.edges:
        sources.add(u if order_ids[u] < order_ids[v] else v)
    return sources


# ---------------------------------------------------------------------------
# New-entries adjacency views of the destination CSR (columnar engine)
# ---------------------------------------------------------------------------

#: AppliedDelta -> {rank: (RowAdjacency over new entries, new->orig position map)}
_NEW_ADJ_CACHE: "weakref.WeakKeyDictionary[AppliedDelta, Dict[int, Tuple[RowAdjacency, Any]]]" = (
    weakref.WeakKeyDictionary()
)


def _delta_row_adjacency(delta: AppliedDelta, rank: int) -> Tuple[RowAdjacency, Any]:
    """Rank ``rank``'s new-entries-only :class:`RowAdjacency` plus position map.

    Shares the destination CSR's row indexing (row ``i`` is the same vertex)
    but keeps only the new directed edges, so the row kernels can intersect
    old-old candidate streams against "what changed at q" in one call.  The
    second element maps filtered edge positions back to positions in the full
    CSR edge arrays (for metadata lookup).
    """
    per_delta = _NEW_ADJ_CACHE.setdefault(delta, {})
    cached = per_delta.get(rank)
    if cached is None:
        dodgr = delta.dodgr
        csr = dodgr.csr(rank)
        cols = csr.columns()
        mask = delta.edge_mask(rank)
        new_to_orig = np.flatnonzero(mask)
        lengths = cols.indptr[1:] - cols.indptr[:-1]
        edge_rows = np.repeat(np.arange(csr.num_rows, dtype=np.int64), lengths)
        new_counts = np.bincount(edge_rows[mask], minlength=csr.num_rows)
        new_indptr = np.concatenate(
            ([0], np.cumsum(new_counts))
        ).astype(np.int64)
        adjacency = RowAdjacency(
            csr.tgt_ids[new_to_orig], new_indptr, dodgr.order_count()
        )
        cached = (adjacency, new_to_orig)
        per_delta[rank] = cached
    return cached


def make_delta_handlers(columnar: bool, dodgr: DODGraph, delta: AppliedDelta, check):
    """The (full-check, new-check) handler pair of the engine's delta survey.

    Both are push adapters over the wedge check ``check``; the new-check
    handler reads only the delta's new entries of ``Adj^m_+(q)``.
    """
    if columnar:
        return (
            make_columnar_push_handler(dodgr, check),
            make_columnar_push_handler(
                dodgr, check, lambda ctx: _delta_row_adjacency(delta, ctx.rank)
            ),
        )
    # Owner-side new-entry views of the scalar engine, precomputed so
    # mid-drive buffer flushes (which execute handlers) never observe a
    # partially built cache.  The columnar engine derives its filtered
    # RowAdjacency from the edge masks instead.
    new_adj_by_rank = [delta.new_adjacency(r) for r in range(dodgr.world.nranks)]
    return (
        make_legacy_push_handler(dodgr, check),
        make_legacy_push_handler(
            dodgr,
            check,
            lambda ctx, q: [
                entry for entry, _pos in new_adj_by_rank[ctx.rank].get(q, ())
            ],
        ),
    )


# ---------------------------------------------------------------------------
# Columnar driver
# ---------------------------------------------------------------------------


def _sort_wedge_groups(qpos, cand):
    """Group parallel (wedge qpos, candidate pos) pairs by wedge.

    Returns ``(wedge_qpos, counts, flat_cand)``: the distinct wedges in
    ascending qpos order, their candidate counts, and the candidate
    positions concatenated per wedge (ascending within a wedge) — the
    legacy per-wedge message layout.
    """
    order = np.lexsort((cand, qpos))
    qpos_sorted = qpos[order]
    cand_sorted = cand[order]
    wedge_qpos, counts = np.unique(qpos_sorted, return_counts=True)
    return wedge_qpos, counts, cand_sorted


def _delta_inverted_index(csr):
    """The rank's target-position index: edge positions sorted by target id.

    ``(sorted target ids, their edge positions, row of every edge)`` — the
    in-adjacency view the old-old-new join probes to find every local pivot
    row holding a given target.  Built once per CSR snapshot and cached on
    the snapshot's ``row_adj_cache``-style slot (the CSR is immutable).
    """
    cached = csr._delta_inv_index
    if cached is None:
        cols = csr.columns()
        lengths = cols.indptr[1:] - cols.indptr[:-1]
        row_of_edge = np.repeat(np.arange(csr.num_rows, dtype=np.int64), lengths)
        inv_order = np.argsort(csr.tgt_ids, kind="stable")
        cached = (csr.tgt_ids[inv_order], inv_order, row_of_edge)
        csr._delta_inv_index = cached
    return cached


def _positions_of_ids(inv_ids, inv_pos, ids):
    """Ragged lookup: for every id, the edge positions whose target is the id.

    Returns ``(owner, positions)`` where ``positions`` concatenates each
    id's edge positions and ``owner[i]`` is the index into ``ids`` that
    produced ``positions[i]``.
    """
    lo = np.searchsorted(inv_ids, ids, side="left")
    hi = np.searchsorted(inv_ids, ids, side="right")
    counts = hi - lo
    gather, _offsets = ragged_gather(lo, counts)
    owner = np.repeat(np.arange(ids.size, dtype=np.int64), counts)
    return owner, inv_pos[gather]


def drive_columnar_delta(
    ctx,
    dodgr: DODGraph,
    delta: AppliedDelta,
    h_full,
    h_new,
    overhead_full: int,
    overhead_new: int,
) -> None:
    """Array-native, delta-proportional driver of one rank's candidate streams.

    Never expands the rank's full wedge stream; instead it assembles exactly
    the candidates the legacy engine would send, from the new-edge positions
    outward:

    * wedges whose q edge is new contribute their whole candidate suffix
      (full-check stream);
    * every new edge position also joins, as a *candidate*, each earlier
      old-q wedge of its pivot row (full-check stream);
    * every new directed pair (q, r) is joined against the rank's inverted
      target index to find the pivot rows holding both endpoints — the
      old-old wedges it closes (new-check stream).

    The three constructions are disjoint and exhaustive, so the messages
    (and their exact serialized sizes, accounted in legacy send order —
    ascending wedge position, full before new) replay the scalar engine
    bit for bit; one batched RPC then flies per (destination rank, stream).
    """
    csr = dodgr.csr(ctx)
    if csr.num_edges == 0:
        return
    cols = csr.columns()
    indptr = cols.indptr
    mask = delta.edge_mask(ctx.rank)
    new_pos = np.flatnonzero(mask)
    inv_ids, inv_pos, row_of_edge = _delta_inverted_index(csr)

    # --- Full-check stream, part 1: q-new wedges carry their whole suffix.
    rows_a = row_of_edge[new_pos]
    suffix_len = indptr[rows_a + 1] - new_pos - 1
    keep = suffix_len > 0
    qpos_a1 = new_pos[keep]
    len_a1 = suffix_len[keep]
    cand_a1, _off = ragged_gather(qpos_a1 + 1, len_a1)
    wedge_a1 = np.repeat(qpos_a1, len_a1)

    # --- Full-check stream, part 2: each new position is a candidate of
    # every earlier old-q wedge in its row.
    lo_j = indptr[rows_a]
    before = new_pos - lo_j
    wedge_a2, _off = ragged_gather(lo_j, before)
    cand_a2 = np.repeat(new_pos, before)
    old_q = ~mask[wedge_a2]
    wedge_a2 = wedge_a2[old_q]
    cand_a2 = cand_a2[old_q]

    full_qpos, full_counts, full_cand = _sort_wedge_groups(
        np.concatenate((wedge_a1, wedge_a2)), np.concatenate((cand_a1, cand_a2))
    )

    # --- New-check stream: old-old wedges closed by a new (q, r) pair,
    # found by joining both endpoints against the inverted target index.
    stride = np.int64(dodgr.order_count())
    new_keys = delta.directed_edge_keys()
    pair_q, pos_q = _positions_of_ids(inv_ids, inv_pos, new_keys // stride)
    pair_r, pos_r = _positions_of_ids(inv_ids, inv_pos, new_keys % stride)
    # Join on (pair, pivot row): a row holds a target at most once, so the
    # composite keys are unique per side.
    comp_q = pair_q * np.int64(csr.num_rows) + row_of_edge[pos_q]
    comp_r = pair_r * np.int64(csr.num_rows) + row_of_edge[pos_r]
    oq = np.argsort(comp_q)
    comp_q, pos_q = comp_q[oq], pos_q[oq]
    orr = np.argsort(comp_r)
    comp_r, pos_r = comp_r[orr], pos_r[orr]
    at = np.searchsorted(comp_q, comp_r)
    clipped = np.minimum(at, max(comp_q.size - 1, 0))
    hit = (
        (at < comp_q.size) & (comp_q[clipped] == comp_r)
        if comp_q.size
        else np.zeros(comp_r.size, dtype=bool)
    )
    wedge_b = pos_q[clipped[hit]] if comp_q.size else np.empty(0, dtype=np.int64)
    cand_b = pos_r[hit]
    both_old = ~mask[wedge_b] & ~mask[cand_b]
    new_qpos, new_counts, new_cand = _sort_wedge_groups(
        wedge_b[both_old], cand_b[both_old]
    )

    streams = []
    for qpos, counts, cand, overhead in (
        (full_qpos, full_counts, full_cand, overhead_full),
        (new_qpos, new_counts, new_cand, overhead_new),
    ):
        if qpos.size == 0:
            streams.append(None)
            continue
        cand_bytes = cols.cand_cumsum[cand + 1] - cols.cand_cumsum[cand]
        byte_cumsum = np.concatenate(([0], np.cumsum(cand_bytes)))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        sizes = (
            overhead
            + cols.row_wire[row_of_edge[qpos]]
            + cols.tgt_wire[qpos]
            + uvarint_size_array(counts)
            + byte_cumsum[offsets[1:]]
            - byte_cumsum[offsets[:-1]]
        )
        streams.append(
            {
                "qpos": qpos,
                "rows": row_of_edge[qpos],
                "counts": counts,
                "cand": cand,
                "sizes": sizes,
                "dests": cols.tgt_owner[qpos],
            }
        )

    live = [s for s in streams if s is not None]
    if not live:
        return
    # Account every replaced legacy message in legacy send order: ascending
    # wedge position (row-major), the full-check message before the
    # new-check message of the same wedge.
    acc_qpos = np.concatenate([s["qpos"] for s in live])
    acc_kind = np.concatenate(
        [np.full(s["qpos"].size, i, dtype=np.int64) for i, s in enumerate(streams) if s]
    )
    order = np.lexsort((acc_kind, acc_qpos))
    acc_dests = np.concatenate([s["dests"] for s in live])[order]
    acc_sizes = np.concatenate([s["sizes"] for s in live])[order]
    ctx.account_rpc_bulk(acc_dests, acc_sizes)

    for stream, handler in zip(streams, (h_full, h_new)):
        if stream is not None:
            send_by_destination(
                ctx, dodgr, csr, handler, stream["dests"], stream["sizes"],
                stream["rows"], stream["qpos"], stream["counts"], cand=stream["cand"],
            )


# ---------------------------------------------------------------------------
# Legacy (scalar reference) driver
# ---------------------------------------------------------------------------


def drive_legacy_delta(
    ctx,
    dodgr: DODGraph,
    delta: AppliedDelta,
    h_full,
    h_new,
    new_sources: set,
) -> None:
    """Per-wedge scalar drive of one rank's delta candidate streams."""
    store = dodgr.local_store(ctx)
    for p, record in store.items():
        adjacency = record["adj"]
        if len(adjacency) < 2:
            continue
        meta_p = record["meta"]
        new_flags = [delta.is_new(p, entry[0]) for entry in adjacency]
        # suffix_new[i]: any new flag at position >= i (one reverse
        # pass; keeps quiet high-degree rows O(d), not O(d^2)).
        suffix_new = [False] * (len(adjacency) + 1)
        for j in range(len(adjacency) - 1, -1, -1):
            suffix_new[j] = suffix_new[j + 1] or new_flags[j]
        for i in range(len(adjacency) - 1):
            q, _d_q, meta_pq, _meta_q = adjacency[i]
            q_new = new_flags[i]
            q_has_new_out = q in new_sources
            if not q_new and not q_has_new_out and not suffix_new[i + 1]:
                continue
            full_c: List[tuple] = []
            new_c: List[tuple] = []
            for j in range(i + 1, len(adjacency)):
                entry = adjacency[j]
                candidate = (entry[0], entry[1], entry[2])
                if q_new or new_flags[j]:
                    full_c.append(candidate)
                elif q_has_new_out and delta.is_new(q, entry[0]):
                    new_c.append(candidate)
            if full_c:
                ctx.async_call_sized(
                    dodgr.owner(q), h_full, q, p, meta_p, meta_pq, full_c
                )
            if new_c:
                ctx.async_call_sized(
                    dodgr.owner(q), h_new, q, p, meta_p, meta_pq, new_c
                )
