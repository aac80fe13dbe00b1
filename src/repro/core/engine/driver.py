"""Shared driver core: one wedge-check step per engine, and the push drivers.

TriPoll's survey has one inner step: intersect p's adjacency suffix after
q with ``Adj^m_+(q)`` and hand every closing triangle Δpqr, with its six
metadata pieces, to the callback.  This module writes that step once per
engine:

* :func:`make_legacy_wedge_check` — one scalar ``intersect`` call per
  wedge, one :class:`~repro.graph.metadata.TriangleMetadata` per triangle;
* :func:`make_columnar_wedge_check` — a ragged candidate stream against
  per-segment q rows in one row-kernel call, the triangles delivered to
  ``callback_batch`` as one :class:`~repro.graph.metadata.TriangleBatch`
  (:func:`csr_triangle_batch`) or to the scalar callback one at a time.

The RPC handlers — push here, pull in :mod:`~repro.core.engine.pull`,
delta full-check and new-check in :mod:`~repro.core.engine.delta` — are
thin adapters over the step: they only say where the candidate stream
and the q adjacency come from.

The **drivers** walk one rank's pivots and generate its candidate stream
at the engine's granularity — one RPC per wedge (legacy) or per (source
rank, destination rank) pair (columnar, :func:`send_by_destination`) —
while accounting every *replaced* legacy message at its exact serialized
size (``account_rpc``/``account_rpc_bulk`` against the real buffer bank),
which is what keeps Table 4 byte-identical across engines.

The facades :func:`make_push_intersect_handler` and :func:`drive_push` are
what the engine runners call; they pick the engine's implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...graph.dodgr import CSRAdjacency, DODGraph, entry_key
from ...graph.ooc import stage_send_columns
from ...graph.metadata import TriangleBatch, TriangleMetadata
from ...runtime.serialization import serialized_size, uvarint_size_array
from ..intersection import INTERSECTION_KERNELS, ROW_KERNELS, RowAdjacency
from .request import TriangleCallback
from .segments import ragged_gather

__all__ = [
    "row_adjacency",
    "legacy_push_payload_overhead",
    "resolve_batch_callback",
    "make_legacy_wedge_check",
    "csr_triangle_batch",
    "make_columnar_wedge_check",
    "make_wedge_check",
    "make_legacy_push_handler",
    "make_columnar_push_handler",
    "make_push_intersect_handler",
    "drive_legacy_push",
    "send_by_destination",
    "drive_columnar_push",
    "drive_push",
]


def resolve_batch_callback(callback: Optional["TriangleCallback"]):
    """The batch counterpart of ``callback``, or None for scalar-only callbacks.

    Two spellings engage columnar delivery: a ``callback_batch`` attribute on
    the callable itself, or — the reducer convention of
    :mod:`repro.core.callbacks` — passing a bound ``reducer.callback`` whose
    owner also defines ``callback_batch``.  Anything else (plain lambdas,
    wrapped callables) runs through the scalar fallback, one
    :class:`~repro.graph.metadata.TriangleMetadata` at a time.

    A subclass that overrides ``callback`` without overriding
    ``callback_batch`` does NOT engage the inherited batch method: the two
    entry points are a contract pair, and silently running the base class's
    batch aggregation against a specialised scalar callback would change
    results.  The walk below finds whichever of the pair is defined closest
    to the instance's class; a scalar override at or below the batch
    definition forces the scalar fallback.
    """
    if callback is None:
        return None
    batch = getattr(callback, "callback_batch", None)
    if callable(batch):
        return batch
    owner = getattr(callback, "__self__", None)
    if owner is not None and getattr(owner, "callback", None) == callback:
        for klass in type(owner).__mro__:
            if "callback_batch" in klass.__dict__:
                batch = getattr(owner, "callback_batch", None)
                return batch if callable(batch) else None
            if "callback" in klass.__dict__:
                return None
    return None


def row_adjacency(csr: CSRAdjacency, order_count: int) -> RowAdjacency:
    """The CSR's cached :class:`RowAdjacency` view for the row kernels."""
    cached = csr.row_adj_cache
    if cached is None:
        cached = RowAdjacency(csr.tgt_ids, csr.columns().indptr, order_count)
        csr.row_adj_cache = cached
    return cached


def legacy_push_payload_overhead(handler_id: int) -> int:
    """Fixed serialized bytes of a legacy push RPC around its variable parts.

    A legacy wedge message is ``dumps((handler_id, [q, p, meta_p, meta_pq,
    candidates]))``: 2 framing bytes for the outer pair, the handler id, 2
    framing bytes for the argument list, and 1 tag byte for the candidate
    list (whose length prefix and entries are accounted per wedge).
    """
    return 5 + serialized_size(handler_id)


# ---------------------------------------------------------------------------
# The wedge-check step, once per engine
# ---------------------------------------------------------------------------


def make_legacy_wedge_check(
    intersect, callback: Optional["TriangleCallback"], per_triangle_compute: int
):
    """The scalar engine's wedge check: one ``intersect`` call per wedge.

    ``check(ctx, p, q, meta_p, meta_q, meta_pq, suffix, adjacency)``
    intersects p's ``suffix`` after q (the candidates) with q's
    ``adjacency`` row, in that argument order: the comparison counts of
    the asymmetric kernels depend on it.  ``adjacency`` is None when this
    rank holds no record of q; the wedges still count as checked.  meta(r)
    crosses the wire with neither list, so it is read from whichever one
    is local — the list whose entries keep their fourth field (q's row on
    a push, p's suffix on a pull).
    """

    def check(ctx, p, q, meta_p, meta_q, meta_pq, suffix, adjacency) -> None:
        ctx.add_counter("wedge_checks", len(suffix))
        if adjacency is None:
            return
        result = intersect(suffix, adjacency, entry_key, entry_key)
        ctx.add_compute(result.comparisons)
        for cand_idx, adj_idx in result.matches:
            ctx.add_counter("triangles_found", 1)
            if callback is not None:
                ctx.add_compute(per_triangle_compute)
                candidate = suffix[cand_idx]
                entry = adjacency[adj_idx]
                callback(
                    ctx,
                    TriangleMetadata(
                        p=p,
                        q=q,
                        r=candidate[0],
                        meta_p=meta_p,
                        meta_q=meta_q,
                        meta_r=entry[3] if len(entry) == 4 else candidate[3],
                        meta_pq=meta_pq,
                        meta_pr=candidate[2],
                        meta_qr=entry[2],
                    ),
                )

    return check


def csr_triangle_batch(
    p_csr: CSRAdjacency,
    p_rows,
    pq_pos,
    pr_pos,
    q_csr: CSRAdjacency,
    q_rows,
    qr_pos,
    meta_r_from_p: bool,
) -> TriangleBatch:
    """Triangles located by CSR positions, as a lazy :class:`TriangleBatch`.

    Triangle ``i`` is p = row ``p_rows[i]`` and q = row ``q_rows[i]``;
    edges (p, q) and (p, r) sit at ``pq_pos[i]``/``pr_pos[i]`` of
    ``p_csr``'s edge arrays, edge (q, r) at ``qr_pos[i]`` of ``q_csr``'s.
    meta(r) is read from ``p_csr``'s (p, r) entry when ``meta_r_from_p``,
    else from ``q_csr``'s (q, r) entry.  Only the per-match index lists
    are materialised eagerly; each column decodes from the CSR entry
    tuples on first read.
    """
    p_rows = p_rows.tolist()
    pq_pos = pq_pos.tolist()
    pr_pos = pr_pos.tolist()
    q_rows = q_rows.tolist()
    qr_pos = qr_pos.tolist()
    p_entries = p_csr.entries
    q_entries = q_csr.entries
    r_entries, r_pos = (p_entries, pr_pos) if meta_r_from_p else (q_entries, qr_pos)
    builders = {
        "p": lambda: [p_csr.row_vertices[row] for row in p_rows],
        "meta_p": lambda: [p_csr.row_meta[row] for row in p_rows],
        "q": lambda: [q_csr.row_vertices[row] for row in q_rows],
        "meta_q": lambda: [q_csr.row_meta[row] for row in q_rows],
        "meta_pq": lambda: [p_entries[pos][2] for pos in pq_pos],
        "r": lambda: [p_entries[pos][0] for pos in pr_pos],
        "meta_pr": lambda: [p_entries[pos][2] for pos in pr_pos],
        "meta_qr": lambda: [q_entries[pos][2] for pos in qr_pos],
        "meta_r": lambda: [r_entries[pos][3] for pos in r_pos],
    }
    return TriangleBatch(len(pr_pos), builders)


def make_columnar_wedge_check(
    row_kernel,
    callback: Optional["TriangleCallback"],
    per_triangle_compute: int,
    meta_r_from_p: bool = False,
):
    """The columnar engine's wedge check: a whole candidate stream per call.

    ``check(ctx, p_csr, p_rows, pq_pos, cand_pos, offsets, q_csr, q_rows,
    adjacency, adj_to_csr=None)`` checks segment ``s`` — p = row
    ``p_rows[s]`` of ``p_csr``, q at edge ``pq_pos[s]``, candidates at
    ``p_csr`` edge positions ``cand_pos[offsets[s]:offsets[s + 1]]`` —
    against row ``q_rows[s]`` of ``adjacency``, in one row-kernel call.
    ``adjacency`` indexes its rows like ``q_csr``; ``adj_to_csr`` maps its
    edge positions to ``q_csr``'s when it holds only part of each row
    (None: the whole rows, same positions).  ``meta_r_from_p`` says which
    CSR is local (see :func:`csr_triangle_batch`).
    """
    batch_callback = resolve_batch_callback(callback)

    def check(
        ctx, p_csr, p_rows, pq_pos, cand_pos, offsets, q_csr, q_rows, adjacency,
        adj_to_csr=None,
    ) -> None:
        ctx.add_counter("wedge_checks", len(cand_pos))
        result = row_kernel(p_csr.tgt_ids[cand_pos], offsets, q_rows, adjacency)
        ctx.add_compute(int(result.comparisons))
        matches = len(result)
        if not matches:
            return
        ctx.add_counter("triangles_found", matches)
        if callback is None:
            return
        ctx.add_compute(per_triangle_compute * matches)
        seg = result.seg
        qr_pos = result.adj_pos if adj_to_csr is None else adj_to_csr[result.adj_pos]
        batch = csr_triangle_batch(
            p_csr, p_rows[seg], pq_pos[seg], cand_pos[result.cand_pos],
            q_csr, q_rows[seg], qr_pos, meta_r_from_p,
        )
        if batch_callback is not None:
            batch_callback(ctx, batch)
        else:
            for tri in batch.triangles():
                callback(ctx, tri)

    return check


def make_wedge_check(
    columnar: bool,
    kernel: str,
    callback: Optional["TriangleCallback"],
    per_triangle_compute: int,
    meta_r_from_p: bool = False,
):
    """The wedge check of the columnar or legacy engine for kernel ``kernel``.

    ``meta_r_from_p`` only concerns the columnar step; the legacy step
    reads meta(r) from whichever list carries it.
    """
    if columnar:
        return make_columnar_wedge_check(
            ROW_KERNELS[kernel], callback, per_triangle_compute, meta_r_from_p
        )
    return make_legacy_wedge_check(
        INTERSECTION_KERNELS[kernel], callback, per_triangle_compute
    )


# ---------------------------------------------------------------------------
# Push adapters: the candidates arrive, Adj^m_+(q) is local
# ---------------------------------------------------------------------------


def make_legacy_push_handler(dodgr: DODGraph, check, q_row=None):
    """Owner-side handler of one per-wedge candidate push (runs on Rank(q)).

    ``q_row(ctx, q)`` picks the q adjacency the candidates are checked
    against (default: all of ``Adj^m_+(q)``).
    """

    def _intersect_handler(ctx, q, p, meta_p, meta_pq, candidates) -> None:
        record = dodgr.local_store(ctx).get(q)
        meta_q = adjacency = None
        if record is not None:
            meta_q = record["meta"]
            adjacency = record["adj"] if q_row is None else q_row(ctx, q)
        check(ctx, p, q, meta_p, meta_q, meta_pq, candidates, adjacency)

    return _intersect_handler


def make_columnar_push_handler(dodgr: DODGraph, check, q_adjacency=None):
    """Owner-side handler of one coalesced candidate push (runs on Rank(q)).

    One RPC per (source rank, destination rank) carries the wedges as two
    index arrays into the source's :class:`CSRAdjacency` — pivot rows and
    q positions.  A full push sends whole suffixes, which the handler
    expands itself; a filtered stream (the delta engine's) also ships its
    candidate positions and their per-wedge offsets.  ``q_adjacency(ctx)``
    returns the ``(RowAdjacency, adj_to_csr)`` pair to check against
    (default: the whole local CSR rows).
    """

    def _columnar_intersect_handler(
        ctx, src_csr: CSRAdjacency, rows, qpositions, cand_pos=None, offsets=None
    ) -> None:
        if cand_pos is None:
            starts = qpositions + 1
            cand_pos, offsets = ragged_gather(
                starts, src_csr.columns().indptr[rows + 1] - starts
            )
        dest_csr = dodgr.csr(ctx)
        if q_adjacency is None:
            adjacency, adj_to_csr = row_adjacency(dest_csr, dodgr.order_count()), None
        else:
            adjacency, adj_to_csr = q_adjacency(ctx)
        q_rows = dodgr.rows_by_order_id()[src_csr.tgt_ids[qpositions]]
        check(
            ctx, src_csr, rows, qpositions, cand_pos, offsets,
            dest_csr, q_rows, adjacency, adj_to_csr,
        )

    return _columnar_intersect_handler


# ---------------------------------------------------------------------------
# Push drivers
# ---------------------------------------------------------------------------


def drive_legacy_push(ctx, dodgr: DODGraph, handler, allowed=None) -> None:
    """Walk one rank's pivots, one sized RPC per wedge (the scalar reference).

    ``allowed`` restricts targets (the Push-Pull push phase skips targets
    that will be pulled); ``None`` pushes to every target.
    """
    store = dodgr.local_store(ctx)
    for p, record in store.items():
        adjacency = record["adj"]
        if len(adjacency) < 2:
            continue
        meta_p = record["meta"]
        for i in range(len(adjacency) - 1):
            q, _d_q, meta_pq, _meta_q = adjacency[i]
            if allowed is not None and q not in allowed:
                continue
            # Candidate entries drop meta(r): Rank(q) already stores
            # meta(r) in Adj^m_+(q) whenever Δpqr exists (Section 4.3).
            candidates = [
                (entry[0], entry[1], entry[2]) for entry in adjacency[i + 1 :]
            ]
            # Sized delivery: exact legacy wire accounting, no codec run
            # for what is (in-process) an accounting-only payload.
            ctx.async_call_sized(dodgr.owner(q), handler, q, p, meta_p, meta_pq, candidates)


def send_by_destination(
    ctx, dodgr: DODGraph, csr: CSRAdjacency, handler, dests, sizes,
    rows, qpositions, cand_counts, cand=None,
) -> None:
    """Fire one rank's accounted wedge stream, one batched RPC per destination.

    Wedge ``w`` — pivot row ``rows[w]``, q at ``qpositions[w]`` of ``csr``,
    ``cand_counts[w]`` candidates, replacing a legacy message of
    ``sizes[w]`` bytes bound for rank ``dests[w]`` — ships in stable wedge
    order within its destination.  Each call carries ``(csr, rows,
    qpositions)``, plus, when ``cand`` (the candidate positions, ragged by
    ``cand_counts`` in wedge order) is given, the call's candidate
    positions and their per-wedge offsets.
    """
    order = np.argsort(dests, kind="stable")
    dests_sorted = dests[order]
    unique_dests, group_starts = np.unique(dests_sorted, return_index=True)
    bounds = group_starts.tolist() + [dests_sorted.size]
    rows_sorted = rows[order]
    qpos_sorted = qpositions[order]
    sizes_sorted = sizes[order]
    # Candidate-stream chunking (out-of-core storage): cap the number of
    # candidates any single batched delivery carries, so the owner-side
    # handler's transient arrays stay within the configured memory budget
    # while the spilled CSR columns page in from disk.  Chunks are cut at
    # wedge boundaries in the same stable destination order, so per-dest
    # FIFO delivery, every counter, and the virtual rpc/byte sums are
    # identical to the single-call form (``chunk=None`` — resident storage
    # — reproduces it exactly).
    chunk = dodgr.chunk_candidates()
    cand_offsets = None
    if cand is not None:
        gather, cand_offsets = ragged_gather(
            (np.cumsum(cand_counts) - cand_counts)[order], cand_counts[order]
        )
        cand = cand[gather]
    elif chunk is not None:
        cand_offsets = np.concatenate(([0], np.cumsum(cand_counts[order])))
    if chunk is not None:
        # The payload slices below stay enqueued until the barrier delivers
        # them; staging the sorted columns in the snapshot's disk-backed
        # scratch keeps that retained set out of process memory (the
        # in-memory arrays die when this drive returns).
        rows_sorted, qpos_sorted = stage_send_columns(csr, rows_sorted, qpos_sorted)
    for g, dest in enumerate(unique_dests.tolist()):
        lo, hi = bounds[g], bounds[g + 1]
        start = lo
        while start < hi:
            stop = hi
            if chunk is not None:
                stop = int(
                    np.searchsorted(
                        cand_offsets[1:], cand_offsets[start] + chunk, side="right"
                    )
                )
                stop = min(max(stop, start + 1), hi)  # an oversize wedge still ships
            payload = [rows_sorted[start:stop], qpos_sorted[start:stop]]
            if cand is not None:
                lo_c, hi_c = cand_offsets[start], cand_offsets[stop]
                payload += [cand[lo_c:hi_c], cand_offsets[start : stop + 1] - lo_c]
            ctx.async_call_batched(
                dest,
                handler,
                csr,
                *payload,
                virtual_rpcs=stop - start,
                virtual_bytes=int(sizes_sorted[start:stop].sum()),
            )
            start = stop


def drive_columnar_push(
    ctx,
    dodgr: DODGraph,
    csr: CSRAdjacency,
    handler,
    payload_overhead: int,
    allowed_ids=None,
) -> None:
    """Array-native driver: account and coalesce one rank's candidate pushes.

    Builds the rank's full wedge stream — (pivot row, q position) pairs in
    legacy iteration order — as index arrays, computes every replaced
    message's exact serialized size columnar-wise, accounts the stream
    through :meth:`~repro.runtime.world.RankContext.account_rpc_bulk` (same
    counters and buffer flush boundaries as the per-wedge walk), and fires
    one batched RPC per destination rank.  ``allowed_ids`` restricts targets
    to the given dense order-ids (the Push-Pull push phase); ``None`` pushes
    to every target.
    """
    cols = csr.columns()
    indptr = cols.indptr
    out_degree = indptr[1:] - indptr[:-1]
    wedge_counts = np.where(out_degree >= 2, out_degree - 1, 0)
    total = int(wedge_counts.sum())
    if total == 0:
        return
    rows = np.repeat(np.arange(csr.num_rows, dtype=np.int64), wedge_counts)
    qpositions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(wedge_counts) - wedge_counts, wedge_counts)
        + np.repeat(indptr[:-1], wedge_counts)
    )
    if allowed_ids is not None:
        mask = np.isin(csr.tgt_ids[qpositions], allowed_ids)
        rows = rows[mask]
        qpositions = qpositions[mask]
        if rows.size == 0:
            return
    row_end = indptr[rows + 1]
    cand_counts = row_end - 1 - qpositions
    dests = cols.tgt_owner[qpositions]
    sizes = (
        payload_overhead
        + cols.row_wire[rows]
        + cols.tgt_wire[qpositions]
        + uvarint_size_array(cand_counts)
        + cols.cand_cumsum[row_end]
        - cols.cand_cumsum[qpositions + 1]
    )
    ctx.account_rpc_bulk(dests, sizes)
    send_by_destination(
        ctx, dodgr, csr, handler, dests, sizes, rows, qpositions, cand_counts
    )


# ---------------------------------------------------------------------------
# Facades: what the engine runners actually call
# ---------------------------------------------------------------------------


def make_push_intersect_handler(
    columnar: bool,
    dodgr: DODGraph,
    kernel: str,
    callback: Optional["TriangleCallback"],
    per_triangle_compute: int,
):
    """Build the push-phase intersect handler of the columnar or legacy engine."""
    check = make_wedge_check(columnar, kernel, callback, per_triangle_compute)
    if columnar:
        return make_columnar_push_handler(dodgr, check)
    return make_legacy_push_handler(dodgr, check)


def drive_push(columnar: bool, ctx, dodgr: DODGraph, handler, allowed=None) -> None:
    """Run one rank's push drive at the engine's granularity.

    ``allowed`` is the rank's push-target set (Push-Pull) or ``None`` for
    everything (Push-Only); the columnar driver converts it to dense
    order-ids itself.
    """
    if not columnar:
        drive_legacy_push(ctx, dodgr, handler, allowed=allowed)
        return
    allowed_ids = None
    if allowed is not None:
        order_ids = dodgr.order_ids()
        allowed_ids = np.fromiter(
            (order_ids[q] for q in allowed), dtype=np.int64, count=len(allowed)
        )
    drive_columnar_push(
        ctx,
        dodgr,
        dodgr.csr(ctx),
        handler,
        legacy_push_payload_overhead(handler.handler_id),
        allowed_ids=allowed_ids,
    )
