"""Incremental triangle surveys: delta-only enumeration over edge batches.

A full survey re-enumerates every triangle of the graph.  When a batch of
edges arrives on an already-surveyed graph, only the triangles *containing at
least one new edge* are unseen — on a large graph with a small batch that is
a vanishing fraction of the wedge work.  This module surveys exactly those
delta triangles, each exactly once, reusing the engine layer's shared driver
core (:mod:`repro.core.engine`), the columnar row kernels and the
:class:`~repro.graph.metadata.TriangleBatch` delivery path.

Delta wedge decomposition
-------------------------

The push algorithm identifies each triangle Δpqr (``p <+ q <+ r``) through
its unique wedge: pivot ``p`` pushes candidate ``r`` at the owner of ``q``.
A triangle is a *delta* triangle when at least one of its three edges is
new.  The wedge sees the (p, q) and (p, r) edges on the pivot side and the
(q, r) edge on the owner side, which splits every candidate into exactly one
of three outcomes:

* ``new(p,q) or new(p,r)`` — the candidate is checked against the **full**
  ``Adj^m_+(q)``: any match is a delta triangle (new-new-new, new-new-old
  and most new-old-old cases);
* otherwise, if the directed pair ``(q, r)`` is itself a new edge — the
  candidate closes the old-old-new case.  The pivot holds both endpoints of
  the closing pair in its own adjacency and the applied batch
  (:class:`~repro.graph.delta.AppliedDelta`) is global knowledge (in a real
  deployment it was just broadcast through the ingest path), so this test
  runs *sender-side*; only the closing candidates are shipped, and the owner
  of ``q`` resolves them against its **new entries only** for the (q, r)
  metadata;
* otherwise the candidate is dropped: no edge of any triangle it could
  close is new.

Each delta triangle is reached by exactly one candidate in exactly one of
the first two streams, so the enumeration is exact — no misses, no double
counting.

Engines and accounting
----------------------

The ``engine=`` selector resolves through the same request resolver as the
full surveys (:func:`~repro.core.engine.resolve_request`), and the delta
survey runs as a one-phase :class:`~repro.core.engine.SurveyProgram`
through :func:`~repro.core.engine.execute_program`.  Delta surveys run on
the simulated backend over resident storage only: a ``backend="process"``
or ``storage="mmap"`` selector is rejected before anything runs.  Each
engine has its delta implementation in :mod:`repro.core.engine.delta`:

* ``legacy`` — the scalar reference: one sized RPC per (wedge, stream)
  carrying the filtered candidate tuples, intersected per message with the
  scalar kernels.  This is the parity oracle.
* ``columnar`` (the default) — the fast path: candidate selection as boolean array masks
  over the CSR edge positions (via
  :meth:`~repro.graph.delta.AppliedDelta.edge_mask`), one coalesced RPC per
  (source rank, destination rank, stream), intersection through
  :data:`~repro.core.intersection.ROW_KERNELS`, and triangles delivered as
  lazy :class:`~repro.graph.metadata.TriangleBatch` columns to
  ``callback_batch`` reducers.  Every replaced legacy message is accounted —
  in legacy send order, through the real buffer bank — at its exact
  serialized size, so the two engines report identical communication
  counters (same bound as the full engines when callbacks send RPCs).

On the first batch of a stream every edge is new, every candidate lands in
the full-check stream, and the incremental survey degenerates to exactly the
full push survey — counters included (pinned in
``tests/core/test_incremental.py``).

Replay parity
-------------

Because ingestion is first-write-wins (edge and vertex metadata never
mutate), replaying a batch schedule through incremental surveys and merging
the per-batch reducer snapshots is bit-identical to a full recompute on the
merged graph at every step, for every reducer whose keys do not depend on
the p/q/r *role order* (all seven stock reducers except
:class:`~repro.core.callbacks.DegreeTripleSurvey`, whose triple is
role-ordered and whose degree decoration is itself a snapshot in time).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..graph.delta import AppliedDelta, DeltaBuffer
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..graph.ooc import resolve_storage
from ..runtime.backend import UnsupportedBackendError
from ..runtime.faults import RankCrashError, fault_plan_digest
from .approximate import survivor_triangle_estimate
from .engine import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    DELTA_PUSH_PHASE,
    EngineSpec,
    SurveyProgram,
    SurveyRequest,
    SurveyResult,
    TriangleCallback,
    execute_program,
    resolve_request,
)
from .engine.checkpoint import (
    CheckpointPolicy,
    StaleCheckpointError,
    StreamingCheckpoint,
)
from .engine.delta import (
    drive_columnar_delta,
    drive_legacy_delta,
    make_delta_handlers,
    new_source_vertices,
)
from .engine.driver import legacy_push_payload_overhead, make_wedge_check
from .results import SurveyReport

__all__ = [
    "incremental_triangle_survey",
    "DELTA_PUSH_PHASE",
    "StreamingSurvey",
    "StreamingStep",
]


def _resolve_delta_request(engine, **fields: Any) -> Tuple[EngineSpec, SurveyRequest]:
    """:func:`resolve_request` plus the axes delta surveys do not support."""
    spec, request = resolve_request(engine, algorithm="push", **fields)
    if request.backend != "simulated":
        raise UnsupportedBackendError(
            "incremental (delta) surveys run on backend='simulated' only.  "
            "Run full surveys on backend='process' and delta batches on the "
            "default backend."
        )
    if resolve_storage(request.storage) == "mmap":
        raise ValueError(
            "storage='mmap' is not supported on incremental (delta) surveys: "
            "run them on resident storage (full surveys accept mmap)"
        )
    return spec, request


def _run_delta_survey(
    request: SurveyRequest, spec: EngineSpec, delta: AppliedDelta
) -> SurveyResult:
    """Run the delta survey of ``delta`` as a one-phase :class:`SurveyProgram`."""
    dodgr = request.dodgr
    world = dodgr.world
    callback = request.callback
    per_triangle_compute = request.per_triangle_compute()
    if request.reset_stats:
        world.reset_stats()

    # Handler registration order is fixed (full first, new second) in both
    # engines, so handler ids — and every accounted message size — match.
    check = make_wedge_check(
        spec.columnar, request.kernel, callback, per_triangle_compute
    )
    full_handler, new_handler = make_delta_handlers(spec.columnar, dodgr, delta, check)
    h_full = world.register_handler(full_handler)
    h_new = world.register_handler(new_handler)
    if spec.columnar:
        overhead_full = legacy_push_payload_overhead(h_full.handler_id)
        overhead_new = legacy_push_payload_overhead(h_new.handler_id)

        def drive(ctx) -> None:
            drive_columnar_delta(
                ctx, dodgr, delta, h_full, h_new, overhead_full, overhead_new
            )

    else:
        new_sources = new_source_vertices(delta)

        def drive(ctx) -> None:
            drive_legacy_delta(ctx, dodgr, delta, h_full, h_new, new_sources)

    program = SurveyProgram(
        algorithm="incremental_push",
        request=request,
        spec=spec,
        phases=[(request.phase_name, drive)],
    )
    try:
        return execute_program(program)
    finally:
        # Per-batch closures capture the rebuilt DODGr and the delta; release
        # their registry slots (ids stay allocated, so later accounted
        # message sizes are unchanged) or a long stream pins every rebuild.
        world.registry.release(h_full)
        world.registry.release(h_new)


def incremental_triangle_survey(
    dodgr: DODGraph,
    delta: AppliedDelta,
    callback: Optional[TriangleCallback] = None,
    kernel: str = "merge_path",
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
    phase_name: str = DELTA_PUSH_PHASE,
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
    engine=None,
) -> SurveyReport:
    """Survey exactly the triangles that contain at least one edge of ``delta``.

    Parameters
    ----------
    dodgr:
        The rebuilt degree-ordered graph, i.e. ``delta.dodgr``.
    delta:
        The applied edge batch (:meth:`~repro.graph.delta.DeltaBuffer.apply`).
    callback:
        ``callback(ctx, tri)`` executed once per *delta* triangle on the rank
        where it is identified; reducers with a ``callback_batch``
        counterpart receive columnar :class:`TriangleBatch` deliveries under
        the columnar engine.  ``None`` counts delta triangles only.
    kernel:
        Intersection kernel name (``merge_path``, ``binary_search``,
        ``hash``).
    engine:
        Engine selector (name or :class:`~repro.core.engine.EngineConfig`)
        resolved by :func:`~repro.core.engine.resolve_request`:
        ``"columnar"`` (the default) or ``"legacy"`` (scalar reference).
        Both produce identical triangles, reducer deliveries and
        communication counters — see the module docstring.  A
        ``backend="process"`` selector raises
        :class:`~repro.runtime.backend.UnsupportedBackendError` and
        ``storage="mmap"`` raises ``ValueError``, before anything runs.

    Remaining parameters match :func:`~repro.core.survey.triangle_survey_push`.
    Returns a :class:`~repro.core.results.SurveyReport` whose ``triangles``/
    ``wedge_checks`` count only the delta work of this batch.
    """
    if delta.dodgr is not dodgr:
        raise ValueError("delta was applied against a different DODGraph")
    spec, request = _resolve_delta_request(
        engine,
        dodgr=dodgr,
        callback=callback,
        kernel=kernel,
        reset_stats=reset_stats,
        graph_name=graph_name,
        phase_name=phase_name,
        callback_compute_units=callback_compute_units,
    )
    return _run_delta_survey(request, spec, delta).report


# ---------------------------------------------------------------------------
# Streaming driver: batches in, windowed reducer results out, crashes survived
# ---------------------------------------------------------------------------


class StreamingStep:
    """Result of ingesting one edge batch through a :class:`StreamingSurvey`.

    ``snapshot`` is the batch's own reducer output (the *panel*),
    ``window`` the merge of the panels currently inside the sliding window,
    and ``cumulative`` the merge of every panel since the stream started —
    which equals a full recompute's reducer output at this step for
    role-order-invariant reducers (see the module docstring).

    The recovery story rides along: how many rank crashes the step
    restarted through, how many checkpointed batches it replayed, and —
    when the step degraded on permanent rank loss — the survivor estimate
    (``snapshot``, ``window`` and ``cumulative`` are then ``None``).  The
    report's counters cover *all* work the step's surveys did, crashed
    attempts and replays included: the honest recovery overhead.
    """

    __slots__ = (
        "batch_index",
        "new_edges",
        "report",
        "snapshot",
        "window",
        "cumulative",
        "retired",
        "host_seconds",
        "restarts",
        "replayed_batches",
        "degraded",
        "estimate",
    )

    def __init__(
        self,
        batch_index,
        new_edges,
        report,
        snapshot,
        window,
        cumulative,
        retired,
        host_seconds=0.0,
        restarts=0,
        replayed_batches=0,
        degraded=False,
        estimate=None,
    ) -> None:
        self.batch_index = batch_index
        self.new_edges = new_edges
        self.report = report
        self.snapshot = snapshot
        self.window = window
        self.cumulative = cumulative
        #: the panel that left the window this step (None while it fills up)
        self.retired = retired
        #: wall-clock seconds of the whole step (merge + rebuild + delta survey)
        self.host_seconds = host_seconds
        #: recoverable rank crashes this step restarted through
        self.restarts = restarts
        #: retained batches re-surveyed after rolling back to the checkpoint
        self.replayed_batches = replayed_batches
        #: True when a crash was unrecoverable and the step fell back to
        #: the survivor estimate
        self.degraded = degraded
        #: :class:`~repro.core.approximate.SurvivorEstimate`, set only when
        #: degraded
        self.estimate = estimate


class StreamingSurvey:
    """Sliding-window streaming survey driver with checkpoint/restart.

    Owns a live :class:`~repro.graph.distributed_graph.DistributedGraph`, a
    :class:`~repro.graph.delta.DeltaBuffer`, and a deque of per-batch reducer
    snapshots.  Each :meth:`ingest` call merges one edge batch, runs its
    delta survey (:func:`incremental_triangle_survey`) with a *fresh*
    reducer from ``reducer_factory`` (so the batch's panel is isolated),
    snapshots it, and maintains the windowed and cumulative merges through
    the reducer class's ``snapshot``/``merge`` contract (see
    ``docs/reducers.md``).

    Batch surveys run under whatever fault plan is armed on the world
    (:meth:`World.install_fault_plan`), with the recovery contract of
    :mod:`repro.core.engine.checkpoint`:

    * every ``policy.checkpoint_interval`` successful batches, the panel
      window, cumulative merge and per-rank wire totals are persisted and
      the replay log is truncated (releasing the retained graph snapshots);
    * on a recoverable crash, panels roll back to the last checkpoint and
      the retained batches replay with fresh reducers — deterministic, so
      the recovered panels are bit-identical to the fault-free stream;
    * on permanent loss (or a spent restart budget) the step degrades to a
      survivor estimate over the merged graph instead of raising, unless
      the policy says otherwise.

    Ingest and DODGr rebuilds run with faults suspended (the fault domain
    is survey execution).

    Parameters
    ----------
    world:
        The simulated cluster.
    reducer_factory:
        ``reducer_factory(world) -> reducer``; the reducer class must
        provide ``callback``, ``snapshot()`` and ``merge(snapshots)`` (all
        stock reducers do), plus optionally ``finalize()`` and
        ``callback_batch``.
    window_batches:
        Size of the sliding window in batches; ``None`` keeps every panel
        (the window equals the cumulative result).
    engine / kernel / callback_compute_units:
        The delta surveys' selector, resolved once here by
        :func:`~repro.core.engine.resolve_request`; ``engine`` may be a
        registered engine name or an
        :class:`~repro.core.engine.EngineConfig`.  An unsupported selector
        (unknown engine or kernel, ``backend="process"``,
        ``storage="mmap"``) raises here, before any batch is consumed.
    policy:
        The :class:`~repro.core.engine.CheckpointPolicy` (default: a
        checkpoint every batch, three restarts per ingest, degrade on
        permanent loss).
    """

    def __init__(
        self,
        world,
        reducer_factory: Callable[[Any], Any],
        window_batches: Optional[int] = None,
        engine=None,
        kernel: str = "merge_path",
        callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
        partitioner=None,
        graph_name: Optional[str] = None,
        policy: Optional[CheckpointPolicy] = None,
    ) -> None:
        if window_batches is not None and window_batches < 1:
            raise ValueError("window_batches must be at least 1")
        # Resolve here: ingest() applies its batch before the delta survey
        # runs, so a late error would consume the batch.
        self._spec, self._request = _resolve_delta_request(
            engine,
            dodgr=None,
            kernel=kernel,
            reset_stats=False,
            phase_name=DELTA_PUSH_PHASE,
            callback_compute_units=callback_compute_units,
        )
        self.world = world
        self.reducer_factory = reducer_factory
        self.window_batches = window_batches
        self.policy = policy or CheckpointPolicy()
        self.graph = DistributedGraph(
            world, partitioner=partitioner, name=graph_name or "streaming"
        )
        self.delta_buffer = DeltaBuffer(world)
        self.dodgr: Optional[DODGraph] = None
        self._panels: Deque[Any] = deque()
        self._merge: Optional[Callable[[Any], Any]] = None
        self._cumulative: Any = None
        self._checkpoint: Optional[StreamingCheckpoint] = None
        #: replay log: applied batches since the last checkpoint
        self._pending: List[AppliedDelta] = []
        self._wire_totals: Dict[int, Dict[str, int]] = {
            rank: {"wire_bytes": 0, "wire_messages": 0, "bytes_sent_remote": 0}
            for rank in range(world.nranks)
        }

    # ------------------------------------------------------------------
    def ingest(
        self,
        edges,
        vertex_meta: Optional[Dict[Any, Any]] = None,
    ) -> StreamingStep:
        """Merge one batch, survey its delta triangles, checkpoint on schedule."""
        host_start = time.perf_counter()
        world = self.world
        world.reset_stats()
        with world.faults_suspended():
            self.delta_buffer.stage_edges(edges)
            if vertex_meta:
                for vertex, meta in vertex_meta.items():
                    self.delta_buffer.stage_vertex_meta(vertex, meta)
            applied = self.delta_buffer.apply(self.graph)
        superseded = self.dodgr
        self.dodgr = applied.dodgr
        if superseded is not None and all(
            delta.dodgr is not superseded for delta in self._pending
        ):
            # The rebuilt DODGr replaces the previous one wholesale; unless
            # the replay log still needs it, release the old rebuild's
            # handler slot and rank stores so a long stream's memory stays
            # O(graph), not O(graph x batches).
            superseded.release()
        self._pending.append(applied)

        restarts = 0
        replayed = 0
        need_replay = False
        while True:
            try:
                if need_replay:
                    self._restore_checkpoint()
                    for delta in self._pending[:-1]:
                        self._absorb(self._survey_batch(delta)[0])
                        replayed += 1
                    need_replay = False
                panel, report = self._survey_batch(applied)
                retired = self._absorb(panel)
                break
            except RankCrashError as crash:
                world.recover_from_crash()
                restarts += 1
                injector = world.fault_injector
                recoverable = (
                    injector is not None and injector.plan.crash_recoverable
                )
                if recoverable and restarts <= self.policy.max_restarts:
                    need_replay = True
                    continue
                if not self.policy.degrade_on_permanent_loss:
                    raise
                estimate = survivor_triangle_estimate(
                    self.graph, lost_ranks=[crash.rank]
                )
                return StreamingStep(
                    batch_index=applied.batch_index,
                    new_edges=applied.num_edges(),
                    report=estimate.report,
                    snapshot=None,
                    window=None,
                    cumulative=None,
                    retired=None,
                    host_seconds=time.perf_counter() - host_start,
                    restarts=restarts,
                    replayed_batches=replayed,
                    degraded=True,
                    estimate=estimate,
                )

        self._accumulate_wire_totals()
        if len(self._pending) >= self.policy.checkpoint_interval:
            self._take_checkpoint(applied.batch_index)
        # With no window bound the window IS the cumulative merge — reuse it
        # instead of re-merging every panel (O(K^2) over a K-batch stream).
        window = (
            self._cumulative
            if self.window_batches is None
            else self._merge(list(self._panels))
        )
        return StreamingStep(
            batch_index=applied.batch_index,
            new_edges=applied.num_edges(),
            report=report,
            snapshot=panel,
            window=window,
            cumulative=self._cumulative,
            retired=retired,
            host_seconds=time.perf_counter() - host_start,
            restarts=restarts,
            replayed_batches=replayed,
        )

    # ------------------------------------------------------------------
    @property
    def batches_ingested(self) -> int:
        return self.delta_buffer.applied_batches

    @property
    def last_checkpoint(self) -> Optional[StreamingCheckpoint]:
        return self._checkpoint

    @property
    def pending_replay_batches(self) -> int:
        """Batches that would replay if a rank crashed right now."""
        return len(self._pending)

    def window_panels(self) -> List[Any]:
        """The reducer panels currently inside the window (oldest first)."""
        return list(self._panels)

    # ------------------------------------------------------------------
    def _survey_batch(self, applied: AppliedDelta) -> Tuple[Any, SurveyReport]:
        """Delta-survey one applied batch with a fresh reducer: (panel, report)."""
        reducer = self.reducer_factory(self.world)
        if self._merge is None:
            self._merge = type(reducer).merge
        request = replace(
            self._request,
            dodgr=applied.dodgr,
            callback=reducer.callback,
            graph_name=f"{self.graph.name}@{applied.batch_index}",
        )
        report = _run_delta_survey(request, self._spec, applied).report
        if hasattr(reducer, "finalize"):
            reducer.finalize()
        return reducer.snapshot(), report

    def _absorb(self, panel: Any) -> Any:
        """Slide the window over ``panel``; return the panel it retired."""
        self._panels.append(panel)
        retired = None
        if self.window_batches is not None and len(self._panels) > self.window_batches:
            retired = self._panels.popleft()
        self._cumulative = (
            panel
            if self._cumulative is None
            else self._merge([self._cumulative, panel])
        )
        return retired

    def _armed_plan_digest(self) -> Optional[str]:
        injector = self.world.fault_injector
        return fault_plan_digest(injector.plan if injector is not None else None)

    def _restore_checkpoint(self) -> None:
        """Roll panel state back to the last epoch (or the empty stream)."""
        if self._checkpoint is None:
            self._panels = deque()
            self._cumulative = None
            return
        armed = self._armed_plan_digest()
        if armed != self._checkpoint.plan_digest:
            # Replaying retained batches under a different fault schedule
            # would silently break recovery parity; fail loudly instead.
            raise StaleCheckpointError(self._checkpoint.plan_digest, armed)
        self._panels = deque(self._checkpoint.panels)
        self._cumulative = self._checkpoint.cumulative

    def _take_checkpoint(self, epoch: int) -> None:
        self._checkpoint = StreamingCheckpoint(
            epoch=epoch,
            panels=list(self._panels),
            cumulative=self._cumulative,
            wire_totals={rank: dict(t) for rank, t in self._wire_totals.items()},
            plan_digest=self._armed_plan_digest(),
        )
        # Truncate the replay log; retained graph snapshots (each batch's
        # DODGr) are only needed for replay, so all but the live one free.
        for delta in self._pending[:-1]:
            delta.dodgr.release()
        self._pending = []

    def _accumulate_wire_totals(self) -> None:
        for rank, rank_stats in enumerate(self.world.stats.ranks):
            totals = self._wire_totals[rank]
            for phase in rank_stats.phases.values():
                totals["wire_bytes"] += phase.wire_bytes
                totals["wire_messages"] += phase.wire_messages
                totals["bytes_sent_remote"] += phase.bytes_sent_remote
