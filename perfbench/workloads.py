"""The benchmark's workloads: input generation, timed rounds and oracles.

Every workload runs the production configuration (``engine="columnar"``,
16 ranks) and builds a fresh :class:`~repro.runtime.World` per iteration,
so handler-id history cannot change byte counts.  A *round* is the unit the
timed loop in ``run.py`` repeats:

* ``rmat-count``, ``reddit-closure``, ``reddit-closure-process``: one round
  is one iteration, the full pipeline from edge records to reducer panel.
  Its set-up is ``to_distributed`` + ``DODGraph.build`` + ``csr(r)`` for
  every rank; its survey is the survey call plus ``finalize()`` and
  ``result()`` of the reducer.
* ``stream-delta``: one round is one stream.  Its set-up is the base-load
  ``StreamingSurvey.ingest``; each of its delta batches is one iteration.

Layer spans are recorded from here, around calls into each layer's public
functions; per-survey counters come from the ``SurveyReport`` the program
returns.  Generation and oracle work run outside every timed window.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    ClosureTimeSurvey,
    DODGraph,
    GeneratedGraph,
    StreamingSurvey,
    TriangleCounter,
    World,
    reddit_like_temporal_graph,
    rmat,
)
from repro.bench.streaming import make_streaming_schedule
from repro.core.push_pull import triangle_survey_push_pull
from repro.core.survey import triangle_survey_push
from repro.graph import canonical_pair, edge_timestamp, serial_triangle_count
from repro.runtime.backend import shm
from probe import probe, scale
from spans import NullTracer

NRANKS = 16
ENGINE = "columnar"
PROCESS_WORKERS = 2
STREAM_BATCHES = 8
STREAM_DELTA_FRACTION = 0.01

#: Input sizes: the full benchmark and the small-input smoke test.
SIZES = {
    "full": {"rmat_scale": 13, "authors": 3500, "comments": 52000},
    "smoke": {"rmat_scale": 8, "authors": 300, "comments": 3000},
}

clock = time.perf_counter


@dataclass
class Iteration:
    """One survey: its timings and everything the checks compare."""

    survey_s: float
    wall_s: float
    edges: int
    report: Any
    panel: Any
    #: raw seconds -> reference seconds, from the probes around the iteration
    scale: float = 1.0
    #: StreamingStep for stream-delta, else None
    step: Any = None
    leaked: int = 0


@dataclass
class Round:
    setup_s: float
    setup_scale: float = 1.0
    iterations: List[Iteration] = field(default_factory=list)
    #: stream-delta: cumulative panel after the last batch
    cumulative: Any = None


def report_signature(report) -> Tuple:
    """Every exact counter of a report; equal signatures mean bit-identical runs."""
    phases = tuple(
        (
            name,
            stats.rpcs_sent,
            stats.rpcs_executed,
            stats.wire_messages,
            stats.wire_bytes,
            stats.bytes_sent_remote,
            stats.bytes_sent_local,
            stats.bytes_received,
            stats.compute_units,
            tuple(sorted(stats.app_counters.items())),
        )
        for name, stats in sorted(report.phase_stats.items())
    )
    return (
        report.triangles,
        report.wedge_checks,
        report.communication_bytes,
        report.wire_messages,
        report.vertices_pulled,
        report.simulated_seconds,
        phases,
    )


def _shm_names() -> frozenset:
    """Process-backend segments this process has linked: tracked and in /dev/shm."""
    prefix = f"repro-pb{os.getpid()}x"
    listed = set()
    if os.path.isdir("/dev/shm"):
        listed = {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
    return shm.active_segment_names() | listed


def simplified_reddit(authors: int, comments: int, seed: int) -> GeneratedGraph:
    """Reddit-like multigraph reduced to the earliest edge per pair (Fig. 6)."""
    raw = reddit_like_temporal_graph(authors, comments, seed=seed, name="reddit-like")
    first: Dict[Any, Any] = {}
    for u, v, meta in raw.edges:
        key = canonical_pair(u, v)
        if key not in first or edge_timestamp(meta) < edge_timestamp(first[key]):
            first[key] = meta
    return GeneratedGraph(
        name="reddit-like",
        edges=[(u, v, meta) for (u, v), meta in first.items()],
        vertex_meta=raw.vertex_meta,
    )


class PipelineWorkload:
    """Edge records in, reducer panel out, on a fresh world per iteration."""

    def __init__(
        self,
        graph: GeneratedGraph,
        survey: Callable,
        reducer: Callable[[World], Any],
        legacy_oracle: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.survey = survey
        self.reducer = reducer
        self.legacy_oracle = legacy_oracle
        self.survey_kwargs: Dict[str, Any] = {"engine": ENGINE}
        if backend is not None:
            self.survey_kwargs.update(backend=backend, workers=PROCESS_WORKERS)
        self.edges = graph.num_edges()

    def warm_up(self) -> None:
        self.run_round(NullTracer())

    def run_round(self, tracer) -> Round:
        before = _shm_names()
        probe_before = probe()
        with tracer.span("iteration"):
            t0 = clock()
            world = World(NRANKS)
            with tracer.span("repro.graph.ingest"):
                graph = self.graph.to_distributed(world)
            with tracer.span("repro.graph.dodgr.build"):
                dodgr = DODGraph.build(graph)
            with tracer.span("repro.graph.dodgr.csr"):
                for rank in range(NRANKS):
                    dodgr.csr(rank)
            reducer = self.reducer(world)
            t1 = clock()
            with tracer.span("repro.core.engine"):
                report = self.survey(dodgr, reducer.callback, **self.survey_kwargs)
            with tracer.span("repro.core.callbacks.reduce"):
                if hasattr(reducer, "finalize"):
                    reducer.finalize()
                panel = reducer.result()
            t2 = clock()
        factor = scale(probe_before, probe())
        leaked = len(_shm_names() - before)
        return Round(
            setup_s=t1 - t0,
            setup_scale=factor,
            iterations=[
                Iteration(t2 - t1, t2 - t0, self.edges, report, panel, factor, leaked=leaked)
            ],
        )

    def _reference(self, engine: str) -> Tuple[Any, Any]:
        """An untimed simulated-backend survey on ``engine``: (report, panel)."""
        world = World(NRANKS)
        dodgr = DODGraph.build(self.graph.to_distributed(world))
        reducer = self.reducer(world)
        report = self.survey(dodgr, reducer.callback, engine=engine)
        if hasattr(reducer, "finalize"):
            reducer.finalize()
        return report, reducer.result()

    def failures(self, rounds: List[Round]) -> List[Tuple[int, str]]:
        """Check every iteration against the oracles: (iteration, problem) pairs."""
        serial = serial_triangle_count(self.graph.edges)
        legacy = reference = None
        if self.legacy_oracle:
            legacy = self._reference("legacy")
        if "backend" in self.survey_kwargs:
            reference = self._reference(ENGINE)
        first = None
        out = []
        for n, it in enumerate(i for r in rounds for i in r.iterations):
            sig = report_signature(it.report)
            first = sig if first is None else first
            problems = []
            if it.report.triangles != serial:
                problems.append(f"triangles {it.report.triangles} != serial {serial}")
            if self.reducer is TriangleCounter and it.panel != serial:
                problems.append(f"panel {it.panel} != serial {serial}")
            if legacy is not None:
                report, panel = legacy
                if it.panel != panel:
                    problems.append("panel differs from the legacy oracle")
                if it.report.communication_bytes != report.communication_bytes:
                    problems.append("comm_bytes differs from the legacy oracle")
                if it.report.simulated_seconds != report.simulated_seconds:
                    problems.append("sim_s differs from the legacy oracle")
            if reference is not None:
                report, panel = reference
                if sig != report_signature(report) or it.panel != panel:
                    problems.append("process backend differs from the simulated backend")
            if sig != first:
                problems.append("report counters differ from the first iteration")
            if it.leaked:
                problems.append(f"{it.leaked} shared-memory segments leaked")
            out.extend((n, p) for p in problems)
        return out


class StreamWorkload:
    """A base load then delta batches through ``StreamingSurvey``."""

    def __init__(self, graph: GeneratedGraph, seed: int) -> None:
        self.graph = graph
        self.schedule = make_streaming_schedule(
            graph.edges,
            num_batches=STREAM_BATCHES,
            delta_fraction=STREAM_DELTA_FRACTION,
            seed=seed,
        )

    def warm_up(self) -> None:
        stream = StreamingSurvey(World(NRANKS), TriangleCounter, engine=ENGINE)
        stream.ingest(self.schedule.base[: len(self.schedule.base) // 10])
        stream.ingest(self.schedule.batches[0])

    def run_round(self, tracer) -> Round:
        stream = StreamingSurvey(World(NRANKS), TriangleCounter, engine=ENGINE)
        probe_before = probe()
        t0 = clock()
        with tracer.span("setup"):
            with tracer.span("repro.core.incremental.ingest"):
                stream.ingest(self.schedule.base)
        setup_s = clock() - t0
        probe_after = probe()
        out = Round(setup_s=setup_s, setup_scale=scale(probe_before, probe_after))
        for batch in self.schedule.batches:
            probe_before = probe_after
            with tracer.span("iteration"):
                t0 = clock()
                with tracer.span("repro.core.incremental.ingest"):
                    step = stream.ingest(batch)
                t1 = clock()
            probe_after = probe()
            out.iterations.append(
                Iteration(
                    t1 - t0, t1 - t0, step.new_edges, step.report, step.snapshot,
                    scale(probe_before, probe_after), step=step,
                )
            )
        out.cumulative = step.cumulative
        return out

    def failures(self, rounds: List[Round]) -> List[Tuple[int, str]]:
        """Check every delta batch and each stream's cumulative panel."""
        serial = serial_triangle_count(self.graph.edges)
        firsts: Dict[int, Tuple] = {}
        out = []
        n = 0
        for r in rounds:
            for batch, it in enumerate(r.iterations):
                sig = report_signature(it.report)
                firsts.setdefault(batch, sig)
                if it.report.triangles != it.panel:
                    out.append((n, f"panel {it.panel} != report {it.report.triangles}"))
                if sig != firsts[batch]:
                    out.append((n, f"counters differ from batch {batch} of the first stream"))
                n += 1
            if len(r.iterations) == STREAM_BATCHES and r.cumulative != serial:
                out.append((n - 1, f"cumulative {r.cumulative} != serial {serial}"))
        return out


def make_workload(name: str, seed: int, size: str):
    """Generate the inputs of workload ``name`` from ``seed``."""
    sizes = SIZES[size]
    if name == "rmat-count":
        graph = rmat(sizes["rmat_scale"], edge_factor=8, seed=seed)
        return PipelineWorkload(graph, triangle_survey_push, TriangleCounter)
    if name == "stream-delta":
        graph = rmat(sizes["rmat_scale"], edge_factor=8, seed=seed)
        return StreamWorkload(graph, seed)
    if name in ("reddit-closure", "reddit-closure-process"):
        graph = simplified_reddit(sizes["authors"], sizes["comments"], seed)
        backend = "process" if name == "reddit-closure-process" else None
        return PipelineWorkload(
            graph, triangle_survey_push_pull, ClosureTimeSurvey, legacy_oracle=True, backend=backend
        )
    raise ValueError(f"unknown workload {name!r}")
