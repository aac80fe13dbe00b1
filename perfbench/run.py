"""Layer-attributed TriPoll benchmark: time to survey, edge records to reducer panel.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rmat-count --seed 19 --seconds 15 --trace 0

The load is a closed loop from this one process: the next round starts when
the previous one ends, until ``--seconds`` have passed.  One untimed warm-up
round runs first.  Every output is checked against an oracle after the timed
loop (and after peak RSS is read), so oracle work is never timed or charged
to memory.  Host seconds of the end-to-end metrics are scaled for the
host's drifting speed by the probe in ``probe.py``.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates traced and untraced
rounds, prints the per-layer metrics and writes the spans as Chrome
trace-event JSON under ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each metric measures and which layer
moves it.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker

from spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("rmat-count", "reddit-closure", "stream-delta", "reddit-closure-process")
END_TO_END = {
    "setup_s": "s",
    "survey_s": "s",
    "survey_tail_s": "s",
    "edges_per_s": "edges/s",
    "peak_rss_mb": "MB",
    "comm_bytes": "B",
    "sim_s": "s",
    "success_rate": "share",
}

#: Top-level layer spans of one iteration -> per-layer metric.
LAYER_SPANS = {
    "repro.graph.ingest": "ingest_s",
    "repro.graph.dodgr.build": "orient_s",
    "repro.graph.dodgr.csr": "csr_s",
    "repro.core.engine": "engine_s",
    "repro.core.incremental.ingest": "engine_s",
    "repro.core.callbacks.reduce": "reduce_s",
}
PHASE_COUNTERS = {
    "rpcs": "rpcs_sent",
    "wire_messages": "wire_messages",
    "wire_bytes": "wire_bytes",
    "compute_units": "compute_units",
}
PHASES = ("push", "dry_run", "pull")
#: The incremental engine's single phase is reported as the push phase.
PHASE_ALIASES = {"delta_push": "push"}
#: The ROADMAP's ">= 95% of iteration wall time attributed to a layer" gate.
MAX_UNATTRIBUTED = 0.05


def per_layer_units():
    seconds = ("ingest_s", "orient_s", "csr_s", "engine_s", "engine_cpu_s", "reduce_s")
    units = {name: "s" for name in seconds}
    units.update(wedge_checks="count", triangles="count", triangle_yield="share")
    for phase in PHASES:
        for counter in PHASE_COUNTERS:
            units[f"{counter}.{phase}"] = "B" if counter == "wire_bytes" else "count"
        units[f"sim_s.{phase}"] = "s"
    units.update(
        vertices_pulled="count",
        delta_merge_s="s",
        delta_survey_s="s",
        delta_edges="count",
        delta_triangles="count",
        parallelism="ratio",
        shm_leaked="count",
        trace_overhead="ratio",
        unattributed_share="share",
    )
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the smoke test only"
    )
    return parser.parse_args(argv)


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile at or above the median has ten
    beyond it; the median is reported then, with its percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    at_or_below = max(n - 10, (n + 1) // 2, 1)
    return 100.0 * at_or_below / n, ordered[at_or_below - 1]


def peak_rss_mb():
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_loop(workload, seconds, trace):
    """Closed loop of rounds; with ``trace`` every other round is traced."""
    tracer, null = Tracer(), NullTracer()
    rounds, traced, errors = [], [], 0
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or index < (2 if trace else 1):
        use_tracer = trace and index % 2 == 0
        index += 1
        gc.collect()  # start every round from the same heap state
        try:
            rounds.append(workload.run_round(tracer if use_tracer else null))
            traced.append(use_tracer)
        except Exception:  # counted in failed; the loop must keep measuring
            traceback.print_exc(file=sys.stderr)
            errors += 1
    return rounds, traced, errors, tracer


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(rounds, rss_mb, attempted, failed):
    from probe import REFERENCE_PROBE_S

    iterations = [it for r in rounds for it in r.iterations]
    survey = [it.survey_s * it.scale for it in iterations]
    percentile, tail = tail_percentile(survey) if survey else (0.0, 0.0)
    values = {
        "setup_s": median([r.setup_s * r.setup_scale for r in rounds]),
        "survey_s": median(survey),
        "survey_tail_s": tail,
        "edges_per_s": median([it.edges / (it.wall_s * it.scale) for it in iterations]),
        "peak_rss_mb": rss_mb,
        "comm_bytes": median([it.report.communication_bytes for it in iterations]),
        "sim_s": median([it.report.simulated_seconds for it in iterations]),
        "success_rate": 1.0 - failed / attempted,
    }
    notes = [
        f"survey_tail_s is p{percentile:.1f} of {len(survey)} survey samples",
        f"host seconds are scaled to a probe of {REFERENCE_PROBE_S} s; raw medians: "
        f"setup_s {median([r.setup_s for r in rounds]):.6g} s, "
        f"survey_s {median([it.survey_s for it in iterations]):.6g} s, "
        f"host speed {median([it.scale for it in iterations]):.4g} x reference",
        f"error_rate {failed / attempted:.6g} ({failed} of {attempted} surveys failed)",
    ]
    return values, notes


def per_layer_metrics(rounds, traced, tracer):
    spans = tracer.spans
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    roots = tracer.roots("iteration")
    layer_samples = {}
    cpu, parallelism = [], []
    attributed = total = 0.0
    for index in roots:
        root = spans[index]
        total += root.seconds
        for child in children.get(index, []):
            attributed += child.seconds
            metric = LAYER_SPANS[child.name]
            layer_samples.setdefault(metric, []).append(child.seconds)
            if metric == "engine_s":
                cpu.append(child.cpu)
                parallelism.append(child.cpu / child.seconds)
    traced_its = [it for r, t in zip(rounds, traced) if t for it in r.iterations]
    plain_its = [it for r, t in zip(rounds, traced) if not t for it in r.iterations]
    values = {name: median(layer_samples.get(name, [])) for name in
              ("ingest_s", "orient_s", "csr_s", "engine_s", "reduce_s")}
    values["engine_cpu_s"] = median(cpu)
    reports = [it.report for it in traced_its]
    values["wedge_checks"] = median([r.wedge_checks for r in reports])
    values["triangles"] = median([r.triangles for r in reports])
    values["triangle_yield"] = median(
        [r.triangles / r.wedge_checks if r.wedge_checks else 0.0 for r in reports]
    )
    for phase in PHASES:
        for counter, attr in PHASE_COUNTERS.items():
            values[f"{counter}.{phase}"] = median(
                [sum(getattr(st, attr) for name, st in r.phase_stats.items()
                     if PHASE_ALIASES.get(name, name) == phase) for r in reports]
            )
        values[f"sim_s.{phase}"] = median(
            [sum(p.seconds for p in r.simulated.phases
                 if PHASE_ALIASES.get(p.name, p.name) == phase) for r in reports]
        )
    values["vertices_pulled"] = median([r.vertices_pulled for r in reports])
    steps = [it.step for it in traced_its if it.step is not None]
    values["delta_merge_s"] = median([s.host_seconds - s.report.host_seconds for s in steps])
    values["delta_survey_s"] = median([s.report.host_seconds for s in steps])
    values["delta_edges"] = median([s.new_edges for s in steps])
    values["delta_triangles"] = median([s.report.triangles for s in steps])
    values["parallelism"] = median(parallelism)
    values["shm_leaked"] = sum(it.leaked for r in rounds for it in r.iterations)
    untraced_wall = median([it.wall_s for it in plain_its])
    values["trace_overhead"] = (
        median([it.wall_s for it in traced_its]) / untraced_wall if untraced_wall else 0.0
    )
    values["unattributed_share"] = (total - attributed) / total if total else 0.0
    return values


def stop_children():
    """Wait for every child process this run started, the resource tracker too."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # closes its pipe, then waits for it to exit


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Process-backend workers register their shared-memory segments with the
    # stdlib resource tracker.  Started here, before any worker forks, the
    # tracker is shared by every worker and stopped by this process; otherwise
    # each worker spawns its own, which outlives the worker as an orphan.
    resource_tracker.ensure_running()
    try:
        return measure(args)
    finally:
        stop_children()


def measure(args):
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, "smoke" if args.smoke else "full")
    workload.warm_up()
    rounds, traced, errors, tracer = run_loop(workload, args.seconds, args.trace)
    rss_mb = peak_rss_mb()

    failures = workload.failures(rounds)
    for n, problem in failures[:20]:
        print(f"check failed: iteration {n}: {problem}", file=sys.stderr)
    attempted = sum(len(r.iterations) for r in rounds) + errors
    failed = len({n for n, _ in failures}) + errors
    correct = failed == 0

    if args.trace:
        values = per_layer_metrics(rounds, traced, tracer)
        units = per_layer_units()
        trace_path = os.path.join("perfbench", "out", f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome_trace(os.path.join(ROOT, trace_path), args.workload)
        notes = [f"{len(tracer.spans)} spans written to {trace_path}"]
        if values["unattributed_share"] > MAX_UNATTRIBUTED:
            print(f"check failed: unattributed_share {values['unattributed_share']:.4f} "
                  f"> {MAX_UNATTRIBUTED}", file=sys.stderr)
            correct = False
    else:
        values, notes = end_to_end_metrics(rounds, rss_mb, attempted, failed)
        units = END_TO_END

    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
