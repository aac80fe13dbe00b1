"""Small-input smoke test of the benchmark in ``perfbench/run.py``.

Runs every workload on tiny inputs, traced and untraced, in a fresh
process each, and checks that every metric ``BENCHMARK.json`` names is
emitted with its unit and that no survey failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(cwd, script, *args):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_without_errors(workload, trace):
    proc = _run(
        ROOT, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "0.3", "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert result["metrics"]["unattributed_share"]["value"] <= 0.05
        assert result["metrics"]["shm_leaked"]["value"] == 0
    else:
        assert result["metrics"]["success_rate"]["value"] == 1.0
        assert "error_rate 0 " in proc.stdout


def _python_pids():
    """Pids of every python process, running or exited but not yet reaped."""
    pids = set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/comm") as handle:
                if handle.read().startswith("python"):
                    pids.add(int(entry))
        except (OSError, ValueError):
            continue
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_process_workload_leaves_no_process():
    """Workers' resource trackers must not outlive the run as orphans."""
    before = _python_pids()
    proc = _run(
        ROOT, "perfbench/run.py", "--workload", "reddit-closure-process", "--seed", "7",
        "--seconds", "0.3", "--trace", "0", "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    assert _python_pids() - before == set()


def test_exits_nonzero_without_the_program(tmp_path):
    """Given only the benchmark's own files, it fails without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(
        tmp_path, "perfbench/run.py", "--workload", "rmat-count", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
