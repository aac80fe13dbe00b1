"""Host-speed probe: a fixed piece of work timed beside every timed window.

On a shared host the CPU speed this process gets drifts by up to 2x over
seconds to minutes, and every host-time metric drifts with it.  The probe
times a fixed mix of NumPy sorting and interpreter dict work, like the
survey's own mix, right before and right after each timed window.  A window's
seconds are scaled by ``REFERENCE_PROBE_S / probe`` (the mean of the two
probes around it), which reports them as seconds on a host where the probe
takes ``REFERENCE_PROBE_S``.  The scaling does not depend on the program, so a
change that makes the program faster or slower moves the scaled seconds by
the same share as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe seconds of the reference host speed the scaled metrics are given at.
REFERENCE_PROBE_S = 0.0032

_KEYS = np.random.default_rng(12345).integers(0, 1 << 40, 20_000)


def _work() -> int:
    order = np.argsort(_KEYS, kind="stable")
    counts: dict = {}
    for key in _KEYS[order[:8_000]].tolist():
        counts[key & 1023] = counts.get(key & 1023, 0) + 1
    return len(counts)


def probe(repeats: int = 3) -> float:
    """Median seconds of ``repeats`` runs of the fixed work."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference seconds, for a window between two probes."""
    return REFERENCE_PROBE_S / ((before + after) / 2.0)
