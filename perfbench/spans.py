"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, cpu)``: wall-clock bounds from
``time.perf_counter``, the index of the enclosing span (``None`` at the
root), and the CPU seconds of this process plus its waited-for children
(``getrusage``) spent inside it.  Spans stay in memory and are written as
Chrome trace-event JSON once the run ends, so recording costs two clock
reads and a list append per span.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import time
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Span:
    __slots__ = ("name", "start", "end", "parent", "cpu")

    def __init__(self, name: str, parent: Optional[int]) -> None:
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.cpu = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span(name)`` is a context manager."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, parent)
        self.spans.append(record)
        self._open.append(index)
        cpu0 = cpu_seconds()
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            record.cpu = cpu_seconds() - cpu0
            self._open.pop()

    def roots(self, name: str) -> List[int]:
        """Indices of top-level spans called ``name``."""
        return [i for i, s in enumerate(self.spans) if s.parent is None and s.name == name]

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Write every span as a Chrome trace-event ``X`` event (microseconds)."""
        origin = self.spans[0].start if self.spans else 0.0
        events: List[Dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process_name}}
        ]
        for index, s in enumerate(self.spans):
            events.append({
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (s.start - origin) * 1e6,
                "dur": s.seconds * 1e6,
                "args": {"id": index, "parent": s.parent, "cpu_s": s.cpu},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class NullTracer:
    """The untraced run: ``span`` records nothing."""

    def span(self, name: str):
        return _NULL
