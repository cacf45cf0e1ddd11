"""In-memory spans around the benchmark's calls into the library.

A span has a name, start, end, parent and attributes (model kind, d, ...).
Spans stay in memory and are written once, when the run ends.  With
tracing off, ``NullTracer.span`` returns one shared no-op context manager.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def durations(self, name: str, **attrs) -> list[float]:
        """Durations (s) of the spans called ``name`` whose attrs match."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def median_s(self, name: str, **attrs) -> float:
        """Median duration in seconds, or 0.0 when the layer was not called."""
        d = self.durations(name, **attrs)
        return statistics.median(d) if d else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class NullTracer:
    _null = nullcontext()

    def span(self, name: str, **attrs):
        return self._null
