"""In-memory span recorder for the traced benchmark run.

Spans are recorded only in the benchmark's own code, around each call it
makes into an excesslab layer.  Each span keeps its name, start, end, parent
span and the id of the workload pass it belongs to.  Nothing is written
until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per `with tracer.span(name):` block."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def to_list(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


class NullTracer:
    """The untraced run: spans cost one attribute lookup and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()


def sums_by_name(spans, run: str) -> dict[str, float]:
    """Summed span duration per name within one pass."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.run == run:
            out[s.name] += s.duration
    return dict(out)


def layer_table(spans) -> list[dict]:
    """Per span name: call count, summed duration and summed self time.

    A span's self time is its duration minus the durations of its direct
    children; the benchmark is single-threaded, so children never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s.name, {"name": s.name, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.duration - child_time[s.id]
    return sorted(rows.values(), key=lambda r: -r["self_s"])
