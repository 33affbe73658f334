"""In-memory spans for the traced run: workload -> unit -> layer.

The traced run wraps each call into a layer's public function in a span
recorded here, from the benchmark's own code; nothing inside the program
is timed.  Spans stay in memory until the run ends, then
:func:`chrome_trace` turns them into Chrome ``trace_event`` JSON, which
https://ui.perfetto.dev and ``chrome://tracing`` open directly.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  A unit's self time is the time between and around
its layer calls that no layer accounts for: :func:`unit_rows` reports it
as ``untraced_s``, so the layer times plus ``untraced_s`` sum to the
unit's wall time by construction, and a large ``untraced_s`` shows that
the traced driver missed a layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the enclosing span."""

    id: int
    name: str
    kind: str  #: "workload", "unit" or "layer"
    parent: int | None
    start: float
    end: float | None = None
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on one thread, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[Span] = []
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, kind: str, **args) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, kind, parent, self._clock(), args=dict(args))
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._stack.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {s.id: s.seconds - _covered(children.get(s.id, [])) for s in spans}


def unit_rows(spans: list[Span]) -> list[dict]:
    """Per unit: wall time, summed time per layer name, and untraced time.

    Layer spans are the direct children of a unit span; several spans of
    one layer in a unit (e.g. one cache store per stage) are summed.
    """
    own = self_times(spans)
    rows = []
    for unit in (s for s in spans if s.kind == "unit"):
        layers: dict[str, float] = {}
        counts: dict[str, float] = {}
        for s in spans:
            if s.parent == unit.id and s.kind == "layer":
                layers[s.name] = layers.get(s.name, 0.0) + s.seconds
                for key, value in s.args.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        counts[key] = counts.get(key, 0.0) + float(value)
        rows.append({
            "unit": unit.name,
            "wall_s": unit.seconds,
            "layers": layers,
            "counts": counts,
            "untraced_s": own[unit.id],
            "args": dict(unit.args),
        })
    return rows


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome ``trace_event`` JSON of *spans* (complete "X" events, in µs)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(s.start for s in spans)
    own = self_times(spans)
    events = []
    for s in spans:
        events.append({
            "name": s.name,
            "cat": s.kind,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.seconds * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {
                **{k: v for k, v in s.args.items() if isinstance(v, (int, float, str, bool))},
                "span_id": s.id,
                "parent_id": s.parent,
                "self_us": own[s.id] * 1e6,
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
