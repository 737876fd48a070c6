"""Spans recorded by the benchmark's own code around calls into each layer.

The program under test carries no instrument of its own yet, so the
benchmark wraps each call into a layer's public function in a span and
keeps the spans in memory until the run ends. A span names its layer,
its start and end on ``time.perf_counter``, the span that caused it and
the request it belongs to; ``attrs`` holds counts and the breakdowns the
program already returns (``GemmRun.phase_seconds`` and friends).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span store, safe to record into from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def _record(self, name, start, end, parent, request, attrs) -> Span:
        with self._lock:
            record = Span(
                id=len(self.spans), name=name, start=start, end=end,
                parent=None if parent is None else parent.id,
                request=request if request is not None or parent is None else parent.request,
                attrs=attrs,
            )
            self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, *, parent: Span | None = None, request: int | None = None):
        record = self._record(name, time.perf_counter(), 0.0, parent, request, {})
        try:
            yield record
        finally:
            record.end = time.perf_counter()

    def add(self, name: str, start: float, end: float, *, parent: Span | None = None,
            request: int | None = None, **attrs) -> Span:
        """Record a span whose interval was measured elsewhere."""
        return self._record(name, start, end, parent, request, attrs)

    def summary(self) -> dict:
        """Per span name: count, summed duration and summed self time."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "seconds": 0.0, "self_seconds": 0.0})
            row["count"] += 1
            row["seconds"] += s.duration
            row["self_seconds"] += self_time(s, children.get(s.id, []))
        return out


def self_time(span: Span, children) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (concurrent work) or stick out past
    the parent; only the union of their intervals, clipped to the
    parent's, is subtracted, so self time is never negative and never
    double-subtracts.
    """
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def trace_overhead(traced: float, untraced: float) -> float:
    """Traced minus untraced end-to-end result, as a share of untraced."""
    if untraced <= 0.0:
        raise ValueError(f"untraced result must be positive, got {untraced}")
    return (traced - untraced) / untraced
