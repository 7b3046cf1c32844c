"""In-memory spans around calls into ``repro`` layers, exported for Perfetto.

A span has a name, start, end, parent span and request id.  Spans are kept
in memory and written once, when the run ends, as Chrome trace-event JSON
(open it at https://ui.perfetto.dev or chrome://tracing).  A disabled tracer
records nothing, so measured (untraced) runs pay one attribute check per
call site.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float                 # seconds, time.perf_counter() clock
    end: float
    parent: int | None = None
    request_id: int | None = None
    track: str = "main"
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; nesting follows the ``span()`` context managers per thread."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: int | None = None, **args):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append(Span(span_id, name, start, end, parent, request_id,
                              threading.current_thread().name, args))

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, request_id: int | None = None,
            track: str = "main", **args) -> int | None:
        """Record a span whose interval was measured elsewhere (e.g. a request)."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self._append(Span(span_id, name, start, end, parent, request_id,
                          track, args))
        return span_id

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def export(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the time its children cover.

    Children may overlap each other (concurrent requests under one parent);
    their intervals are merged and clipped to the parent before subtracting.
    """
    by_id = {span.id: span for span in spans}
    children: dict[int, list] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {span.id: span.duration - _union_length(children.get(span.id, ()))
            for span in spans}


def totals_by_name(spans) -> dict[str, dict]:
    """Per span name: count, total seconds and self seconds."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(span.name,
                                  {"count": 0, "seconds": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["seconds"] += span.duration
        entry["self"] += selfs[span.id]
    return totals


def chrome_trace(processes) -> dict:
    """Chrome trace-event JSON for ``[(process_name, [Span, ...]), ...]``.

    Each process becomes a pid and each track (thread name, or a request
    slot) a tid, so concurrently open spans never share a track.
    """
    events = []
    origin = min((span.start for _, spans in processes for span in spans),
                 default=0.0)
    for pid, (process_name, spans) in enumerate(processes, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": process_name}})
        tids: dict[str, int] = {}
        for span in spans:
            tid = tids.setdefault(span.track, len(tids) + 1)
            args = dict(span.args)
            args.update(span_id=span.id, parent=span.parent,
                        request_id=span.request_id)
            events.append({"name": span.name, "ph": "X", "pid": pid,
                           "tid": tid,
                           "ts": (span.start - origin) * 1e6,
                           "dur": span.duration * 1e6, "args": args})
        for track, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": track}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_from_dicts(items) -> list[Span]:
    return [Span(**item) for item in items]


def write_chrome_trace(path, processes) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(processes), handle)
