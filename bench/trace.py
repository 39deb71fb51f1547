"""In-memory span tracer for the traced benchmark run.

Spans are recorded by the benchmark itself, around the calls it makes into
each layer: either explicitly (:meth:`Tracer.span`), or by replacing a
bound method on an instance the benchmark constructed with a recording
wrapper (:meth:`Tracer.wrap`).  Stage durations the program already reports
(``stage_times``) become synthetic child spans (:meth:`Tracer.child`), so
the four pipeline stages are attributed without touching ``src/``.

A span is ``(id, name, layer, start, end, parent, request_id)``; a layer's
self time is its spans' duration minus the part their children cover.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent",
                 "request_id", "covered", "cursor")

    def __init__(self, span_id: int, name: str, layer: str, start: float,
                 parent: Optional["Span"], request_id: int) -> None:
        self.id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        #: Seconds of this span covered by its children.
        self.covered = 0.0
        #: Where the next synthetic child starts (children are sequential).
        self.cursor = start

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end,
                "parent": self.parent.id if self.parent else None,
                "request_id": self.request_id}


class Tracer:
    """Collects the spans of one thread (every workload is one closed
    loop on the child's main thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._requests = 0
        self._wrapped: List = []

    def _open(self, name: str, layer: str, start: float,
              parent: Optional[Span]) -> Span:
        if parent is None:
            self._requests += 1
            request_id = self._requests
        else:
            request_id = parent.request_id
        span = Span(len(self.spans), name, layer, start, parent, request_id)
        self.spans.append(span)
        return span

    @staticmethod
    def _close(span: Span, end: float) -> None:
        span.end = end
        if span.parent is not None:
            span.parent.covered += end - span.start
            span.parent.cursor = max(span.parent.cursor, end)

    @contextmanager
    def span(self, name: str, layer: str):
        """Record the enclosed block; a span with no open parent starts a
        new request."""
        span = self._open(name, layer, time.perf_counter(),
                          self._stack[-1] if self._stack else None)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self._close(span, time.perf_counter())

    def child(self, parent: Span, name: str, layer: str,
              duration: float) -> None:
        """A synthetic child of ``parent`` lasting ``duration`` seconds,
        laid after the children ``parent`` already has."""
        if duration > 0.0:
            span = self._open(name, layer, parent.cursor, parent)
            self._close(span, span.start + duration)

    def wrap(self, obj, attribute: str, layer: str,
             after: Optional[Callable[[Span, object], None]] = None) -> None:
        """Replace ``obj.attribute`` (a bound method) by a recording
        wrapper; ``after(span, result)`` may add synthetic children."""
        original = getattr(obj, attribute)
        name = f"{type(obj).__name__}.{attribute}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, result)
                return result

        setattr(obj, attribute, wrapper)
        self._wrapped.append((obj, attribute))

    def unwrap_all(self) -> None:
        """Drop every wrapper installed by :meth:`wrap`."""
        for obj, attribute in self._wrapped:
            obj.__dict__.pop(attribute, None)
        self._wrapped = []

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer, over every recorded span."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = (span.end - span.start) - span.covered
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [span.to_dict() for span in self.spans],
                       "self_time_s": self.self_times()}, handle)
