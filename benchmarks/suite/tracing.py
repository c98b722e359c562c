"""Span recorder for the traced (``--trace 1``) benchmark run.

A span is ``{id, name, start_ns, end_ns, parent, op_id}``.  Spans are
recorded by the benchmark's own code around *public* calls into the program
(``with tracer.span("net.client.send_records"): client.send_records(batch)``),
kept in memory, and written out when the run ends.  Nothing under ``src/``
knows about them.

* ``parent`` is the span that was open on the same thread when this one
  started (or an explicit ``parent=`` for work handed to another thread).
* ``op_id`` identifies the operation (tick, chunk, iteration, query); a span
  without its own ``op_id`` inherits its parent's, so spans of one operation
  share an identifier.
* A span's *self time* is its duration minus the part its children cover.

With tracing off, :meth:`Tracer.span` returns a shared no-op context, so an
untraced repetition pays one call per span site and records nothing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Optional

__all__ = ["Tracer", "Span"]


class _NullSpan:
    __slots__ = ()
    id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    __slots__ = ("_tracer", "id", "name", "parent", "op_id", "start_ns", "end_ns")

    def __init__(self, tracer: "Tracer", name: str, parent, op_id) -> None:
        self._tracer = tracer
        self.id = next(tracer._ids)
        self.name = name
        self.parent = parent
        self.op_id = op_id
        self.start_ns = 0
        self.end_ns = 0

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            top = stack[-1]
            if self.parent is None:
                self.parent = top.id
            if self.op_id is None:
                self.op_id = top.op_id
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer.spans.append(self)  # list.append is atomic under the GIL
        return False

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "op_id": self.op_id,
        }


class Tracer:
    """In-memory span store; one per benchmark process."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: prefixed to every explicit op id; the harness sets it per
        #: repetition so operations of different repetitions stay apart
        self.scope = ""
        self.spans: list[Span] = []
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, op_id=None, parent: Optional[Span] = None):
        """Context manager recording one span (a no-op when tracing is off).

        ``parent`` links a span on a worker thread to the span that handed
        it the work; the op id is then taken from that parent too.
        """
        if not self.enabled:
            return _NULL_SPAN
        if op_id is not None:
            op_id = f"{self.scope}{op_id}"
        if parent is not None and parent.id is not None:
            return Span(
                self, name, parent.id, op_id if op_id is not None else parent.op_id
            )
        return Span(self, name, None, op_id)

    # -- analysis ---------------------------------------------------------------

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus children's durations.

        Children run on their parent's thread inside its interval and do not
        overlap each other, except children handed to worker threads, which
        may overlap; their cover is clamped to the parent's duration.
        """
        covered: dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0) + (
                    span.end_ns - span.start_ns
                )
        out: dict[str, int] = {}
        for span in self.spans:
            duration = span.end_ns - span.start_ns
            own = duration - min(duration, covered.get(span.id, 0))
            out[span.name] = out.get(span.name, 0) + own
        return out

    def write(self, path: str) -> int:
        spans = sorted(self.spans, key=lambda s: s.id)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump([s.to_dict() for s in spans], stream, separators=(",", ":"))
            stream.write("\n")
        return len(spans)
