"""Bounded-lateness watermarks over many sources.

A *watermark* is the promise "no further record with event time below this
will be folded".  Each source contributes ``max_event_time - lateness``;
the tracker's watermark is the minimum over live sources, made monotone so
a source that reconnects and replays history (grandparent failover) cannot
drag the global watermark backwards and un-retire windows.

Sources are opaque ids — client ids for record streams, sender ids for
relay FORWARDs (which report their own aggregated watermark downstream).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["WatermarkTracker"]


class WatermarkTracker:
    """Per-source event-time high marks folded into one monotone watermark.

    Not thread-safe; callers serialize access (the server guards it with
    its window lock).
    """

    __slots__ = ("lateness", "_sources", "_emitted")

    def __init__(self, lateness: float = 0.0) -> None:
        if lateness < 0:
            raise ValueError(f"lateness must be >= 0, got {lateness!r}")
        self.lateness = float(lateness)
        #: source id -> watermark contributed (max event time - lateness,
        #: or a directly reported downstream watermark).
        self._sources: Dict[str, float] = {}
        self._emitted: Optional[float] = None

    def observe(self, source: str, event_time: float) -> None:
        """Fold one record's event time from ``source``."""
        mark = event_time - self.lateness
        current = self._sources.get(source)
        if current is None or mark > current:
            self._sources[source] = mark

    def observe_all(self, source: str, event_times: np.ndarray) -> np.ndarray:
        """``is_late(t, source)`` then, if not, ``observe(source, t)`` for each
        of one source's event times in order; returns the late mask.

        Row *i* is late when it is below the front the rows before it left:
        ``max(mark, max over j < i of t_j - lateness)``.  That maximum may run
        over every earlier row, late ones included: a late row has
        ``t - lateness <= t < front``, so it never raises the front — which
        is what makes the rule a prefix maximum instead of a loop.
        """
        if not len(event_times):
            return np.zeros(0, dtype=bool)
        mark = self._sources.get(source)
        front = np.empty(len(event_times))
        front[0] = -np.inf if mark is None else mark
        np.maximum.accumulate(event_times[:-1] - self.lateness, out=front[1:])
        np.maximum(front, front[0], out=front)
        # the first maximal time, as the loop's strict ``>`` keeps it: max()
        # may hand back a later -0.0 / 0.0 twin
        self.observe(source, float(event_times[np.argmax(event_times)]))
        return event_times < front

    def update(self, source: str, watermark: float) -> None:
        """Fold a directly reported watermark (relay FORWARD piggyback)."""
        current = self._sources.get(source)
        if current is None or watermark > current:
            self._sources[source] = watermark

    def remove(self, source: str) -> None:
        """Drop a fenced/disconnected source's contribution."""
        self._sources.pop(source, None)

    def source_watermark(self, source: str) -> Optional[float]:
        return self._sources.get(source)

    @property
    def sources(self) -> Dict[str, float]:
        return dict(self._sources)

    def watermark(self) -> Optional[float]:
        """Monotone min-over-sources watermark; ``None`` before any event."""
        if self._sources:
            low = min(self._sources.values())
            if self._emitted is None or low > self._emitted:
                self._emitted = low
        return self._emitted

    def is_late(self, event_time: float, source: Optional[str] = None) -> bool:
        """True when ``event_time`` falls more than ``lateness`` behind.

        With ``source`` given, lateness is judged against that source's own
        stream front rather than the global watermark.  This matters for
        exactness under failover: a re-parented client replaying its spool
        appears as a *fresh* source whose history must fold (its records
        were never late within their own stream), while a continuing source
        emitting genuinely stale events still sees them dropped.  Windows
        already retired are guarded separately by the retire floor.
        """
        mark = self._sources.get(source) if source is not None else self.watermark()
        return mark is not None and event_time < mark
