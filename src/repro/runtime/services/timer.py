"""Timer service: attaches time measurements to snapshots.

Adds to every snapshot of its channel:

``time.duration``
    Seconds elapsed since the previous snapshot on the same thread.  Because
    event snapshots are taken *before* the blackboard update, the elapsed
    interval is attributed to the region that was active during it; summing
    ``time.duration`` grouped by a region attribute therefore yields
    exclusive time per region — the quantity the paper's case-study figures
    plot.

``time.inclusive.duration`` (optional, ``timer.inclusive = true``)
    On region-end snapshots: seconds since the matching begin, i.e. the
    region's inclusive time (own work plus everything nested inside).

``time.offset`` (optional, ``timer.offset = true``)
    Seconds since channel creation; useful for trace timelines, but it makes
    every snapshot unique, so aggregation profiles leave it off.

The timer registers its begin/end hooks at low priority so it observes each
event before the event service triggers the snapshot.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ...common.attribute import Attribute
from ...common.variant import Variant
from .base import Service

__all__ = ["TimerService"]


class TimerService(Service):
    name = "timer"
    priority = 10  # before snapshot-triggering services

    def __init__(self, channel) -> None:
        super().__init__(channel)
        self._with_offset = self.config.get_bool("offset", False)
        self._with_inclusive = self.config.get_bool("inclusive", False)
        #: what :meth:`thread_measure`'s ``measure`` returns, in order
        self.labels = ("time.duration",) + (
            ("time.inclusive.duration",) if self._with_inclusive else ()
        ) + (("time.offset",) if self._with_offset else ())
        #: whether every measurement is always there (inclusive time is
        #: only there on a region end's snapshot)
        self.complete = not self._with_inclusive
        # Bound once: three attribute hops per snapshot otherwise.  The clock
        # instance is fixed for the runtime's lifetime.
        self._now = channel.caliper.clock.now
        self._epoch = self._now()
        self._tls = threading.local()

    def wants(self, hook: str) -> bool:
        # The begin/end hooks only feed inclusive-time tracking; without
        # ``timer.inclusive`` they would be per-event no-op calls, so keep
        # them out of the channel's dispatch lists entirely.
        if hook in ("on_begin", "on_end") and not self._with_inclusive:
            return False
        return super().wants(hook)

    def _state(self) -> "_ThreadClock":
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadClock(self._epoch)
        return state

    # -- inclusive-time tracking (only dispatched with timer.inclusive) ---------

    def on_begin(self, attribute: Attribute, value: Variant) -> None:
        self._state().begins.setdefault(attribute.id, []).append(self._now())

    def on_end(self, attribute: Attribute, value: Variant) -> None:
        state = self._state()
        stack = state.begins.get(attribute.id)
        if stack:
            # Stashed for the snapshot this end event is about to trigger.
            state.pending = self._now() - stack.pop()

    # -- sampling interaction -------------------------------------------------------

    def on_sample_skip(self, at: Optional[float]) -> None:
        # A dropped snapshot's interval is *uncollected*, not deferred: the
        # next kept snapshot must time only its own interval or weighted
        # time sums would double-count the dropped span (1/p scaling
        # already accounts for it in expectation).
        now = at if at is not None else self._now()
        state = getattr(self._tls, "state", None) or self._state()
        if now >= state.last:
            state.last = now
        state.pending = None

    # -- snapshot contribution -----------------------------------------------------

    def thread_measure(self) -> Callable[[Optional[float]], object]:
        """``measure(at)`` for the calling thread: one snapshot's raw
        measurements — the duration as a bare float when it is the only
        label, else a tuple aligned with :attr:`labels` (the duration, then
        as configured the pending inclusive time, ``None`` when no region
        end is pending, and the offset)."""
        state = self._state()
        if state.measure is None:
            state.measure = self._make_measure(state)
        return state.measure

    def _make_measure(self, state: "_ThreadClock") -> Callable[[Optional[float]], object]:
        now_of, epoch = self._now, self._epoch
        inclusive, offset = self._with_inclusive, self._with_offset

        def duration(at: Optional[float]) -> float:
            now = now_of() if at is None else at
            last = state.last
            if now >= last:
                state.last = now
                return now - last
            # A sampler replaying a missed deadline after a real-time event
            # snapshot can observe at < last; clamp rather than emit negative
            # durations.
            return 0.0

        if not (inclusive or offset):
            return duration

        def measure(at: Optional[float]) -> tuple:
            now = now_of() if at is None else at
            out = [duration(now)]
            if inclusive:
                out.append(state.pending)
                state.pending = None
            if offset:
                out.append(now - epoch)
            return tuple(out)

        return measure

    def contribute(self, entries: dict[str, Variant], at: Optional[float],
                   _double=Variant.double) -> None:
        measured = self.thread_measure()(at)
        if len(self.labels) == 1:
            entries["time.duration"] = _double(measured)
            return
        for label, value in zip(self.labels, measured):
            if value is not None:
                entries[label] = _double(value)


class _ThreadClock:
    """A thread's timer state: the last snapshot time, the pending inclusive
    time, the begin-time stacks and the bound ``measure``."""

    __slots__ = ("last", "pending", "begins", "measure")

    def __init__(self, epoch: float) -> None:
        self.last = epoch
        self.pending: Optional[float] = None
        self.begins: dict[int, list[float]] = {}
        self.measure: Optional[Callable[[Optional[float]], object]] = None
