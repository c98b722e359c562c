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
from typing import Optional

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

    # -- inclusive-time tracking (only dispatched with timer.inclusive) ---------

    def on_begin(self, attribute: Attribute, value: Variant) -> None:
        stacks = getattr(self._tls, "begin_stacks", None)
        if stacks is None:
            stacks = {}
            self._tls.begin_stacks = stacks
        stacks.setdefault(attribute.id, []).append(self._now())

    def on_end(self, attribute: Attribute, value: Variant) -> None:
        stacks = getattr(self._tls, "begin_stacks", None)
        stack = stacks.get(attribute.id) if stacks else None
        if stack:
            begin_time = stack.pop()
            # Stashed for the snapshot this end event is about to trigger.
            self._tls.pending_inclusive = self._now() - begin_time

    # -- sampling interaction -------------------------------------------------------

    def on_sample_skip(self, at: Optional[float]) -> None:
        # A dropped snapshot's interval is *uncollected*, not deferred: the
        # next kept snapshot must time only its own interval or weighted
        # time sums would double-count the dropped span (1/p scaling
        # already accounts for it in expectation).
        now = at if at is not None else self._now()
        last = getattr(self._tls, "last", None)
        if last is None or now >= last:
            self._tls.last = now
        if self._with_inclusive:
            self._tls.pending_inclusive = None

    # -- snapshot contribution -----------------------------------------------------

    def contribute(self, entries: dict[str, Variant], at: Optional[float],
                   _double=Variant.double) -> None:
        now = at if at is not None else self._now()
        last = getattr(self._tls, "last", None)
        if last is None:
            last = self._epoch
        duration = now - last
        if duration < 0.0:
            # A sampler replaying a missed deadline after a real-time event
            # snapshot can observe at < last; clamp rather than emit negative
            # durations.
            duration = 0.0
        self._tls.last = now if now >= last else last
        entries["time.duration"] = _double(duration)
        if self._with_inclusive:
            pending = getattr(self._tls, "pending_inclusive", None)
            if pending is not None:
                entries["time.inclusive.duration"] = Variant.double(pending)
                self._tls.pending_inclusive = None
        if self._with_offset:
            entries["time.offset"] = Variant.double(now - self._epoch)
