"""Windowed aggregation state: the window front and the single-process DB.

Windows are extra key attributes, so one ordinary
:class:`~repro.aggregate.table.StateTable` over the *windowized* scheme
holds every open window's state; retirement pops closed windows' slots out
of the table (:meth:`StateTable.pop`, freeing state) and merges them into a
final-results table — so a straggler remnant that surfaces later (e.g. a
record that raced a retirement barrier) merges into the same window exactly
instead of duplicating it.

:class:`WindowFront` is the one place the window/lateness rules are written
down.  :class:`WindowedAggregationDB` drives one front over a single table;
the networked :class:`~repro.net.server.AggregationServer` drives one over
its shards and forwarded-state DBs, holding :attr:`WindowFront.lock`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..aggregate.ops import MomentsOp
from ..aggregate.scheme import AggregationScheme
from ..aggregate.table import StateTable
from ..common.record import Record
from ..io.colfile import ColumnStore
from .assign import (
    DEFAULT_TIME_ATTRIBUTE,
    WINDOW_END,
    WINDOW_START,
    EventClock,
    WindowAssigner,
    make_assigner,
    stamp_record,
)
from .estimate import WindowEstimator, _unwrap, scheme_with_moments
from .watermark import WatermarkTracker

__all__ = [
    "windowize_scheme",
    "dewindowize_scheme",
    "WindowFront",
    "WindowedAggregationDB",
]


def windowize_scheme(scheme: AggregationScheme) -> AggregationScheme:
    """``scheme`` with window key attributes and the hidden moment ops
    (:func:`~repro.window.estimate.scheme_with_moments`) added.

    Idempotent: an already-windowized scheme comes back unchanged, so a
    relay constructed from its parent's augmented scheme does not stack a
    second window key.
    """
    scheme = scheme_with_moments(scheme)
    if WINDOW_START in scheme.key:
        return scheme
    key = [*scheme.key, WINDOW_START, WINDOW_END]
    return AggregationScheme(scheme.ops, key=key, predicate=scheme.predicate)


def dewindowize_scheme(scheme: AggregationScheme) -> AggregationScheme:
    """Strip window key attributes and hidden moment ops (the base scheme)."""
    key = [k for k in scheme.key if k not in (WINDOW_START, WINDOW_END)]
    ops = [op for op in scheme.ops if type(_unwrap(op)) is not MomentsOp]
    if len(key) == len(scheme.key) and len(ops) == len(scheme.ops):
        return scheme
    return AggregationScheme(ops, key=key, predicate=scheme.predicate)


class WindowFront:
    """Stamping, watermarks and retirement for ``scheme`` over ``window``.

    ``window`` is anything :func:`~repro.window.assign.make_assigner`
    accepts; :attr:`scheme` is the windowized scheme the caller's tables
    must aggregate, :attr:`base_scheme` the one record producers speak.
    Not thread-safe: callers sharing a front between threads hold
    :attr:`lock` around every call (the front never takes it itself).
    """

    def __init__(
        self, scheme: AggregationScheme, window, *, lateness: float = 0.0,
        time_attribute: Optional[str] = DEFAULT_TIME_ATTRIBUTE, confidence: float = 0.90,
    ) -> None:
        self.assigner: WindowAssigner = make_assigner(window)
        self.scheme = windowize_scheme(scheme)
        self.base_scheme = dewindowize_scheme(self.scheme)
        self.time_attribute = time_attribute
        self.tracker = WatermarkTracker(lateness)
        self.estimator = WindowEstimator(self.scheme, confidence=confidence)
        #: retired windows' merged final states — a straggler that raced a
        #: retirement barrier merges exactly into its window instead of
        #: duplicating it
        self.retired = StateTable(self.scheme)
        #: highest watermark retired so far; stamped copies at or below it
        #: are dropped (the window's final result is immutable once emitted)
        self.retire_floor: Optional[float] = None
        self.num_late = 0
        self.num_untimed = 0
        self._clocks: Dict[str, EventClock] = {}
        self.lock = threading.Lock()

    def _clock(self, source: str) -> EventClock:
        clock = self._clocks.get(source)
        if clock is None:
            clock = self._clocks[source] = EventClock(self.time_attribute)
        return clock

    def stamp(self, source: str, records: Iterable[Record]) -> Tuple[List[Record], int, int]:
        """Assign ``records`` to windows, advancing ``source``'s watermark.

        Returns ``(stamped copies to fold, late, un-timed)``.  Lateness is
        judged per source (more than ``lateness`` behind that source's own
        stream front) so a re-parented client replaying its spool after a
        failover folds its history exactly; stamped copies for windows
        already retired are dropped regardless — the replayed data is
        already inside their final results.  Late and un-timed records are
        counted, never folded.

        This loop is the "window / lateness / retirement rule" of
        ``docs/streaming.md`` written out record by record;
        :meth:`stamp_store` is the same rule as column operations.
        """
        clock = self._clock(source)
        tracker, floor = self.tracker, self.retire_floor
        stamped: List[Record] = []
        late = untimed = 0
        for record in records:
            t = clock.event_time(record)
            if t is None:
                untimed += 1
                continue
            if tracker.is_late(t, source):
                late += 1
                continue
            tracker.observe(source, t)
            folded = False
            for copy in stamp_record(record, t, self.assigner):
                if floor is not None:
                    end = copy.get(WINDOW_END)
                    if end.is_numeric and float(end.value) <= floor:
                        continue
                stamped.append(copy)
                folded = True
            if not folded:
                late += 1
        self.num_late += late
        self.num_untimed += untimed
        return stamped, late, untimed

    def stamp_store(
        self, source: str, store: ColumnStore
    ) -> Tuple[ColumnStore, Optional[np.ndarray], int, int]:
        """:meth:`stamp` over a decoded column batch, without building a
        :class:`Record`: ``(stamped store, rows, late, un-timed)``.

        The stamped store is ``store``'s columns plus ``window.start`` /
        ``window.end`` (replacing same-named columns, as ``with_entries``
        does) and ``rows`` the indices of the rows to fold, ``None`` for all
        of them: ``records_from_store(stamped, rows)`` equals ``stamp``'s
        list, in order and bit for bit, and the clock, the tracker and the
        counters end where ``stamp`` leaves them.  A tumbling batch shares
        ``store``'s columns (dropped rows stay, outside ``rows``); a batch
        under an assigner with several windows per event is the row-repeated
        copy.  The rule itself is the numbered "window / lateness /
        retirement rule" of ``docs/streaming.md``.
        """
        n = len(store)
        times, timed = self._clock(source).event_times(store)  # rules 1 and 2
        rows = np.flatnonzero(timed)
        untimed = n - len(rows)
        times = times[rows]
        on_time = ~self.tracker.observe_all(source, times)  # rule 3
        rows, times = rows[on_time], times[on_time]
        event, starts, ends = self.assigner.assign_all(times)  # rule 4
        one_each = event is None
        if one_each:
            event = np.arange(len(rows))
        if self.retire_floor is not None:  # rule 5
            still_open = ends > self.retire_floor
            event, starts, ends = event[still_open], starts[still_open], ends[still_open]
        folded = len(event) if one_each else len(np.unique(event))
        late = n - untimed - folded  # rule 6: behind the front, or every copy retired
        self.num_late += late
        self.num_untimed += untimed
        rows = rows[event]  # the input row behind each copy to fold
        if not one_each:
            stamped = store.take(rows).with_doubles({WINDOW_START: starts, WINDOW_END: ends})
            return stamped, None, late, untimed
        if len(rows) == n:
            return store.with_doubles({WINDOW_START: starts, WINDOW_END: ends}), None, late, untimed
        present = np.zeros(n, dtype=bool)
        present[rows] = True
        bounds = {}
        for label, values in ((WINDOW_START, starts), (WINDOW_END, ends)):
            bounds[label] = np.zeros(n)
            bounds[label][rows] = values
        return store.with_doubles(bounds, present), rows, late, untimed

    def watermark(self) -> Optional[float]:
        """The global event-time watermark (``None`` before any event)."""
        return self.tracker.watermark()

    def forget_source(self, source: str) -> None:
        """A dead source must stop holding the global watermark back."""
        self.tracker.remove(source)
        self._clocks.pop(source, None)

    def finalize(self, mark: float, popped: Sequence[StateTable]) -> List[Record]:
        """Retire the tables popped as closed below ``mark``: raise the
        retire floor, merge them into the retired-results table, return the
        *newly* retired windows' output records."""
        if self.retire_floor is None or mark > self.retire_floor:
            self.retire_floor = mark
        if not any(len(table) for table in popped):
            return []
        fresh = StateTable(self.scheme)
        for table in popped:
            fresh.merge(table)
        self.retired.merge(fresh)
        return fresh.flush()

    def retired_results(self) -> List[Record]:
        """Final records for every window retired so far."""
        return self.retired.flush()


class WindowedAggregationDB(WindowFront):
    """Single-process windowed aggregation: a window front over one table.

    Takes :class:`WindowFront`'s arguments.

    >>> wdb = WindowedAggregationDB(scheme, "tumbling(30s)", lateness=5.0)
    >>> wdb.process(record)          # stamps, folds, advances the watermark
    >>> wdb.retire()                 # final records for closed windows
    >>> wdb.estimates()              # partials + CIs for open windows
    """

    def __init__(self, scheme: AggregationScheme, window, **front_options) -> None:
        super().__init__(scheme, window, **front_options)
        #: every open window's partial state
        self.table = StateTable(self.scheme)

    def process(self, record: Record, source: str = "local") -> bool:
        """Stamp and fold one record; False when late/un-timed (not folded)."""
        return self.process_all((record,), source) == 1

    def process_all(self, records, source: str = "local") -> int:
        """Fold a record stream; returns how many records were folded.

        Stamped as columns (:meth:`stamp_store`), as the server stamps a
        decoded batch: one window rule for both."""
        store = ColumnStore.from_records(records)
        stamped, rows, late, untimed = self.stamp_store(source, store)
        self.table.fold(stamped, rows)
        return len(store) - late - untimed

    def retire(self, watermark: Optional[float] = None) -> List[Record]:
        """Finalize every window closed below the watermark.

        Pops the closed windows' state out of the live table, merges it into
        the final-results table, and returns the *newly* retired windows'
        output records.  State for retired windows is freed from the live
        table; late arrivals for them are dropped by :meth:`process` (their
        event time is below the watermark by construction).
        """
        mark = self.watermark() if watermark is None else watermark
        if mark is None:
            return []
        return self.finalize(mark, [self.table.pop(WINDOW_END, mark)])

    def estimates(self, watermark: Optional[float] = None) -> List[Record]:
        """Partial aggregates + confidence intervals for open windows."""
        mark = self.watermark() if watermark is None else watermark
        return self.estimator.estimate_records(self.table, mark)

    def results(self) -> List[Record]:
        """Every window's current output (open partials + retired finals)."""
        merged = self.table.copy()
        merged.merge(self.retired)
        return merged.flush()

    def __len__(self) -> int:
        return len(self.table)
