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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aggregate.ops import MomentsOp
from ..aggregate.scheme import AggregationScheme
from ..aggregate.table import StateTable
from ..common.record import Record
from ..io.colfile import ColumnStore, result_records
from .assign import (
    DEFAULT_TIME_ATTRIBUTE,
    WINDOW_END,
    WINDOW_START,
    EventClock,
    WindowAssigner,
    make_assigner,
    stamp_columns,
    window_copies,
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

    def stamp_store(
        self, source: str, store: ColumnStore
    ) -> Tuple[ColumnStore, Optional[np.ndarray], int, int]:
        """Assign a column batch to windows, advancing ``source``'s
        watermark: ``(stamped store, rows to fold, late, un-timed)``, no
        :class:`Record` built (:func:`~repro.window.assign.window_copies`
        with this front's lateness and retire floor, then
        :func:`~repro.window.assign.stamp_columns`).

        Lateness is judged per source, so a re-parented client replaying
        its spool after a failover folds its history exactly; copies for
        windows already retired are dropped regardless — the replayed data
        is already inside their final results.  Late and un-timed rows are
        counted, never folded.
        """
        rows, starts, ends, untimed = window_copies(
            store, self._clock(source), self.assigner,
            admit=lambda times: ~self.tracker.observe_all(source, times),
            floor=self.retire_floor,
        )
        folded = int(len(rows) and 1 + np.count_nonzero(np.diff(rows)))  # distinct rows
        late = len(store) - untimed - folded  # rule 6: behind the front, or every copy retired
        self.num_late += late
        self.num_untimed += untimed
        stamped, rows = stamp_columns(store, rows, starts, ends)
        return stamped, rows, late, untimed

    def watermark(self) -> Optional[float]:
        """The global event-time watermark (``None`` before any event)."""
        return self.tracker.watermark()

    def forget_source(self, source: str) -> None:
        """A dead source must stop holding the global watermark back."""
        self.tracker.remove(source)
        self._clocks.pop(source, None)

    def finalize(self, mark: float, popped: Sequence[StateTable]) -> Optional[StateTable]:
        """Retire the tables popped as closed below ``mark``: raise the
        retire floor, merge them into the retired-results table, return the
        *newly* retired windows as one table (``None`` when none closed)."""
        if self.retire_floor is None or mark > self.retire_floor:
            self.retire_floor = mark
        popped = [table for table in popped if len(table)]
        if not popped:
            return None
        fresh = StateTable(self.scheme)
        for table in popped:
            fresh.merge(table)
        self.retired.merge(fresh)
        return fresh

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
        fresh = self.finalize(mark, [self.table.pop(WINDOW_END, mark)])
        return [] if fresh is None else fresh.flush()

    def estimates(self, watermark: Optional[float] = None) -> List[Record]:
        """Partial aggregates + confidence intervals for open windows."""
        mark = self.watermark() if watermark is None else watermark
        return result_records(self.estimator.estimate(self.table, mark))

    def results(self) -> List[Record]:
        """Every window's current output (open partials + retired finals)."""
        merged = self.table.copy()
        merged.merge(self.retired)
        return merged.flush()

    def __len__(self) -> int:
        return len(self.table)
