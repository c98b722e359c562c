"""WindowedAggregationDB: per-window operator state behind the mergeable-op
interface.

Windows are extra key attributes, so one ordinary
:class:`~repro.aggregate.db.AggregationDB` over the *windowized* scheme
holds every open window's state; retirement pops closed windows' entries
out of the table (freeing state) and folds them into a final-results DB
with plain ``combine`` semantics — so a straggler remnant that surfaces
later (e.g. a record that raced a retirement barrier) merges into the same
window exactly instead of duplicating it.

This class is the standalone single-process subsystem; the networked
:class:`~repro.net.server.AggregationServer` composes the same pieces
(assigner, tracker, estimator, ``pop_entries``) across its shards and
forwarded-state DBs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..aggregate.db import AggregationDB
from ..aggregate.ops import AvgOp, MomentsOp, SumOp
from ..aggregate.scheme import AggregationScheme
from ..common.record import Record
from ..common.variant import Variant
from .assign import (
    DEFAULT_TIME_ATTRIBUTE,
    WINDOW_END,
    WINDOW_START,
    EventClock,
    WindowAssigner,
    make_assigner,
    stamp_record,
)
from .estimate import WindowEstimator
from .watermark import WatermarkTracker

__all__ = [
    "windowize_scheme",
    "dewindowize_scheme",
    "window_end_of",
    "WindowedAggregationDB",
]


def _unwrapped(op):
    return getattr(op, "inner", op)


def windowize_scheme(
    scheme: AggregationScheme, with_moments: bool = True
) -> AggregationScheme:
    """``scheme`` with window key attributes (and hidden moment ops) added.

    Idempotent: an already-windowized scheme comes back unchanged, so a
    relay constructed from its parent's augmented scheme does not stack a
    second window key.
    """
    key = list(scheme.key)
    changed = False
    if WINDOW_START not in key:
        key += [WINDOW_START, WINDOW_END]
        changed = True
    ops = list(scheme.ops)
    if with_moments:
        have = {
            _unwrapped(op).args[0]
            for op in ops
            if type(_unwrapped(op)) is MomentsOp
        }
        for op in scheme.ops:
            target = _unwrapped(op)
            if type(target) in (SumOp, AvgOp) and target.args[0] not in have:
                ops.append(MomentsOp([target.args[0]]))
                have.add(target.args[0])
                changed = True
    if not changed:
        return scheme
    return AggregationScheme(ops, key=key, predicate=scheme.predicate)


def dewindowize_scheme(scheme: AggregationScheme) -> AggregationScheme:
    """Strip window key attributes and hidden moment ops (the base scheme)."""
    key = [k for k in scheme.key if k not in (WINDOW_START, WINDOW_END)]
    ops = [op for op in scheme.ops if type(_unwrapped(op)) is not MomentsOp]
    if len(key) == len(scheme.key) and len(ops) == len(scheme.ops):
        return scheme
    return AggregationScheme(ops, key=key, predicate=scheme.predicate)


def window_end_of(entries: Dict[str, Variant]) -> Optional[float]:
    """The ``window.end`` of exported key entries, or ``None``."""
    value = entries.get(WINDOW_END)
    if value is not None and value.is_numeric:
        return float(value.value)
    return None


class WindowedAggregationDB:
    """Single-process windowed aggregation with watermarks and estimates.

    >>> wdb = WindowedAggregationDB(scheme, "tumbling(30s)", lateness=5.0)
    >>> wdb.process(record)          # stamps, folds, advances the watermark
    >>> wdb.retire()                 # final records for closed windows
    >>> wdb.estimates()              # partials + CIs for open windows
    """

    def __init__(
        self,
        scheme: AggregationScheme,
        window,
        *,
        lateness: float = 0.0,
        time_attribute: str = DEFAULT_TIME_ATTRIBUTE,
        confidence: float = 0.90,
    ) -> None:
        self.assigner: WindowAssigner = make_assigner(window)
        self.base_scheme = dewindowize_scheme(scheme)
        self.scheme = windowize_scheme(scheme)
        self.time_attribute = time_attribute
        self.db = AggregationDB(self.scheme)
        self._final = AggregationDB(self.scheme, fold_plan="generic")
        self.tracker = WatermarkTracker(lateness)
        self.estimator = WindowEstimator(self.scheme, confidence=confidence)
        self._clocks: Dict[str, EventClock] = {}
        self._retire_floor: Optional[float] = None
        self.num_late = 0
        self.num_untimed = 0

    # -- ingest --------------------------------------------------------------

    def _clock(self, source: str) -> EventClock:
        clock = self._clocks.get(source)
        if clock is None:
            clock = self._clocks[source] = EventClock(self.time_attribute)
        return clock

    def process(self, record: Record, source: str = "local") -> bool:
        """Stamp and fold one record; False when late/un-timed (not folded).

        Lateness is judged against the record's own source stream; stamped
        copies for windows that already retired are dropped regardless (the
        window's final result is immutable once emitted).
        """
        t = self._clock(source).event_time(record)
        if t is None:
            self.num_untimed += 1
            return False
        if self.tracker.is_late(t, source):
            self.num_late += 1
            return False
        self.tracker.observe(source, t)
        floor = self._retire_floor
        folded = False
        for stamped in stamp_record(record, t, self.assigner):
            if floor is not None:
                end = stamped.get(WINDOW_END)
                if end.is_numeric and float(end.value) <= floor:
                    continue
            self.db.process(stamped)
            folded = True
        if not folded:
            self.num_late += 1
        return folded

    def process_all(self, records, source: str = "local") -> int:
        """Fold a record stream; returns how many records were folded."""
        folded = 0
        for record in records:
            if self.process(record, source):
                folded += 1
        return folded

    # -- watermarks and retirement ------------------------------------------

    def watermark(self) -> Optional[float]:
        return self.tracker.watermark()

    def retire(self, watermark: Optional[float] = None) -> List[Record]:
        """Finalize every window closed below the watermark.

        Pops the closed windows' state out of the live table, folds it into
        the final-results DB, and returns the *newly* retired windows'
        output records.  State for retired windows is freed from the live
        table; late arrivals for them are dropped by :meth:`process` (their
        event time is below the watermark by construction).
        """
        mark = self.tracker.watermark() if watermark is None else watermark
        if mark is None:
            return []
        def closed(entries) -> bool:
            end = window_end_of(entries)
            return end is not None and end <= mark

        popped = self.db.pop_entries(closed)
        if self._retire_floor is None or mark > self._retire_floor:
            self._retire_floor = mark
        if not popped:
            return []
        fresh = AggregationDB(self.scheme, fold_plan="generic")
        fresh.load_states([(e, s) for e, s in popped])
        self._final.load_states(fresh.export_states())
        return fresh.flush()

    @property
    def retire_floor(self) -> Optional[float]:
        return self._retire_floor

    # -- results -------------------------------------------------------------

    def retired_results(self) -> List[Record]:
        """Final records for every window retired so far."""
        return self._final.flush()

    def open_groups(self) -> List[Tuple[dict, Sequence[list]]]:
        return self.db.export_states()

    def estimates(self, watermark: Optional[float] = None) -> List[Record]:
        """Partial aggregates + confidence intervals for open windows."""
        mark = self.tracker.watermark() if watermark is None else watermark
        return self.estimator.estimate_records(self.db.export_states(), mark)

    def results(self) -> List[Record]:
        """Every window's current output (open partials + retired finals)."""
        merged = AggregationDB(self.scheme, fold_plan="generic")
        merged.load_states(self.db.export_states())
        merged.load_states(self._final.export_states())
        return merged.flush()

    def __len__(self) -> int:
        return len(self.db)
