"""Window assignment: event time extraction and tumbling/sliding assigners.

Windowing turns the unbounded aggregation epoch into per-window groups by
stamping two extra key attributes — ``window.start`` and ``window.end`` —
onto each record before it is folded.  Everything downstream (hash-routed
shards, FORWARD/RETRACT deltas, binary wire encoding, the columnar batch
backend) then works unchanged: a window is just another part of the
aggregation key.

Event time comes from a configurable *time attribute* (default
``time.start``).  Streams that only carry ``time.duration`` — the common
profiling case — fall back to a per-source relative clock: each record's
event time is the running sum of durations seen so far on that source, so
a pure duration stream still has a total event-time order.

Window sizes are wall-clock durations in seconds; the CalQL surface accepts
``30s`` / ``500ms`` / ``2m`` / ``1h`` suffixes via :func:`parse_duration`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..common.errors import ReproError
from ..common.record import Record
from ..io.colfile import ColumnStore

__all__ = [
    "WindowError",
    "parse_duration",
    "format_duration",
    "WindowAssigner",
    "TumblingWindows",
    "SlidingWindows",
    "make_assigner",
    "EventClock",
    "window_copies",
    "stamp_columns",
    "WINDOW_START",
    "WINDOW_END",
    "DEFAULT_TIME_ATTRIBUTE",
    "DURATION_ATTRIBUTE",
]

#: Key attributes stamped onto windowed records.
WINDOW_START = "window.start"
WINDOW_END = "window.end"

#: Default event-time attribute; absent it, ``time.duration`` accumulates.
DEFAULT_TIME_ATTRIBUTE = "time.start"
DURATION_ATTRIBUTE = "time.duration"

#: Accepted duration-unit suffixes, in seconds.
_UNITS = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}


class WindowError(ReproError):
    """Invalid window specification or unwindowable record stream."""


def parse_duration(text: str) -> float:
    """``"30s"`` / ``"500ms"`` / ``"2m"`` / ``"1.5h"`` / ``"30"`` -> seconds."""
    raw = str(text).strip()
    if not raw:
        raise WindowError("empty duration")
    unit = 1.0
    for suffix in sorted(_UNITS, key=len, reverse=True):
        if raw.endswith(suffix):
            unit = _UNITS[suffix]
            raw = raw[: -len(suffix)]
            break
    try:
        value = float(raw)
    except ValueError:
        raise WindowError(f"bad duration {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise WindowError(f"duration must be positive and finite, got {text!r}")
    return value * unit


def format_duration(seconds: float) -> str:
    """Seconds back to a compact CalQL duration literal (``90.0`` -> ``90s``)."""
    if seconds <= 0 or not math.isfinite(seconds):
        raise WindowError(f"duration must be positive and finite, got {seconds!r}")
    value = float(seconds)
    if value == int(value):
        return f"{int(value)}s"
    ms = value * 1e3
    if ms == int(ms):
        return f"{int(ms)}ms"
    return f"{value}s"


class WindowAssigner:
    """Maps an event time to the ``(start, end)`` windows containing it."""

    kind = "window"
    size: float

    def assign(self, event_time: float) -> List[Tuple[float, float]]:
        raise NotImplementedError

    def assign_all(
        self, times: np.ndarray
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """:meth:`assign` over a column of event times: ``(event, starts,
        ends)``, one element per window copy, grouped by event in input order
        and ascending in start within one event.  ``event`` indexes ``times``;
        ``None`` says every event has exactly one window.  The built-in
        assigners override this with array arithmetic that performs the same
        IEEE operations as their ``assign``, so the bounds are bit-identical.
        """
        windows = [self.assign(t) for t in times.tolist()]
        event = np.repeat(np.arange(len(windows)), [len(w) for w in windows])
        bounds = np.array([b for w in windows for b in w], dtype=np.float64).reshape(-1, 2)
        return event, bounds[:, 0], bounds[:, 1]

    def describe(self) -> str:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.describe() == other.describe()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self.describe())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.describe()}>"


class TumblingWindows(WindowAssigner):
    """Fixed, gap-free, non-overlapping windows of ``size`` seconds.

    Every event time lands in exactly one window:
    ``[floor(t / size) * size, ... + size)``.
    """

    kind = "tumbling"

    def __init__(self, size: float) -> None:
        if not math.isfinite(size) or size <= 0:
            raise WindowError(f"tumbling window size must be > 0, got {size!r}")
        self.size = float(size)

    def assign(self, event_time: float) -> List[Tuple[float, float]]:
        start = math.floor(event_time / self.size) * self.size
        # float floor can land one slot high when t is epsilon under a
        # boundary; windows are [start, end) so nudge back if needed.
        if start > event_time:
            start -= self.size
        return [(start, start + self.size)]

    def assign_all(self, times: np.ndarray):
        start = _slot_start(times, self.size)
        return None, start, start + self.size

    def describe(self) -> str:
        return f"tumbling({format_duration(self.size)})"


class SlidingWindows(WindowAssigner):
    """Overlapping windows of ``size`` seconds every ``slide`` seconds.

    Window starts are the multiples of ``slide``; an event at time ``t``
    belongs to every window ``[k*slide, k*slide + size)`` containing it.
    When ``slide`` divides ``size`` that is exactly ``size / slide``
    windows per event.
    """

    kind = "sliding"

    def __init__(self, size: float, slide: float) -> None:
        if not math.isfinite(size) or size <= 0:
            raise WindowError(f"sliding window size must be > 0, got {size!r}")
        if not math.isfinite(slide) or slide <= 0:
            raise WindowError(f"sliding window slide must be > 0, got {slide!r}")
        if slide > size:
            raise WindowError(
                f"slide ({slide!r}) larger than size ({size!r}) would drop events"
            )
        self.size = float(size)
        self.slide = float(slide)

    def assign(self, event_time: float) -> List[Tuple[float, float]]:
        slide = self.slide
        size = self.size
        last = math.floor(event_time / slide) * slide
        if last > event_time:
            last -= slide
        windows: List[Tuple[float, float]] = []
        start = last
        while start + size > event_time:
            windows.append((start, start + size))
            start -= slide
        windows.reverse()
        return windows

    def assign_all(self, times: np.ndarray):
        size, slide = self.size, self.slide
        start = _slot_start(times, slide)
        levels, alive = [], []
        inside = start + size > times
        while inside.any():  # at most ceil(size / slide) + 1 rounds
            levels.append(start)
            alive.append(inside)
            start = start - slide  # repeated subtraction, as assign() does
            inside = inside & (start + size > times)
        if not levels:
            return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
        # events down, latest start first -> flip: row-major order is then
        # each event's windows in ascending start
        alive_by_event = np.stack(alive[::-1], axis=1)
        starts = np.stack(levels[::-1], axis=1)[alive_by_event]
        return np.nonzero(alive_by_event)[0], starts, starts + size

    def describe(self) -> str:
        return (
            f"sliding({format_duration(self.size)}, "
            f"{format_duration(self.slide)})"
        )


def _slot_start(times: np.ndarray, step: float) -> np.ndarray:
    """``floor(t / step) * step``, nudged back where float floor landed above
    ``t`` — the array form of the first lines of both ``assign`` methods."""
    # math.floor gives an int, so a quotient of -0.0 multiplies as +0: the
    # "+ 0.0" turns numpy's floor(-0.0) = -0.0 into the same +0.0
    start = (np.floor(times / step) + 0.0) * step
    return np.where(start > times, start - step, start)


def make_assigner(spec) -> WindowAssigner:
    """Coerce a window spec to an assigner.

    Accepts an existing :class:`WindowAssigner`, a CalQL
    :class:`~repro.calql.ast.WindowSpec`, or a string like
    ``"tumbling(30s)"`` / ``"sliding(1m, 10s)"``.
    """
    if isinstance(spec, WindowAssigner):
        return spec
    kind = getattr(spec, "kind", None)
    if kind in ("tumbling", "sliding"):
        if kind == "tumbling":
            return TumblingWindows(spec.size)
        return SlidingWindows(spec.size, spec.slide)
    if isinstance(spec, str):
        text = spec.strip()
        head, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise WindowError(f"bad window spec {spec!r}")
        args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
        head = head.strip().lower()
        if head == "tumbling" and len(args) == 1:
            return TumblingWindows(parse_duration(args[0]))
        if head == "sliding" and len(args) == 2:
            return SlidingWindows(parse_duration(args[0]), parse_duration(args[1]))
        raise WindowError(f"bad window spec {spec!r}")
    raise WindowError(f"cannot build a window assigner from {spec!r}")


class EventClock:
    """Extracts event times, with a duration-relative fallback.

    If a record carries the configured time attribute that value is the
    event time.  Otherwise, if it carries ``time.duration``, the clock
    advances by that duration and the *accumulated* offset is the event
    time — a deterministic total order for pure duration streams.  Records
    with neither attribute are un-timed (``None``), and so is a record whose
    time value (or whose duration, on the relative clock) is ``nan`` or
    ``±inf``: it is never shown to the clock, so one bad value cannot push a
    source's front to infinity (rule 2 in ``docs/streaming.md``).

    One clock is per-source state; keep one per stream.
    """

    __slots__ = ("attribute", "_offset")

    def __init__(self, attribute: str = DEFAULT_TIME_ATTRIBUTE) -> None:
        self.attribute = attribute or DEFAULT_TIME_ATTRIBUTE
        self._offset = 0.0

    def event_time(self, record: Record) -> Optional[float]:
        value = record.get(self.attribute)
        if value and value.is_numeric:
            t = float(value.value)
            if not math.isfinite(t):
                return None
            if t > self._offset:
                self._offset = t
            return t
        duration = record.get(DURATION_ATTRIBUTE)
        if duration and duration.is_numeric:
            step = float(duration.value)
            if not math.isfinite(step):
                return None
            t = self._offset
            self._offset = t + step
            return t
        return None

    def event_times(self, store: ColumnStore) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`event_time` over the rows of a column store, in row order:
        ``(times, timed)`` — ``times`` means something only where ``timed``.
        Leaves the clock exactly where the per-record calls would."""
        times, has_time = store.numeric(self.attribute, include_bool=False)
        by_time = has_time & np.isfinite(times)
        if has_time.all():
            by_step = None
        else:
            steps, has_step = store.numeric(DURATION_ATTRIBUTE, include_bool=False)
            by_step = ~has_time & has_step & np.isfinite(steps)
            if not by_step.any():
                by_step = None
        if by_step is None:
            if by_time.any():
                newest = float(times[by_time].max())
                if newest > self._offset:
                    self._offset = newest
            return times, by_time
        out = np.zeros(len(times))
        if not by_time.any():
            # np.cumsum adds left to right, one rounding per row, as the
            # running ``offset + step`` does
            running = np.cumsum(np.concatenate(([self._offset], steps[by_step])))
            out[by_step] = running[:-1]
            self._offset = float(running[-1])
            return out, by_step
        # Time stamps and durations interleaved: each row's time depends on
        # every row before it, so run the clock itself — over floats.
        timed = by_time | by_step
        offset, stamps = self._offset, []
        for t, step, stamped in zip(
            times[timed].tolist(), steps[timed].tolist(), by_time[timed].tolist()
        ):
            if stamped:
                if t > offset:
                    offset = t
            else:
                t, offset = offset, offset + step
            stamps.append(t)
        self._offset = offset
        out[timed] = stamps
        return out, timed


def window_copies(
    store: ColumnStore,
    clock: EventClock,
    assigner: WindowAssigner,
    admit: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    floor: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The window copies of the rows of ``store``: ``(rows, starts, ends,
    un-timed)``, per copy to fold (in row order, ascending in start within
    a row) the row it copies and its window's bounds.

    Rules 1, 2 and 4 of the window rule in ``docs/streaming.md``, on
    ``clock`` (one per source).  The windowed server adds ``admit`` (rule 3:
    the timed rows' event times -> the mask of those on time) and ``floor``
    (rule 5); the off-line engine passes neither.
    """
    times, timed = clock.event_times(store)  # rules 1 and 2
    rows = np.flatnonzero(timed)
    untimed = len(store) - len(rows)
    times = times[rows]
    if admit is not None:  # rule 3
        on_time = admit(times)
        rows, times = rows[on_time], times[on_time]
    event, starts, ends = assigner.assign_all(times)  # rule 4
    if event is not None:
        rows = rows[event]
    if floor is not None:  # rule 5
        still_open = ends > floor
        rows, starts, ends = rows[still_open], starts[still_open], ends[still_open]
    return rows, starts, ends, untimed


def stamp_columns(
    store: ColumnStore, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Tuple[ColumnStore, Optional[np.ndarray]]:
    """The copies :func:`window_copies` picked as a store, no
    :class:`Record` built: ``(stamped store, rows to fold)`` (``None``: all).

    ``store``'s columns plus ``window.start`` / ``window.end`` (replacing
    same-named ones, as ``with_entries`` does); ``records_from_store(stamped,
    rows)`` equals the ``stamp_record`` copies bit for bit.  With at most
    one copy per row the columns are shared (dropped rows stay, outside
    ``rows``); else the store is the row-repeated copy.
    """
    bounds = {WINDOW_START: starts, WINDOW_END: ends}
    if len(rows) > 1 and not (np.diff(rows) > 0).all():  # a row in several windows
        return store.take(rows).with_doubles(bounds), None
    n = len(store)
    if len(rows) == n:
        return store.with_doubles(bounds), None
    present = np.zeros(n, dtype=bool)
    present[rows] = True
    for label, values in bounds.items():
        bounds[label] = np.zeros(n)
        bounds[label][rows] = values
    return store.with_doubles(bounds, present), rows


def stamp_record(
    record: Record,
    event_time: float,
    assigner: WindowAssigner,
) -> List[Record]:
    """Expand ``record`` into one stamped copy per containing window."""
    return [
        record.with_entries({WINDOW_START: start, WINDOW_END: end})
        for start, end in assigner.assign(event_time)
    ]


def stamp_records(
    records: Iterable[Record],
    assigner: WindowAssigner,
    *,
    time_attribute: str = DEFAULT_TIME_ATTRIBUTE,
    clock: Optional[EventClock] = None,
) -> List[Record]:
    """Stamp a whole batch with one shared clock (single logical source).

    Un-timed records (no time attribute, no duration) are dropped — they
    cannot be placed in any window.
    """
    clk = clock if clock is not None else EventClock(time_attribute)
    out: List[Record] = []
    for record in records:
        t = clk.event_time(record)
        if t is None:
            continue
        out.extend(stamp_record(record, t, assigner))
    return out
