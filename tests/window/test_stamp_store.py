"""The column op against the written rule: ``stamp_store`` == ``stamp``.

``stamp`` below is the window / lateness / retirement rule of
``docs/streaming.md`` written record by record; ``stamp_store`` is what a
server runs, over the decoded column batch.  Two fronts are fed the same
multi-source schedule, one through each; after every step the records
hydrated from ``stamp_store``'s ``(store, rows)`` must be ``stamp``'s list —
same order, same types, same float bits — and the clocks, the tracker and the
counters must sit in the same place.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calql import parse_scheme
from repro.common import Record
from repro.io.colfile import decode_batch_store, encode_batch, records_from_store
from repro.window import (
    WINDOW_END,
    SlidingWindows,
    TumblingWindows,
    WindowAssigner,
    WindowFront,
    stamp_record,
)

from ..conftest import examples

SCHEME = parse_scheme("AGGREGATE count, sum(v) GROUP BY k")
SOURCES = ("p0", "p1", "p2")

halves = st.integers(-4, 120).map(lambda i: 0.5 * i)  # near the others: stragglers
time_values = st.one_of(
    halves,
    halves,
    st.integers(0, 60),  # an INT column, or a mixed one beside floats
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, True, "7", 1e-320, 2.0**60]),
)
durations = st.one_of(
    st.integers(0, 12).map(lambda i: 0.25 * i),
    st.floats(-2.0, 50.0, allow_nan=False),
    st.sampled_from([math.nan, math.inf, False, "long", 3]),
)


@st.composite
def rows(draw, timed, with_duration) -> Record:
    entries = {"k": f"k{draw(st.integers(0, 3))}", "v": 0.25 * draw(st.integers(0, 8))}
    if draw(timed):
        entries["time.start"] = draw(time_values)
    if draw(with_duration):
        entries["time.duration"] = draw(durations)
    if draw(st.integers(0, 9)) == 0:  # a producer's own column of that name loses
        entries["window.start"] = draw(st.sampled_from(["mine", 3.5]))
    return Record(entries)


yes, no, maybe = st.just(True), st.just(False), st.booleans()
batches = st.one_of(
    st.lists(rows(yes, maybe), min_size=1, max_size=8),  # timed
    st.lists(rows(no, yes), min_size=1, max_size=8),  # duration-only: the relative clock
    st.lists(rows(maybe, maybe), min_size=1, max_size=10),  # mixed, some un-timed
    st.lists(rows(no, no), min_size=1, max_size=3),  # un-timed
)
steps = st.one_of(
    st.tuples(st.sampled_from(SOURCES), batches),
    st.tuples(st.sampled_from(SOURCES), batches),
    st.just("retire"),
)


def stamp(front: WindowFront, source: str, records) -> tuple[list[Record], int, int]:
    """The rule record by record, on ``front``'s clock, tracker, retire
    floor and counters: ``(stamped copies to fold, late, un-timed)``."""
    clock = front._clock(source)
    tracker, floor = front.tracker, front.retire_floor
    stamped, late, untimed = [], 0, 0
    for record in records:
        t = clock.event_time(record)  # rules 1 and 2
        if t is None:
            untimed += 1
            continue
        if tracker.is_late(t, source):  # rule 3
            late += 1
            continue
        tracker.observe(source, t)
        copies = [
            copy for copy in stamp_record(record, t, front.assigner)  # rule 4
            if floor is None or copy.get(WINDOW_END).value > floor  # rule 5
        ]
        stamped.extend(copies)
        late += not copies  # rule 6
    front.num_late += late
    front.num_untimed += untimed
    return stamped, late, untimed


def exact(records) -> list:
    """Records as comparable data that tells 1 from 1.0 and 0.0 from -0.0."""
    return [sorted((k, v.type.value, repr(v.value)) for k, v in r.items()) for r in records]


def state(front: WindowFront) -> tuple:
    offsets = {source: repr(clock._offset) for source, clock in front._clocks.items()}
    sources = {source: repr(mark) for source, mark in front.tracker.sources.items()}
    return (front.num_late, front.num_untimed, sources, repr(front.watermark()), offsets)


@settings(max_examples=examples(300), deadline=None)
@given(
    schedule=st.lists(steps, min_size=1, max_size=12),
    window=st.sampled_from(["tumbling(10s)", "sliding(10s, 5s)", "sliding(7s, 2s)", "tumbling(300ms)"]),
    lateness=st.sampled_from([0.0, 2.0]),
)
def test_stamp_store_is_stamp(schedule, window, lateness):
    by_record = WindowFront(SCHEME, window, lateness=lateness)
    by_column = WindowFront(SCHEME, window, lateness=lateness)
    for step in schedule:
        if step == "retire":  # rows below this floor are dropped from now on
            for front in (by_record, by_column):
                mark = front.watermark()
                if mark is not None:
                    front.finalize(mark, [])
            assert by_record.retire_floor == by_column.retire_floor
            continue
        source, batch = step
        want, want_late, want_untimed = stamp(by_record, source, batch)
        store = decode_batch_store(encode_batch(batch))
        stamped, picked, late, untimed = by_column.stamp_store(source, store)
        assert exact(records_from_store(stamped, picked)) == exact(want)
        assert (late, untimed) == (want_late, want_untimed)
        assert late + untimed <= len(batch)
        assert state(by_column) == state(by_record)
        assert math.isfinite(by_column._clocks[source]._offset)


def test_signed_zero_twins_leave_the_tracker_where_stamp_does():
    """The first of two equal maxima sets the front, as the loop's strict
    ``>`` keeps it — numpy's ``max`` may return the later twin."""
    for first, second in ((0.0, -0.0), (-0.0, 0.0), (0, -0.0), (-0.0, 0)):
        batch = [Record({"k": "k0", "v": 0.0, "time.start": t}) for t in (first, second)]
        by_record, by_column = WindowFront(SCHEME, "tumbling(10s)"), WindowFront(SCHEME, "tumbling(10s)")
        stamp(by_record, "p0", batch)
        by_column.stamp_store("p0", decode_batch_store(encode_batch(batch)))
        assert state(by_column) == state(by_record)


def test_a_custom_assigner_is_stamped_through_its_own_assign():
    class EveryOther(WindowAssigner):
        """Even seconds get a window, odd ones none: not a built-in shape."""

        kind = "every-other"
        size = 1.0

        def assign(self, event_time):
            start = float(math.floor(event_time))
            return [(start, start + 1.0)] if start % 2 == 0 else []

        def describe(self):
            return "every-other"

    batch = [Record({"k": "a", "v": 1.0, "time.start": 0.5 * i}) for i in range(12)]
    by_record, by_column = WindowFront(SCHEME, EveryOther()), WindowFront(SCHEME, EveryOther())
    want, want_late, _ = stamp(by_record, "p", batch)
    stamped, picked, late, _ = by_column.stamp_store("p", decode_batch_store(encode_batch(batch)))
    assert exact(records_from_store(stamped, picked)) == exact(want)
    assert late == want_late == 6  # an event with no window counts late


def test_vector_assign_is_assign_at_awkward_times():
    times = np.array([-0.0, 0.0, -1e-320, 1e-320, 0.3 - 1e-17, 0.3, 0.6, 0.8999999999999999,
                      -7.3, 2.0**60, 123456.789, 29.999999999999996])
    for assigner in (TumblingWindows(0.3), TumblingWindows(10.0), SlidingWindows(0.9, 0.3),
                     SlidingWindows(10.0, 3.0), SlidingWindows(1.0, 1.0)):
        event, starts, ends = assigner.assign_all(times)
        if event is None:
            event = np.arange(len(times))
        want = [(i, *window) for i, t in enumerate(times.tolist()) for window in assigner.assign(t)]
        got = list(zip(event.tolist(), starts.tolist(), ends.tolist()))
        assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]
