"""Window assignment: durations, assigners, event clocks, stamping.

The hypothesis properties here are the subsystem's contract:

* tumbling windows partition the time axis — every event lands in exactly
  one window, windows are disjoint and gap-free;
* sliding windows cover every event exactly ``size / slide`` times when
  the slide divides the size (and always contain the event).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Record, Variant
from repro.window import (
    DEFAULT_TIME_ATTRIBUTE,
    WINDOW_END,
    WINDOW_START,
    EventClock,
    SlidingWindows,
    TumblingWindows,
    WindowError,
    format_duration,
    make_assigner,
    parse_duration,
    stamp_record,
    stamp_records,
)

#: event times that keep float window arithmetic exact: multiples of 1/4
#: in a modest range, so start/end comparisons below are equalities.
event_times = st.integers(min_value=-(10**6), max_value=10**6).map(
    lambda n: n * 0.25
)

#: window sizes as small positive multiples of 1/4 seconds
quarter_sizes = st.integers(min_value=1, max_value=400).map(lambda n: n * 0.25)


class TestDurations:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("30s", 30.0),
            ("500ms", 0.5),
            ("2m", 120.0),
            ("1.5h", 5400.0),
            ("30", 30.0),
            (" 10s ", 10.0),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "-5s", "0", "10x", "nan"])
    def test_parse_rejects(self, bad):
        with pytest.raises(WindowError):
            parse_duration(bad)

    def test_format_round_trip(self):
        for seconds in (30.0, 0.5, 120.0, 90.0, 0.25):
            assert parse_duration(format_duration(seconds)) == seconds


class TestMakeAssigner:
    def test_from_string(self):
        a = make_assigner("tumbling(30s)")
        assert isinstance(a, TumblingWindows) and a.size == 30.0
        b = make_assigner("sliding(1m, 10s)")
        assert isinstance(b, SlidingWindows)
        assert b.size == 60.0 and b.slide == 10.0

    def test_passthrough_and_spec(self):
        a = TumblingWindows(5.0)
        assert make_assigner(a) is a
        from repro.calql import WindowSpec

        b = make_assigner(WindowSpec(kind="sliding", size=20.0, slide=5.0))
        assert isinstance(b, SlidingWindows) and b.slide == 5.0

    def test_rejects(self):
        for bad in ("tumbling", "hopping(3s)", "sliding(1s)", 42):
            with pytest.raises(WindowError):
                make_assigner(bad)

    def test_slide_must_not_exceed_size(self):
        with pytest.raises(WindowError):
            SlidingWindows(10.0, 20.0)


class TestTumblingProperties:
    @given(t=event_times, size=quarter_sizes)
    @settings(max_examples=200)
    def test_exactly_one_containing_window(self, t, size):
        windows = TumblingWindows(size).assign(t)
        assert len(windows) == 1
        start, end = windows[0]
        assert start <= t < end
        assert end - start == pytest.approx(size)

    @given(t=event_times, size=quarter_sizes)
    @settings(max_examples=200)
    def test_partition_is_disjoint_and_exhaustive(self, t, size):
        """Neighbouring events agree on boundaries: the windows tile time."""
        assigner = TumblingWindows(size)
        (start, end), = assigner.assign(t)
        # The window start is itself in the same window (half-open left edge),
        # and the end begins the *next* window: no overlap, no gap.
        assert assigner.assign(start)[0] == (start, end)
        (nstart, nend), = assigner.assign(end)
        assert nstart == end and nend == end + (end - start)


class TestSlidingProperties:
    @given(
        t=event_times,
        slide=quarter_sizes,
        factor=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200)
    def test_covers_exactly_size_over_slide_times(self, t, slide, factor):
        """With ``slide | size`` every event is in exactly size/slide windows."""
        size = slide * factor
        windows = SlidingWindows(size, slide).assign(t)
        assert len(windows) == math.ceil(size / slide) == factor
        for start, end in windows:
            assert start <= t < end
            assert end - start == pytest.approx(size)
        # starts are consecutive multiples of the slide
        starts = [w[0] for w in windows]
        assert starts == sorted(starts)
        for a, b in zip(starts, starts[1:]):
            assert b - a == pytest.approx(slide)

    @given(t=event_times, size=quarter_sizes, slide=quarter_sizes)
    @settings(max_examples=200)
    def test_every_window_contains_the_event(self, t, size, slide):
        if slide > size:
            slide = size
        for start, end in SlidingWindows(size, slide).assign(t):
            assert start <= t < end

    def test_slide_equals_size_is_tumbling(self):
        s = SlidingWindows(10.0, 10.0)
        t = TumblingWindows(10.0)
        for x in (0.0, 3.5, 9.99, 10.0, -0.25, 123.75):
            assert s.assign(x) == t.assign(x)


class TestEventClock:
    def test_explicit_attribute(self):
        clock = EventClock(DEFAULT_TIME_ATTRIBUTE)
        r = Record.from_variants({"time.start": Variant.of(12.5)})
        assert clock.event_time(r) == 12.5

    def test_duration_fallback_accumulates(self):
        clock = EventClock()
        times = [
            clock.event_time(
                Record.from_variants({"time.duration": Variant.of(2.0)})
            )
            for _ in range(4)
        ]
        assert times == [0.0, 2.0, 4.0, 6.0]

    def test_mixed_streams_stay_ordered(self):
        clock = EventClock()
        assert clock.event_time(
            Record.from_variants({"time.start": Variant.of(10.0)})
        ) == 10.0
        # a following duration-only record continues from the offset
        assert (
            clock.event_time(
                Record.from_variants({"time.duration": Variant.of(1.0)})
            )
            == 10.0
        )

    def test_untimed_is_none(self):
        clock = EventClock()
        assert clock.event_time(Record.from_variants({"k": Variant.of("a")})) is None

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_values_are_untimed_and_never_reach_the_clock(self, bad):
        clock = EventClock()
        assert clock.event_time(Record({"time.start": 3.0})) == 3.0
        # a bad time is not replaced by the duration beside it either
        assert clock.event_time(Record({"time.start": bad, "time.duration": 1.0})) is None
        assert clock.event_time(Record({"time.duration": bad})) is None
        assert clock.event_time(Record({"time.duration": 1.0})) == 3.0
        assert clock.event_time(Record({"time.duration": 1.0})) == 4.0


class TestStamping:
    def test_stamp_record_adds_window_keys(self):
        r = Record.from_variants({"k": Variant.of("a")})
        stamped = stamp_record(r, 12.0, TumblingWindows(10.0))
        assert len(stamped) == 1
        s = stamped[0]
        assert s.get(WINDOW_START).value == 10.0
        assert s.get(WINDOW_END).value == 20.0
        assert s.get("k").to_string() == "a"

    def test_stamp_records_drops_untimed(self):
        records = [
            Record.from_variants({"time.start": Variant.of(1.0)}),
            Record.from_variants({"k": Variant.of("no-time")}),
            Record.from_variants({"time.start": Variant.of(25.0)}),
        ]
        stamped = stamp_records(records, TumblingWindows(10.0))
        assert len(stamped) == 2
        assert [s.get(WINDOW_START).value for s in stamped] == [0.0, 20.0]
