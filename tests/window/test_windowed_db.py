"""WindowedAggregationDB: stamping, retirement, late accounting, exactness.

The hypothesis property at the bottom is the windowing acceptance
contract in miniature: over any in-order stream, retired windows' final
results exactly equal a batch aggregation of the same records restricted
to those windows — and records arriving beyond the configured lateness
are counted, never folded.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.db import AggregationDB
from repro.calql import parse_scheme
from repro.common import Record, Variant
from repro.window import WindowedAggregationDB, dewindowize_scheme, windowize_scheme

SCHEME_TEXT = "AGGREGATE count, sum(v) GROUP BY k"


def rec(k: str, t: float, v: float) -> Record:
    return Record.from_variants(
        {
            "k": Variant.of(k),
            "time.start": Variant.of(float(t)),
            "v": Variant.of(float(v)),
        }
    )


def summarize(records) -> dict:
    return {
        (
            r.get("k").to_string(),
            r.get("window.start").value,
            r.get("window.end").value,
        ): (r.get("count").value, r.get("sum#v").value)
        for r in records
    }


def batch_reference(records) -> dict:
    """Serial batch aggregation with windows as plain key attributes."""
    from repro.window import stamp_records, make_assigner

    scheme = windowize_scheme(parse_scheme(SCHEME_TEXT))
    db = AggregationDB(scheme)
    for stamped in stamp_records(records, make_assigner("tumbling(10s)")):
        db.process(stamped)
    return summarize(db.flush())


class TestSchemeAugmentation:
    def test_windowize_adds_keys_and_moments(self):
        scheme = windowize_scheme(parse_scheme(SCHEME_TEXT))
        assert scheme.key[-2:] == ("window.start", "window.end")
        assert "est_moments(v)" in scheme.describe()

    def test_windowize_is_idempotent(self):
        scheme = windowize_scheme(parse_scheme(SCHEME_TEXT))
        assert windowize_scheme(scheme) is scheme

    def test_augmented_text_round_trips(self):
        scheme = windowize_scheme(parse_scheme(SCHEME_TEXT))
        assert parse_scheme(scheme.describe()).describe() == scheme.describe()

    def test_dewindowize_restores_base(self):
        base = parse_scheme(SCHEME_TEXT)
        assert dewindowize_scheme(windowize_scheme(base)).describe() == base.describe()


class TestWindowedDB:
    def make(self, **kwargs) -> WindowedAggregationDB:
        kwargs.setdefault("lateness", 5.0)
        return WindowedAggregationDB(
            parse_scheme(SCHEME_TEXT), "tumbling(10s)", **kwargs
        )

    def test_fold_and_results_match_batch(self):
        records = [rec(f"k{i % 2}", i, 1.0) for i in range(40)]
        wdb = self.make()
        assert wdb.process_all(records) == 40
        assert summarize(wdb.results()) == batch_reference(records)

    def test_watermark_and_retirement(self):
        records = [rec("a", i, 1.0) for i in range(40)]  # t in [0, 39]
        wdb = self.make()
        wdb.process_all(records)
        assert wdb.watermark() == 34.0
        retired = wdb.retire()
        # windows [0,10) [10,20) [20,30) closed below the mark
        assert {r.get("window.end").value for r in retired} == {10.0, 20.0, 30.0}
        ref = batch_reference(records)
        assert summarize(wdb.retired_results()) == {
            k: v for k, v in ref.items() if k[2] <= 34.0
        }
        # retired state left the live table; overall results still complete
        assert summarize(wdb.results()) == ref
        # retiring again emits nothing new
        assert wdb.retire() == []

    def test_late_records_counted_not_folded(self):
        wdb = self.make()
        wdb.process(rec("a", 39.0, 1.0))
        assert not wdb.process(rec("a", 31.0, 1.0))  # 39 - 5 = 34 > 31
        assert wdb.num_late == 1
        assert wdb.process(rec("a", 35.0, 1.0))  # within lateness
        assert summarize(wdb.results())[("a", 30.0, 40.0)] == (2, 2.0)

    def test_untimed_records_counted_not_folded(self):
        wdb = self.make()
        assert not wdb.process(Record.from_variants({"k": Variant.of("a")}))
        assert wdb.num_untimed == 1 and len(wdb) == 0

    def test_post_retirement_stragglers_do_not_unretire(self):
        wdb = self.make()
        wdb.process_all([rec("a", t, 1.0) for t in (0.0, 5.0, 39.0)])
        wdb.retire()
        assert wdb.retire_floor == 34.0
        # a fresh source's replayed history is not "late" per-source, but
        # its already-retired windows stay final
        assert not wdb.process(rec("a", 2.0, 99.0), source="replay")
        assert summarize(wdb.retired_results())[("a", 0.0, 10.0)] == (2, 2.0)

    def test_sliding_windows_fold_every_copy(self):
        wdb = WindowedAggregationDB(
            parse_scheme(SCHEME_TEXT), "sliding(20s, 10s)", lateness=0.0
        )
        wdb.process(rec("a", 15.0, 1.0))
        got = summarize(wdb.results())
        assert set(got) == {("a", 0.0, 20.0), ("a", 10.0, 30.0)}

    def test_duration_only_stream_windows_by_accumulated_time(self):
        wdb = self.make(time_attribute="time.start")
        for _ in range(50):
            wdb.process(
                Record.from_variants(
                    {"k": Variant.of("a"), "v": Variant.of(1.0),
                     "time.duration": Variant.of(1.0)}
                )
            )
        got = summarize(wdb.results())
        # accumulated event times 0..49 -> five full 10s windows
        assert {k[1:] for k in got} == {
            (0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0), (40.0, 50.0)
        }
        assert all(v == (10, 10.0) for v in got.values())


#: in-order event streams: non-decreasing quarter-second times
@st.composite
def ordered_streams(draw):
    deltas = draw(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60)
    )
    t = 0.0
    out = []
    for i, d in enumerate(deltas):
        t += d * 0.25
        out.append(rec(f"k{i % 2}", t, 0.25 * (i % 7)))
    return out


class TestExactnessProperty:
    @given(records=ordered_streams(), lateness=st.sampled_from([0.0, 2.0, 7.5]))
    @settings(max_examples=60, deadline=None)
    def test_retired_equals_batch_restricted_to_retired_windows(
        self, records, lateness
    ):
        wdb = WindowedAggregationDB(
            parse_scheme(SCHEME_TEXT), "tumbling(10s)", lateness=lateness
        )
        wdb.process_all(records)
        # in-order streams are never late, so everything folds
        assert wdb.num_late == 0
        mark = wdb.watermark()
        wdb.retire()
        ref = batch_reference(records)
        expected = {k: v for k, v in ref.items() if k[2] <= mark}
        assert summarize(wdb.retired_results()) == expected
        assert summarize(wdb.results()) == ref
