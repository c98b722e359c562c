"""Tests for the streaming aggregation database."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregationDB, AggregationScheme, make_op
from repro.common import AggregationError, Record, ValueType, Variant

from ..conftest import record_lists


def scheme_count_sum(key=("function",), predicate=None):
    return AggregationScheme(
        ops=[make_op("count"), make_op("sum", ["time.duration"])],
        key=list(key),
        predicate=predicate,
    )


def plain(records):
    return sorted(
        (tuple(sorted(r.to_plain().items())) for r in records),
        key=repr,
    )


class TestProcessFlush:
    def test_grouping(self):
        db = AggregationDB(scheme_count_sum())
        for name, t in [("foo", 1), ("foo", 2), ("bar", 4)]:
            db.process(Record({"function": name, "time.duration": t}))
        out = {r["function"].value: r for r in db.flush()}
        assert out["foo"]["count"].value == 2
        assert out["foo"]["sum#time.duration"].value == 3
        assert out["bar"]["count"].value == 1

    def test_records_missing_key_get_own_entry(self):
        db = AggregationDB(scheme_count_sum())
        db.process(Record({"time.duration": 5}))
        (rec,) = db.flush()
        assert "function" not in rec
        assert rec["count"].value == 1

    def test_predicate_filters(self):
        scheme = scheme_count_sum(
            predicate=lambda r: r.get("function").to_string() != "skip"
        )
        db = AggregationDB(scheme)
        db.process(Record({"function": "keep", "time.duration": 1}))
        db.process(Record({"function": "skip", "time.duration": 1}))
        out = db.flush()
        assert len(out) == 1
        assert db.num_offered == 2 and db.num_processed == 1

    def test_flush_is_repeatable(self):
        db = AggregationDB(scheme_count_sum())
        db.process(Record({"function": "f", "time.duration": 1}))
        assert plain(db.flush()) == plain(db.flush())

    def test_clear(self):
        db = AggregationDB(scheme_count_sum())
        db.process(Record({"function": "f", "time.duration": 1}))
        db.clear()
        assert len(db) == 0 and db.flush() == []

    def test_percent_total_global_pass(self):
        scheme = AggregationScheme(
            ops=[make_op("percent_total", ["t"])], key=["k"]
        )
        db = AggregationDB(scheme)
        db.process(Record({"k": "a", "t": 30.0}))
        db.process(Record({"k": "b", "t": 70.0}))
        out = {r["k"].value: r["percent_total#t"].value for r in db.flush()}
        assert out["a"] == pytest.approx(30.0)
        assert out["b"] == pytest.approx(70.0)

    def test_wire_size_grows_with_entries(self):
        db = AggregationDB(scheme_count_sum())
        s0 = db.wire_size()
        for i in range(10):
            db.process(Record({"function": f"f{i}", "time.duration": 1}))
        assert db.wire_size() > s0


class TestCombine:
    def test_combine_disjoint_keys(self):
        a = AggregationDB(scheme_count_sum())
        b = AggregationDB(scheme_count_sum())
        a.process(Record({"function": "x", "time.duration": 1}))
        b.process(Record({"function": "y", "time.duration": 2}))
        a.combine(b)
        assert len(a) == 2

    def test_combine_overlapping_keys_adds(self):
        a = AggregationDB(scheme_count_sum())
        b = AggregationDB(scheme_count_sum())
        a.process(Record({"function": "x", "time.duration": 1}))
        b.process(Record({"function": "x", "time.duration": 2}))
        a.combine(b)
        (rec,) = a.flush()
        assert rec["count"].value == 2 and rec["sum#time.duration"].value == 3

    def test_combine_does_not_alias_states(self):
        a = AggregationDB(scheme_count_sum())
        b = AggregationDB(scheme_count_sum())
        b.process(Record({"function": "x", "time.duration": 2}))
        a.combine(b)
        a.process(Record({"function": "x", "time.duration": 5}))
        (rec_b,) = b.flush()
        assert rec_b["sum#time.duration"].value == 2  # b unchanged

    def test_combine_scheme_mismatch(self):
        a = AggregationDB(scheme_count_sum(key=("function",)))
        b = AggregationDB(scheme_count_sum(key=("kernel",)))
        with pytest.raises(AggregationError):
            a.combine(b)


@given(record_lists, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_partitioned_combine_equals_single_pass(recs, parts):
    """Splitting a stream across partial DBs then combining == one DB."""
    def fresh():
        return AggregationDB(
            AggregationScheme(
                ops=[make_op("count"), make_op("sum", ["time.duration"]),
                     make_op("min", ["mpi.rank"]), make_op("max", ["mpi.rank"])],
                key=["function", "kernel"],
            )
        )

    single = fresh()
    single.process_all(recs)

    partials = [fresh() for _ in range(parts)]
    for i, rec in enumerate(recs):
        partials[i % parts].process(rec)
    merged = fresh()
    for p in partials:
        merged.combine(p)

    assert plain(merged.flush()) == plain(single.flush())


class TestStateTransfer:
    """export_states / load_states: the portable partial-result wire format."""

    def seed(self):
        db = AggregationDB(scheme_count_sum())
        for name, t in [("foo", 1.0), ("foo", 2.0), ("bar", 4.0), (None, 8.0)]:
            entries = {"time.duration": t}
            if name is not None:
                entries["function"] = name
            db.process(Record(entries))
        return db

    def test_roundtrip_into_empty_db(self):
        src = self.seed()
        dst = AggregationDB(scheme_count_sum())
        dst.load_states(
            src.export_states(), offered=src.num_offered, processed=src.num_processed
        )
        assert plain(dst.flush()) == plain(src.flush())
        assert dst.num_offered == src.num_offered
        assert dst.num_processed == src.num_processed

    def test_load_merges_with_combine_semantics(self):
        src = self.seed()
        dst = self.seed()
        dst.load_states(src.export_states())
        doubled = {r.get("function").to_string(): r for r in dst.flush()}
        assert doubled["foo"]["count"].value == 4
        assert doubled["foo"]["sum#time.duration"].value == 6.0

    def test_exported_states_are_copied_on_load(self):
        src = self.seed()
        dst = AggregationDB(scheme_count_sum())
        dst.load_states(src.export_states())
        dst.process(Record({"function": "foo", "time.duration": 100.0}))
        foo = {r.get("function").to_string(): r for r in src.flush()}["foo"]
        assert foo["sum#time.duration"].value == 3.0  # source unaffected

    def test_loaded_groups_land_on_the_keys_records_would(self):
        # load_states builds keys from the bare entries: a missing and an
        # empty key attribute are one key, Variant-equal numbers another, and
        # the first Variant seen stays the key — all exactly as extract() has it
        def states_of(entries):
            db = AggregationDB(scheme_count_sum(key=("function", "rank")))
            db.process(Record.from_variants(dict(entries)))
            ((_key, states),) = db.export_states()
            return states

        groups = [
            {"function": Variant.of("f"), "rank": Variant.of(1)},
            {"function": Variant.of("f"), "rank": Variant.of(1.0)},
            {"function": Variant.of("f")},
            {"function": Variant.of("f"), "rank": Variant.empty()},
            {"rank": Variant.of(1), "other": Variant.of("ignored")},
        ]
        loaded = AggregationDB(scheme_count_sum(key=("function", "rank")))
        processed = AggregationDB(scheme_count_sum(key=("function", "rank")))
        for entries in groups:
            loaded.load_states([(entries, states_of(entries))])
            processed.process(Record.from_variants(dict(entries)))
        assert loaded.export_states() == processed.export_states()
        assert len(loaded) == 3
        rank = loaded.export_states()[0][0]["rank"]
        assert (rank.type, rank.value) == (ValueType.INT, 1)


def test_wire_size_uses_cached_cell_count():
    # 8 bytes per key slot + per state cell + per-entry header
    db = AggregationDB(scheme_count_sum())
    cells = sum(op.state_width() for op in db.scheme.ops)
    key_width = len(db.scheme.key)
    empty = db.wire_size()
    db.process(Record({"function": "f", "time.duration": 1}))
    db.process(Record({"function": "g", "time.duration": 1}))
    assert db.wire_size() == empty + 2 * (8 * key_width + 8 * cells + 8)


class TestIntrospectionInvariants:
    """memory_footprint / wire_size / num_entries stay mutually consistent.

    These are the numbers the observability layer exports (Table I's
    ``# DB entries`` and memory columns), so their invariants get pinned
    down explicitly here.
    """

    def test_footprint_grows_on_new_group_only(self):
        db = AggregationDB(scheme_count_sum())
        assert db.memory_footprint() == 0
        db.process(Record({"function": "a", "time.duration": 1}))
        one_group = db.memory_footprint()
        assert one_group > 0
        # updating an existing group must not allocate new state cells
        db.process(Record({"function": "a", "time.duration": 2}))
        assert db.memory_footprint() == one_group
        # a new group adds exactly one group's worth of cells
        db.process(Record({"function": "b", "time.duration": 1}))
        assert db.memory_footprint() == 2 * one_group

    def test_wire_size_matches_export_payload(self):
        db = AggregationDB(scheme_count_sum())
        for name in ("a", "b", "c", "a"):
            db.process(Record({"function": name, "time.duration": 1}))
        key_width = max(1, len(db.scheme.key))
        expected = 16 + sum(
            8 * key_width + 8 * sum(len(s) for s in states) + 8
            for _key, states in db.export_states()
        )
        assert db.wire_size() == expected

    def test_num_entries_tracks_export_states(self):
        db = AggregationDB(scheme_count_sum())
        assert db.num_entries == len(db.export_states()) == 0
        for name in ("a", "b", "b", "c"):
            db.process(Record({"function": name, "time.duration": 1}))
            assert db.num_entries == len(db.export_states()) == len(db)

    def test_invariants_survive_state_transfer(self):
        src = AggregationDB(scheme_count_sum())
        for name in ("a", "b"):
            src.process(Record({"function": name, "time.duration": 1}))
        dst = AggregationDB(scheme_count_sum())
        dst.process(Record({"function": "b", "time.duration": 1}))
        dst.load_states(src.export_states())
        # 'b' merged, 'a' added: entries and footprint reflect the union
        assert dst.num_entries == 2
        assert dst.memory_footprint() == src.memory_footprint()
        assert dst.wire_size() == src.wire_size()

    def test_partial_keys_counted_lazily(self):
        db = AggregationDB(scheme_count_sum(key=("function", "rank")))
        assert db.num_partial_keys == 0
        db.process(Record({"function": "f", "rank": 0, "time.duration": 1}))
        assert db.num_partial_keys == 0
        db.process(Record({"function": "g", "time.duration": 1}))  # no rank
        db.process(Record({"time.duration": 1}))  # no key at all
        assert db.num_partial_keys == 2
        assert db.num_entries == 3


class TestNanKeys:
    """A NaN equals nothing, not even itself; keys group same-bit NaNs by
    bit pattern whichever objects carry them, as the state table does."""

    SCHEME = AggregationScheme([make_op("count")], key=["x"])

    @staticmethod
    def nan(payload: int = 0) -> Variant:
        import struct

        bits = 0x7FF8000000000000 | payload
        return Variant.double(struct.unpack("<d", struct.pack("<Q", bits))[0])

    def test_fresh_nan_objects_share_one_entry(self):
        db = AggregationDB(self.SCHEME)
        for _ in range(3):
            db.process(Record.from_variants({"x": self.nan()}))
        assert [r.get("count").value for r in db.flush()] == [3]

    def test_nan_payloads_stay_apart(self):
        db = AggregationDB(self.SCHEME)
        for payload in (0, 1, 0):
            db.process(Record.from_variants({"x": self.nan(payload)}))
        assert sorted(r.get("count").value for r in db.flush()) == [1, 2]

    def test_combine_and_state_table_batches_agree(self):
        from repro.aggregate import StateTable

        left, right = AggregationDB(self.SCHEME), AggregationDB(self.SCHEME)
        table = StateTable(self.SCHEME)
        for db in (left, right):
            db.process(Record.from_variants({"x": self.nan()}))
            table.fold([Record.from_variants({"x": self.nan()})])
        left.combine(right)
        assert [r.get("count").value for r in left.flush()] == [2]
        assert [r.get("count").value for r in table.flush()] == [2]
