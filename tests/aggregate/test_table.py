"""The state table's own operations and its wire form, against the row engine.

Each property folds the same rows into an ``AggregationDB`` (the generic
per-record plan: the reference) and into :class:`StateTable` s, applies the
operation under test to both, and compares ``exact()`` exports: Variants by
type, floats by bit pattern, cells by type.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.aggregate import AggregationDB
from repro.aggregate.table import StateTable
from repro.calql import parse_scheme
from repro.common import Record, ValueType, Variant
from repro.io import colfile
from repro.io.colfile import decode_batch_store, encode_batch, states_from_binary, states_to_binary
from repro.net.protocol import ProtocolError, table_from_binary
from repro.window.db import closed_below

from ..conftest import examples, records
from ..query.test_column_fold import SCHEME, exact, rows

#: a scheme keyed by a window end, for pop
WINDOWED = parse_scheme("AGGREGATE count, sum(x), min(x), first(function) GROUP BY kernel, window.end")

window_rows = st.builds(
    lambda row, end: Record.from_variants(
        {**dict(row.items()), **({} if end is None else {"window.end": Variant.of(end)})}
    ),
    rows(),
    st.sampled_from([None, 1.0, 2, 2.5, -0.0, "late", True]),
)
batches = st.lists(st.lists(rows(), max_size=10), min_size=1, max_size=4)


def folded(scheme, *batches):
    """A table and the reference DB, each batch folded in turn."""
    table, db = StateTable(scheme), AggregationDB(scheme, "generic")
    for batch in batches:
        table.fold(decode_batch_store(encode_batch(batch)))
        db.process_all(batch)
    return table, db


@given(batches, st.randoms(use_true_random=False))
@settings(max_examples=examples(25), deadline=None)
def test_merge_equals_db_combine_in_any_order(parts, random):
    order = list(range(len(parts)))
    random.shuffle(order)
    merged, combined = StateTable(SCHEME), AggregationDB(SCHEME, "generic")
    for i in order:
        table, db = folded(SCHEME, parts[i])
        assert merged.merge(table)
        combined.combine(db)
    assert exact(merged) == exact(combined)
    assert (merged.num_offered, merged.num_processed) == (
        combined.num_offered, combined.num_processed
    )


@given(batches)
@settings(max_examples=examples(15), deadline=None)
def test_a_repeated_key_in_a_source_merges_in_order(parts):
    # a list of groups may name a key twice: merged in order it equals
    # loading the groups one after another
    groups = [group for part in parts for group in folded(SCHEME, part)[1].export_states()]
    merged, loaded = StateTable(SCHEME), AggregationDB(SCHEME, "generic")
    merged.merge(StateTable.from_states(SCHEME, groups))
    loaded.load_states(groups)
    assert exact(merged) == exact(loaded)


@given(st.lists(rows(), max_size=10), st.lists(rows(), max_size=10))
@settings(max_examples=examples(15), deadline=None)
def test_a_copy_taken_before_further_folds_does_not_tear(first, then):
    table, _db = folded(SCHEME, first)
    snapshot = table.copy()
    want = exact(snapshot)
    table.fold(then)
    assert exact(snapshot) == want == exact(folded(SCHEME, first)[1])


@given(st.lists(rows(), max_size=10), st.lists(rows(), max_size=10))
@settings(max_examples=examples(15), deadline=None)
def test_take_leaves_an_empty_table_and_the_same_totals(first, then):
    table, db = folded(SCHEME, first)
    taken = table.take()
    assert len(table) == 0 and table.export_states() == []
    assert (table.num_offered, table.num_processed) == (0, 0)
    assert exact(taken) == exact(db)
    assert (taken.num_offered, taken.num_processed) == (db.num_offered, db.num_processed)
    table.fold(then)
    assert exact(table) == exact(folded(SCHEME, then)[1])


@given(st.lists(st.lists(window_rows, max_size=10), min_size=1, max_size=3),
       st.sampled_from([0.0, 1.0, 2.0, 2.5, 10.0]))
@settings(max_examples=examples(25), deadline=None)
def test_pop_by_window_end_equals_pop_entries(parts, mark):
    table, db = folded(WINDOWED, *parts)
    popped = table.pop("window.end", mark)
    want = db.pop_entries(closed_below(mark))
    done = AggregationDB(WINDOWED, "generic")
    done.load_states(want)
    assert exact(popped) == exact(done)
    assert exact(table) == exact(db)
    table.fold(parts[0])  # the compacted table still folds
    db.process_all(parts[0])
    assert exact(table) == exact(db)


def test_key_values_and_class_ids_stay_bounded_by_the_live_slots():
    # every window brings a new window.end; popping its closed windows (a
    # shard, a relay's forwarded table) or handing them over with take()
    # (a relay's delta) must drop what only the removed slots used
    shard, forwarded = StateTable(WINDOWED), StateTable(WINDOWED)
    for end in range(1, 120):
        batch = [
            Record.from_variants({"kernel": Variant.of(f"k{i % 3}"), "x": Variant.of(float(i)),
                                  "window.end": Variant.of(float(end + i % 2))})
            for i in range(12)
        ]
        shard.fold(batch)
        forwarded.merge(shard.take())
        assert len(shard) == 0
        assert not any(shard._values) and not any(shard._classes)
        shard.fold(batch)
        for table in (shard, forwarded):
            table.pop("window.end", float(end))
            assert len(table) == 3  # one open window, three kernels
            assert [len(v) for v in table._values] == [3, 1]
            assert [len(c) for c in table._classes] == [3, 1]


# -- the wire --------------------------------------------------------------------------


@given(batches)
@settings(max_examples=examples(25), deadline=None)
def test_the_table_codec_is_the_list_codec(parts):
    table, db = folded(SCHEME, *parts)
    blob = table.to_binary()
    assert blob == states_to_binary(table.export_states())
    decoded = StateTable.from_binary(SCHEME, blob)
    assert exact(decoded) == exact(db)
    assert exact(StateTable.from_states(SCHEME, states_from_binary(blob))) == exact(db)


@given(st.lists(records(), max_size=12), st.randoms(use_true_random=False))
@settings(max_examples=examples(50), deadline=None)
def test_a_column_encodes_by_what_its_rows_hold(batch, random):
    # a table's dictionaries list values in any order, some no shipped row
    # uses: the bytes are still those of the records the rows stand for
    spare = Variant(ValueType.USR, "unused")  # no record here holds a USR
    columns = []
    for label, codes, values in colfile.entry_columns([r._entries for r in batch]):
        order = list(range(len(values)))
        random.shuffle(order)
        position = np.argsort(order)
        shuffled = [spare] + [values[i] for i in order]
        columns.append((label, np.where(codes >= 0, position[codes] + 1, -1), shuffled))
    assert colfile.encode_columns(len(batch), columns) == encode_batch(batch)


@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=20))
def test_vectorized_varints_are_the_scalar_ones(values):
    scalar = bytearray()
    for x in values:
        colfile._write_varint(scalar, colfile._zigzag(x))
    blob = colfile._varints(np.array(values, dtype=np.int64))
    assert blob == bytes(scalar)
    assert colfile._read_varints(memoryview(blob), len(values)).tolist() == values


def test_an_int_cell_outside_64_bits_is_generic_on_the_wire_and_refused_as_a_table():
    scheme = parse_scheme("AGGREGATE count GROUP BY k")
    groups = [({"k": Variant.of("a")}, [[2**70]])]
    blob = states_to_binary(groups)
    assert states_from_binary(blob) == groups  # the list form keeps it
    with pytest.raises(ProtocolError, match="64 bits"):
        table_from_binary(scheme, blob)
    # an int slot whose varint runs past 64 bits is refused too
    bad = bytearray(blob)
    with pytest.raises(ProtocolError):
        table_from_binary(scheme, bytes(bad[:-3]))


@pytest.mark.parametrize(
    "groups, match",
    [
        ([({}, [[1], [1]])], "operator states"),
        ([({}, [[1, 2]])], "cells"),
        ([({}, [["one"]])], "count"),
        ([({}, [[True]])], "count"),
    ],
)
def test_a_state_batch_that_does_not_fit_the_scheme_is_refused(groups, match):
    scheme = parse_scheme("AGGREGATE count")
    with pytest.raises(ProtocolError, match=match):
        table_from_binary(scheme, states_to_binary(groups))


# -- golden bytes: what the list-form encoder wrote before the table existed ----------

GOLDEN_SCHEME = parse_scheme(
    "AGGREGATE count, sum(x), min(x), max(x), max(y), histogram(x,2,0,1), first(tag) "
    "GROUP BY k, r"
)


def _group(entries, count, sums, low, high, bins, first):
    return (entries, [[count], sums, [low], [high], [None], bins, [first]])


V, T = Variant, ValueType
#: a missing key label, int / double / -0.0 keys, a mixed-type key column,
#: int and float counts, a None min and first Variants of several types
GOLDEN_GROUPS = [
    _group({"k": V(T.STRING, "a"), "r": V(T.INT, 1)}, 3, [3, 1.5], 0.25, 0.75, [0, 2, 1, 0], V(T.STRING, "t1")),
    _group({"k": V(T.STRING, "b")}, 1, [1, 2.0], 2.0, 2.0, [0, 0, 0, 1], None),
    _group({"r": V(T.DOUBLE, 2.5)}, 2.5, [0, 0.0], None, None, [0, 0, 0, 0], V(T.INT, 7)),
    _group({"k": V(T.STRING, "c"), "r": V(T.DOUBLE, -0.0)}, 4, [2, -0.0], -0.0, 0.0, [0, 2, 0, 0], V(T.DOUBLE, -0.0)),
    _group({"k": V(T.INT, 5), "r": V(T.DOUBLE, 0.0)}, 1.0, [1, 0.5], 0.5, 0.5, [0, 0, 1, 0], V(T.BOOL, True)),
    _group({"k": V(T.DOUBLE, 1.0), "r": V(T.INT, -3)}, 7, [7, 1e16], -1e16, 1e16, [1, 3, 0, 3], V(T.STRING, "")),
    _group({}, 12.75, [2, 0.30000000000000004], 0.1, 0.2, [0, 2, 0, 0], V(T.UINT, 2**64 - 1)),
    _group({"k": V(T.STRING, "a"), "r": V(T.INT, 2)}, 2, [1, float("inf")], float("inf"), float("inf"), [0, 0, 0, 1], None),
    _group({"k": V(T.BOOL, True), "r": V(T.INT, 1)}, 5, [5, -2.5], -1.0, -0.5, [5, 0, 0, 0], V(T.STRING, "é")),
    _group({"k": V(T.STRING, "d"), "r": V(T.UINT, 9)}, 0, [0, 0.0], None, None, [0, 0, 0, 0], None),
]
GOLDEN = bytes.fromhex(
    "5253423100a801000052434231e00000007b22726f7773223a31302c22636f6c73223a5b7b226e616d65223a"
    "226b222c22656e63223a2264696374222c22636474223a223c6931222c22636f646573223a5b302c31305d2c"
    "2274616773223a5b31362c375d2c226f666673657473223a5b32342c33325d2c22626c6f62223a5b35362c32"
    "315d7d2c7b226e616d65223a2272222c22656e63223a2264696374222c22636474223a223c6931222c22636f"
    "646573223a5b38302c31305d2c2274616773223a5b39362c375d2c226f666673657473223a5b3130342c3332"
    "5d2c22626c6f62223a5b3133362c35365d7d5d7d000001ff020304ff00050600000000000004040401030504"
    "00000000000100000002000000030000000b0000001300000014000000150000006162630500000000000000"
    "000000000000f03f016400000000ff01020304ff050006000000000000010303030101020000000000080000"
    "0010000000180000002000000028000000300000003800000001000000000000000000000000000440000000"
    "00000000800000000000000000fdffffffffffffff0200000000000000090000000000000007000000010000"
    "00022b000000060a03060302040000000000000440030804000000000000f03f030e04000000000080294003"
    "04030a030002000000000c000000ffc006020004020e04020a000152000000ffc0000000000000f83f000000"
    "000000004000000000000000000000000000000080000000000000e03f0080e03779c34143343333333333d3"
    "3f000000000000f07f00000000000004c00000000000000000010000000142000000df80000000000000d03f"
    "00000000000000400000000000000080000000000000e03f0080e03779c341c39a9999999999b93f00000000"
    "0000f07f000000000000f0bf010000000142000000df80000000000000e83f00000000000000400000000000"
    "000000000000000000e03f0080e03779c341439a9999999999c93f000000000000f07f000000000000e0bf01"
    "0000000002000000000004000000000c000000ffc000000000000200000a00000c000000ffc0040000040006"
    "04000000000c000000ffc002000000020000000000000c000000ffc00002000000060002000001000000022e"
    "000000060a07040274310007010e070300000000000000800705010704000702feffffffffffffffff030007"
    "0402c3a900"
)


def exact_groups(groups):
    """``exact()`` of a list of groups, in order."""

    class Exported:
        def export_states(self):
            return groups

    return exact(Exported())


def test_golden_states_bytes_are_reproduced_by_both_encoders():
    assert states_to_binary(GOLDEN_GROUPS) == GOLDEN
    assert StateTable.from_states(GOLDEN_SCHEME, GOLDEN_GROUPS).to_binary() == GOLDEN


def test_golden_states_bytes_decode_to_the_same_states():
    want = exact_groups(GOLDEN_GROUPS)
    assert exact_groups(states_from_binary(GOLDEN)) == want
    table = StateTable.from_binary(GOLDEN_SCHEME, GOLDEN)
    assert [e for e, _ in table.export_states()] == [e for e, _ in GOLDEN_GROUPS]
    assert exact(table) == want
    # merged into an indexed table, slot by slot: still the same states
    merged = StateTable(GOLDEN_SCHEME)
    merged.merge(table)
    assert exact(merged) == want and merged.to_binary() == GOLDEN
