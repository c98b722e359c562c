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

from repro.aggregate import AggregationDB, AggregationScheme
from repro.aggregate.ops import PercentTotalOp, make_op
from repro.aggregate.table import StateTable
from repro.calql import parse_scheme
from repro.common import Record, ValueType, Variant
from repro.io import colfile
from repro.io.colfile import decode_batch_store, encode_batch, states_from_binary, states_to_binary
from repro.net.protocol import ProtocolError, table_from_binary
from repro.query.engine import QueryEngine

from ..conftest import examples, records
from ..query.test_column_fold import SCHEME, bits, exact, exact_value, rows

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


def row_merged(scheme, dbs):
    """The row engine's merge of partial folds: every input's generic fold,
    combined key by key in order by each operator's own ``combine`` (a new
    key starts from a copy of its states).  Not one fold of the concatenated
    rows: a merged sum adds partial sums (``a + (b + c)``), where one fold
    goes on from the running value (``(a + b) + c``)."""
    out = AggregationDB(scheme, "generic")
    for db in dbs:
        for key, states in db._table.items():
            mine = out._table.get(key)
            if mine is None:
                out._table[key] = [list(state) for state in states]
                continue
            for op, state, theirs in zip(scheme.ops, mine, states):
                op.combine(state, theirs)
        out.num_offered += db.num_offered
        out.num_processed += db.num_processed
    return out


@given(batches, st.randoms(use_true_random=False))
@settings(max_examples=examples(25), deadline=None)
def test_merge_equals_db_combine_in_any_order(parts, random):
    # the name is kept for the test's id; the reference is the row engine's
    # per-operator combine of each part's generic fold (``row_merged``)
    order = list(range(len(parts)))
    random.shuffle(order)
    merged, dbs = StateTable(SCHEME), []
    for i in order:
        table, db = folded(SCHEME, parts[i])
        assert merged.merge(table)
        dbs.append(db)
    combined = row_merged(SCHEME, dbs)
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
    # the name is kept for the test's id; the reference is the generic fold
    # of the rows whose window.end passes the same bound, and of the rest
    def closed(row):
        end = row.get("window.end")
        return end.is_numeric and float(end.value) <= mark

    table, _db = folded(WINDOWED, *parts)
    popped = table.pop("window.end", mark)
    done, db = AggregationDB(WINDOWED, "generic"), AggregationDB(WINDOWED, "generic")
    for part in parts:
        done.process_all(row for row in part if closed(row))
        db.process_all(row for row in part if not closed(row))
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


def test_a_state_batch_has_one_layout_and_ragged_groups_have_none():
    ragged = [({"k": Variant.of("a")}, [[1]]), ({"k": Variant.of("b")}, [[1, 2]])]
    with pytest.raises(colfile.ColfileError, match="widths"):
        states_to_binary(ragged)
    # mode 1, the layout ragged groups were once written in: the key batch,
    # then every group's states packed generically
    groups = [({"k": Variant.of("a")}, [[1]]), ({"k": Variant.of("b")}, [[2]])]
    keys = colfile.encode_columns(2, colfile.entry_columns([e for e, _ in groups]))
    blob = (
        colfile.STATES_MAGIC + bytes([1]) + colfile._U32.pack(len(keys)) + keys
        + bytes(colfile.pack_value([states for _, states in groups]))
    )
    with pytest.raises(colfile.ColfileError, match="unknown state batch mode 1"):
        states_from_binary(blob)
    with pytest.raises(ProtocolError, match="unknown state batch mode 1"):
        table_from_binary(parse_scheme("AGGREGATE count GROUP BY k"), blob)


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


# -- the output as columns: render() against the row engine's flush ---------------


def exact_rows(records):
    """Output records with nothing equal that is not the same: each entry by
    label, Variant type and double bit pattern, in the record's own label
    order; the records in the order given."""
    return [[(label, *exact_value(v)) for label, v in r.items()] for r in records]


def rendered(table):
    """The table's render, hydrated by the plain input hydration."""
    return colfile.records_from_store(table.render())


def list_form_flush(scheme, groups):
    """What a flush renders for ``(entries, states)`` groups, group by group:
    each operator's ``results()``, ``percent_total`` against Python's ``sum``
    of every group's total, in order."""
    totals = {
        i: sum(states[i][1] for _entries, states in groups)
        for i, op in enumerate(scheme.ops)
        if getattr(op, "needs_global_total", False)
    }
    out = []
    for entries, states in groups:
        data = {label: entries[label] for label in scheme.key if label in entries}
        for i, (op, state) in enumerate(zip(scheme.ops, states)):
            results = (
                op.results_with_total(state, totals[i]) if i in totals else op.results(state)
            )
            data.update(results)
        out.append(Record.from_variants(data))
    return out


def in_slot_order(table, db):
    """The reference DB's states re-inserted key by key in the table's slot
    order, so that its flush adds ``percent_total``'s total up in the order
    the table does (the sum of doubles depends on it)."""
    ordered = AggregationDB(db.scheme, "generic")
    ordered.load_states(
        (entries, db._table[key])
        for (entries, _states), key in zip(table.export_states(), table._keys())
    )
    return ordered


@given(batches)
@settings(max_examples=examples(40), deadline=None)
def test_render_hydrated_is_the_row_engine_flush(parts):
    table, db = folded(SCHEME, *parts)
    got = exact_rows(rendered(table))
    assert got == exact_rows(in_slot_order(table, db).flush())
    assert exact_rows(table.flush()) == got  # flush is render, hydrated


def render_matches_flush(scheme, *batches):
    """Fold the batches both ways; the render must be the row engine's
    flush.  Returns the rendered rows by their key entries."""
    table, db = folded(scheme, *batches)
    got = exact_rows(rendered(table))
    assert got == exact_rows(in_slot_order(table, db).flush())
    return {tuple(entry for entry in row if entry[0] in scheme.key): row for row in got}


SUMS = parse_scheme(
    "AGGREGATE count, sum(x), avg(x), min(x), max(x), variance(x), scale(x,3), ratio(x,y) "
    "GROUP BY k"
)


def test_a_zero_count_renders_no_sum_or_avg():
    groups = [({"k": Variant.of("a")}, [[0], [0, 0.0], [0, 0.0], [None], [None],
                                        [0, 0.0, 0.0], [0, 0.0], [0.0, 0.0]])]
    table = StateTable.from_states(SUMS, groups)
    got = exact_rows(rendered(table))
    assert got == exact_rows(list_form_flush(SUMS, groups))
    assert got == [[("k", T.STRING, "a"), ("count", T.UINT, 0)]]


def test_counts_render_as_uint_int_or_float_and_a_fraction_as_double():
    rows_ = [
        Record({"k": "int", "x": 1.0}), Record({"k": "int", "x": 2.0}),
        Record({"k": "w2", "x": 1.0, "sample.weight": 2.0}),
        Record({"k": "mixed", "x": 1.0}), Record({"k": "mixed", "x": 1.0, "sample.weight": 1.5}),
    ]
    by_key = render_matches_flush(SUMS, rows_)
    counts = {key[0][2]: dict((e[0], e[1:]) for e in row)["count"] for key, row in by_key.items()}
    assert counts == {"int": (T.UINT, 2), "w2": (T.UINT, 2), "mixed": (T.DOUBLE, bits(2.5))}


def test_sums_past_2_53_and_non_finite_values_keep_their_type_and_bits():
    rows_ = [
        Record({"k": "big", "x": float(2**60)}), Record({"k": "big", "x": 1.0}),
        Record({"k": "inf", "x": float("inf")}),
        Record({"k": "nan", "x": float("nan")}), Record({"k": "nan", "x": 1.0}),
        Record({"k": "negzero", "x": -0.0, "y": -0.0}),
        Record({"k": "frac", "x": 0.5, "y": 2}),
    ]
    by_key = render_matches_flush(SUMS, rows_)
    sums = {key[0][2]: dict((e[0], e[1:]) for e in row)["sum#x"] for key, row in by_key.items()}
    assert sums["big"] == (T.INT, 2**60)  # 2**60 + 1.0 rounds to 2**60: an int
    assert sums["inf"] == (T.DOUBLE, bits(float("inf")))
    assert sums["nan"] == (T.DOUBLE, "nan")
    assert sums["negzero"] == (T.INT, 0) and sums["frac"] == (T.DOUBLE, bits(0.5))
    # a -0.0 sum state (only a merge of list-form states can hold one)
    groups = [({"k": Variant.of("z")}, [[1], [1, -0.0], [1, -0.0], [-0.0], [-0.0],
                                        [1, -0.0, 0.0], [1, -0.0], [-0.0, 1.0]])]
    assert exact_rows(rendered(StateTable.from_states(SUMS, groups))) == exact_rows(
        list_form_flush(SUMS, groups)
    )


def test_missing_key_labels_stay_absent():
    scheme = parse_scheme("AGGREGATE count, sum(x) GROUP BY k, r")
    rows_ = [Record({"x": 1.0}), Record({"k": "a", "x": 2}), Record({"r": 1}), Record({"k": "a"})]
    by_key = render_matches_flush(scheme, rows_)
    assert sorted(map(len, by_key)) == [0, 1, 1]


PERCENT = parse_scheme("AGGREGATE percent_total(x), count GROUP BY k")


def test_percent_total_over_an_empty_table_and_an_all_zero_total():
    assert rendered(StateTable(PERCENT)) == [] and StateTable(PERCENT).flush() == []
    assert len(StateTable(PERCENT).render()) == 0
    by_key = render_matches_flush(
        PERCENT, [Record({"k": "a", "x": 0.0}), Record({"k": "b", "x": -0.0}), Record({"k": "c"})]
    )
    shares = [dict((e[0], e[1:]) for e in row).get("percent_total#x") for row in by_key.values()]
    assert sorted(shares, key=repr) == [(T.DOUBLE, bits(0.0))] * 2 + [None]


def test_percent_total_divides_by_the_sequential_sum():
    xs = [0.2, 0.7, 0.1, 0.7, 3.0, 1e16, 0.3, 3.0, 0.3, 0.2, 0.3, 1.0]
    assert sum(xs) != float(np.sum(np.array(xs)))  # pairwise summation differs here
    groups = [({"k": Variant.of(i)}, [[1, x], [1]]) for i, x in enumerate(xs)]
    table = StateTable.from_states(PERCENT, groups)
    want = exact_rows(list_form_flush(PERCENT, groups))
    assert exact_rows(rendered(table)) == want
    assert want[4][1] == ("percent_total#x", T.DOUBLE, bits(100.0 * 3.0 / sum(xs)))
    # folded rows, the same values: the row engine's DB agrees too
    render_matches_flush(PERCENT, [Record({"k": i, "x": x}) for i, x in enumerate(xs)])


class _CustomPercent(PercentTotalOp):
    """A user subclass: no vector kernel, so it renders through ``results()``."""

    name = "custompercent"


def test_an_operator_without_a_kernel_renders_through_its_results():
    scheme = AggregationScheme(ops=[_CustomPercent(["x"]), make_op("count")], key=["k"])
    xs = [0.2, 0.7, 0.1, 0.7, 3.0, 1e16, 0.3, 3.0, 0.3, 0.2, 0.3, 1.0]
    by_key = render_matches_flush(scheme, [Record({"k": i % 5, "x": x}) for i, x in enumerate(xs)])
    assert all(row[1][0] == "custompercent#x" for row in by_key.values())


def test_a_source_table_that_repeats_a_key_renders_one_row_per_slot():
    groups = [({"k": Variant.of("a")}, [[2, 1.5], [2]]), ({"k": Variant.of("b")}, [[1, 0.5], [1]]),
              ({"k": Variant.of("a")}, [[1, 4.0], [1]])]
    table = StateTable.from_states(PERCENT, groups)
    assert exact_rows(rendered(table)) == exact_rows(list_form_flush(PERCENT, groups))
    assert [r["k"].value for r in table.flush()] == ["a", "b", "a"]


def test_the_golden_groups_render_as_their_results():
    table = StateTable.from_states(GOLDEN_SCHEME, GOLDEN_GROUPS)
    assert exact_rows(rendered(table)) == exact_rows(list_form_flush(GOLDEN_SCHEME, GOLDEN_GROUPS))


# -- the first-use order trap: a second stage over render() == over flush() --------


def second_stage(text, source):
    """A second-stage query's rows, in output order, by exact value."""
    return exact_rows(QueryEngine(text).run(source).records)


def assert_second_stage_agrees(table, *texts):
    for text in texts:
        over_records = second_stage(text, table.flush())
        assert second_stage(text, table.render()) == over_records, text
        assert over_records


def test_a_second_stage_groups_keys_in_the_order_of_the_flushed_records():
    scheme = parse_scheme("AGGREGATE count GROUP BY k, r")
    table = StateTable(scheme)
    table.fold([Record({"k": "k1", "r": "r1"}), Record({"k": "k2", "r": "r2"}),
                Record({"k": "k1", "r": "r3"})])
    # the table's r values are r1, r2, r3; its slots use them as r1, r3, r2
    assert [r["r"].value for r in table.flush()] == ["r1", "r3", "r2"]
    assert [row[0][2] for row in second_stage("AGGREGATE count GROUP BY r", table.render())] == [
        "r1", "r3", "r2"
    ]
    assert_second_stage_agrees(table, "AGGREGATE count GROUP BY r", "AGGREGATE count GROUP BY r, k")


def test_a_second_stage_over_a_merged_table_keeps_the_slots_first_use_order():
    scheme = parse_scheme("AGGREGATE count, sum(x) GROUP BY k, r")
    source = StateTable(scheme)
    source.fold([Record({"k": "k1", "r": "r1", "x": 3}), Record({"k": "k2", "r": "r2", "x": 1.5}),
                 Record({"k": "k1", "r": "r3", "x": 3})])
    root = StateTable(scheme)
    root.merge(source.copy())  # its slots come in the source's slot order, not its values'
    assert_second_stage_agrees(
        root, "AGGREGATE count GROUP BY r", "AGGREGATE sum(count) GROUP BY k"
    )


def test_a_second_stage_groups_a_rendered_metric_in_first_seen_order():
    scheme = parse_scheme("AGGREGATE count, sum(x), avg(x) GROUP BY k")
    table = StateTable(scheme)
    table.fold([Record({"k": f"k{i}", "x": x})
                for i, x in enumerate([3, 1.5, 3.0, 0.5, 0.0, -0.0, 2.5, 1.5, 0.5])])
    table.fold([Record({"k": "k0", "x": 4}), Record({"k": "k3", "x": 1})])
    assert_second_stage_agrees(
        table, "AGGREGATE count GROUP BY sum#x", "AGGREGATE sum(avg#x) GROUP BY count",
        "AGGREGATE count GROUP BY avg#x", "AGGREGATE max(avg#x) GROUP BY count, sum#x",
    )
    # first seen, not sorted: 7 (INT) comes before 1.5 (DOUBLE)
    sums = second_stage("AGGREGATE count GROUP BY sum#x", table.render())
    assert [row[0][1:] for row in sums][:2] == [(T.INT, 7), (T.DOUBLE, bits(1.5))]
