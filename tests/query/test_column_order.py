"""ORDER BY, LIMIT and the table stay columns, and equal the row versions.

``order_rows`` (one ``np.lexsort`` over per-column ranks) must put the rows
of any store in the order a stable Python sort with the ``Variant`` key
puts its records, the NaN rule included, and ``format_table`` of a store
must print what the per-record loop printed.  Both references are written
out below.  Shapes come from hypothesis; the bulk of each column from a
numpy generator it seeds.  Last, the answer path: a warm query's table, a
multi-file query and the CLI's default output build no ``Record``.
"""

from __future__ import annotations

import itertools
import math
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import api
from repro.calql.ast import OrderSpec
from repro.common import Record, ValueType, Variant
from repro.io import Dataset, write_colfile
from repro.io.colfile import ColumnStore, _DictColumn, _NumColumn, result_records
from repro.query import QueryEngine, run_query
from repro.query.cli import main as cli_main
from repro.query.engine import order_rows
from repro.report import TableOptions, format_table

from ..conftest import examples
from .test_column_fold import exact_value

INT, UINT, DOUBLE, BOOL = ValueType.INT, ValueType.UINT, ValueType.DOUBLE, ValueType.BOOL
STRING, USR = ValueType.STRING, ValueType.USR

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def nan_with_payload(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


NAN_A, NAN_B = float("nan"), nan_with_payload(0xBEEF)
INF = math.inf
DOUBLES = [0.0, -0.0, NAN_A, NAN_B, INF, -INF, 1.0, -1.0, 2.5, 1e15, -1e15, 3e15,
           2.0**53, 2.0**53 + 2, 1e300, 1.23456789e-7, 0.1]
INTS = [0, 1, -1, 7, 2**53, 2**53 + 1, -(2**63), 2**63 - 1]
UINTS = [0, 1, 7, 2**53, 2**53 + 1, 2**64 - 1, 2**63]
#: a dictionary column's value pool: every type, int / double twins, both
#: zeros, two NaN payloads, and uint64 values above 2**53
MIXED = [
    Variant(STRING, "a"), Variant(STRING, "b"), Variant(STRING, ""), Variant(USR, "a"),
    Variant(INT, 1), Variant(DOUBLE, 1.0), Variant(UINT, 1), Variant(BOOL, True),
    Variant(DOUBLE, 0.0), Variant(DOUBLE, -0.0), Variant(DOUBLE, NAN_A),
    Variant(DOUBLE, NAN_B), Variant(DOUBLE, INF), Variant(DOUBLE, -INF),
    Variant(UINT, 2**53 + 1), Variant(UINT, 2**64 - 1), Variant(INT, 2**53),
    Variant(DOUBLE, 2.5), Variant(INT, -3), Variant(DOUBLE, 2e15),
]
NUMERIC = [v for v in MIXED if v.is_numeric]


def exact(record: Record) -> dict:
    return {label: exact_value(v) for label, v in record.items()}


# -- the references -------------------------------------------------------------------


def reference_key(v: Variant) -> tuple:
    """The ``Variant`` order key, missing lowest, with a NaN above every
    number and all NaNs tied."""
    if v.is_empty:
        return (0, ())
    key = v._order_key()
    if key[0] == 0 and math.isnan(key[1]):
        key = (0, math.inf, 0)
    return (1, key)


def reference_order(records: list[Record], order) -> list[int]:
    """Indexes of ``records`` after a stable compound Python sort."""
    out = list(range(len(records)))
    for spec in reversed(order):
        out.sort(key=lambda i: reference_key(records[i].get(spec.label)),
                 reverse=not spec.ascending)
    return out


def reference_table(records, preferred=(), options=None) -> str:
    """The per-record table renderer, cell by cell through ``Record.get``."""
    options = options or TableOptions()
    if not records:
        return "(no records)"
    seen = set()
    for record in records:
        seen.update(record.labels())
    columns = [label for label in preferred if label in seen]
    columns.extend(sorted(seen - set(columns)))

    def render_cell(value: Variant) -> str:
        if value.is_empty:
            return options.missing
        if value.type is DOUBLE:
            v = value.value
            if not math.isfinite(v):
                return value.to_string()
            if v == int(v) and abs(v) < 1e15:
                return str(int(v))
            return f"{v:.{options.float_precision}g}"
        return value.to_string()

    shown = records if options.max_rows is None else records[: options.max_rows]
    cells = [[render_cell(record.get(col)) for col in columns] for record in shown]
    numeric = []
    for col in columns:
        values = [r.get(col) for r in records if not r.get(col).is_empty]
        numeric.append(bool(values) and all(v.is_numeric for v in values))
    widths = [len(col) for col in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(row):
        return options.separator.join(
            cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ).rstrip()

    lines = [render_row(columns)] + [render_row(row) for row in cells]
    if options.max_rows is not None and len(records) > options.max_rows:
        lines.append(f"(... {len(records) - options.max_rows} more rows)")
    return "\n".join(lines)


# -- generated stores -----------------------------------------------------------------


def typed_column(rng, n: int, kind: str, masked: bool) -> _NumColumn:
    mask = rng.random(n) < 0.7 if masked else None
    whole = None
    if kind == "int":
        vtype, values = INT, np.array(INTS, dtype=np.int64)[rng.integers(0, len(INTS), n)]
    elif kind == "small":
        vtype, values = INT, rng.integers(-3, 4, n).astype(np.int64)
    elif kind == "uint":
        vtype, values = UINT, np.array(UINTS, dtype=np.uint64)[rng.integers(0, len(UINTS), n)]
    elif kind == "bool":
        vtype, values = BOOL, rng.random(n) < 0.5
    else:
        vtype, values = DOUBLE, np.array(DOUBLES)[rng.integers(0, len(DOUBLES), n)]
        whole = {"double": None, "whole_int": INT, "whole_uint": UINT}[kind]
        fresh = rng.random(n) < 0.3
        values[fresh] = np.round(rng.normal(0, 1e3, int(fresh.sum())), rng.integers(0, 3))
    if mask is not None:
        values = np.where(mask, values, np.zeros(1, dtype=values.dtype))
    return _NumColumn(vtype, values, mask, whole)


def dict_column(rng, n: int, pool: list[Variant], missing: float) -> _DictColumn:
    values = [pool[i] for i in rng.permutation(len(pool))[: rng.integers(1, len(pool) + 1)]]
    codes = rng.integers(0, len(values), n)
    codes[rng.random(n) < missing] = -1
    return _DictColumn(codes.astype(np.int64), values)


KINDS = ["int", "small", "uint", "bool", "double", "whole_int", "whole_uint", "mixed", "numeric"]


@st.composite
def stores(draw, max_rows: int = 40):
    seed = draw(seeds)
    n = draw(st.integers(0, max_rows))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(seed)
    columns = {}
    for i, kind in enumerate(kinds):
        if kind in ("mixed", "numeric"):
            pool = MIXED if kind == "mixed" else NUMERIC
            column = dict_column(rng, n, pool, draw(st.sampled_from([0.0, 0.3, 1.0])))
        else:
            column = typed_column(rng, n, kind, draw(st.booleans()))
        columns[f"c{i}.{kind}"] = column
    return ColumnStore(n, columns)


@st.composite
def orders(draw, store: ColumnStore):
    labels = [*store.columns, "absent"]
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    return [OrderSpec(label, draw(st.booleans())) for label in chosen]


# -- ORDER BY / LIMIT -----------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=examples(150), deadline=None)
def test_column_order_and_limit_equal_the_python_sort(data):
    store = data.draw(stores())
    order = data.draw(orders(store))
    n = len(store)
    limit = data.draw(st.sampled_from([None, 0, 1, n // 2, n, n + 5]))
    records = result_records(store)
    want = reference_order(records, order)[:limit]
    rows = order_rows(store, order, limit)
    assert rows.tolist() == want
    # what a query's answer holds: the taken store, its rows the same records
    assert [exact(r) for r in result_records(store.take(rows))] == [
        exact(records[i]) for i in want
    ]
    # the records path: the same ranks over a records-built store
    built = ColumnStore.from_records(records)
    assert built.take(order_rows(built, order)).held_records == [
        records[i] for i in reference_order(records, order)
    ]


def test_an_order_by_label_no_row_holds_keeps_the_input_order():
    store = ColumnStore.from_records([Record({"x": 2}), Record({"x": 1})])
    assert order_rows(store, [OrderSpec("y", False)]).tolist() == [0, 1]
    assert order_rows(store, [OrderSpec("y"), OrderSpec("x")], limit=1).tolist() == [1]


# -- the NaN rule ---------------------------------------------------------------------

NAN_ORDER = [(True, [1.0, 2.0, 3.0, "nan"]), (False, ["nan", 3.0, 2.0, 1.0])]


def plain(values) -> list:
    return ["nan" if isinstance(v, float) and math.isnan(v) else v for v in values]


@pytest.mark.parametrize("ascending, want", NAN_ORDER)
def test_select_order_by_over_a_nan_is_one_order_for_every_input_order(ascending, want):
    text = f"SELECT x ORDER BY x {'ASC' if ascending else 'DESC'}"
    for perm in itertools.permutations([3.0, math.nan, 1.0, 2.0]):
        got = run_query(text, [Record({"x": x}) for x in perm]).rows(["x"])
        assert plain(x for (x,) in got) == want, perm


@pytest.mark.parametrize("ascending, want", NAN_ORDER)
def test_aggregate_order_by_over_a_nan_is_one_order_for_every_input_order(ascending, want):
    """The NaN is a ``sum`` of ``inf`` and ``-inf``; the groups arrive in
    every order."""
    text = f"AGGREGATE sum(x) GROUP BY g ORDER BY sum#x {'ASC' if ascending else 'DESC'}"
    groups = {"three": [3.0], "nan": [math.inf, -math.inf], "one": [1.0], "two": [2.0]}
    for perm in itertools.permutations(groups):
        records = [Record({"g": g, "x": x}) for g in perm for x in groups[g]]
        for backend in ("auto", "rows"):
            got = QueryEngine(text).run(records, backend=backend).rows(["sum#x"])
            assert plain(x for (x,) in got) == want, (perm, backend)


# -- the table ------------------------------------------------------------------------


@st.composite
def table_options(draw, n: int):
    return TableOptions(
        float_precision=draw(st.integers(1, 12)),
        max_rows=draw(st.sampled_from([None, 0, 1, n // 2, n, n + 3])),
        missing=draw(st.sampled_from(["", "-", "n/a"])),
        separator=draw(st.sampled_from([" ", "  ", " | ", "{}"])),
    )


@given(data=st.data())
@settings(max_examples=examples(150), deadline=None)
def test_format_table_of_a_store_equals_the_per_record_loop(data):
    store = data.draw(stores())
    order = data.draw(orders(store))
    limit = data.draw(st.sampled_from([None, 0, 1, 3, len(store) + 2]))
    store = store.take(order_rows(store, order, limit))  # an answer, as it is rendered
    options = data.draw(table_options(len(store)))
    preferred = data.draw(st.lists(st.sampled_from([*store.columns, "absent"]), max_size=3))
    records = result_records(store)
    want = reference_table(records, preferred, options)
    assert format_table(store, preferred, options) == want
    assert format_table(records, preferred, options) == want


def test_the_table_of_a_limit_that_drops_a_column_s_only_string_is_right_aligned():
    store = ColumnStore.from_codes(
        3, {"v": (np.array([0, 1, 2]), [Variant.of(10), Variant.of(2.5), Variant.of("wide")])}
    )
    cut = store.take(order_rows(store, [], limit=2))
    assert len(cut.columns["v"].values) == 3  # the dictionary still holds the string
    assert format_table(cut) == reference_table(result_records(cut)) == "  v\n 10\n2.5"


@pytest.mark.parametrize("whole, values, cells", [
    (INT, [1e15, 3e18, -2e16, 0.5], ["1000000000000000", "3000000000000000000",
                                     "-20000000000000000", "0.5"]),
    (UINT, [-3.0, 2e15, -0.0, INF], ["-3", "2000000000000000", "0", "inf"]),
    (None, [1e15, -2.0, NAN_B, -INF], ["1e+15", "-2", "nan", "-inf"]),
])
def test_a_whole_column_renders_its_integral_values_as_ints_at_any_size(whole, values, cells):
    store = ColumnStore(4, {"v": _NumColumn(DOUBLE, np.array(values), None, whole)})
    text = format_table(store)
    assert text == reference_table(result_records(store))
    assert [line.strip() for line in text.splitlines()[1:]] == cells


def test_an_empty_answer_renders_no_records():
    store = ColumnStore.from_records([Record({"x": 1})])
    assert format_table(store.take(order_rows(store, [], limit=0))) == "(no records)"
    assert format_table(ColumnStore(0, {})) == format_table([]) == "(no records)"


# -- no Record on the answer path -----------------------------------------------------

#: the benchmark's warm texts: WHERE pushdown, several keys, percent_total,
#: ORDER BY with DESC and LIMIT
WARM = [
    "AGGREGATE count, sum(time.duration), max(time.duration) "
    "GROUP BY kernel, mpi.rank ORDER BY kernel, mpi.rank",
    "AGGREGATE sum(time.duration) WHERE amr.level=2 GROUP BY kernel ORDER BY kernel",
    "AGGREGATE percent_total(time.duration) GROUP BY amr.level ORDER BY amr.level",
    "AGGREGATE count GROUP BY iteration ORDER BY count DESC, iteration LIMIT 5",
    "AGGREGATE avg(time.duration), min(time.duration) GROUP BY mpi.rank ORDER BY mpi.rank",
    "AGGREGATE count, sum(time.duration) WHERE kernel=kernel-00 GROUP BY iteration "
    "ORDER BY iteration",
    "AGGREGATE max(time.duration) WHERE amr.level>0 GROUP BY kernel, amr.level "
    "ORDER BY kernel, amr.level",
    "AGGREGATE sum(time.duration) GROUP BY mpi.rank, amr.level ORDER BY mpi.rank, amr.level",
    "AGGREGATE count WHERE iteration<10 GROUP BY kernel ORDER BY count DESC, kernel LIMIT 10",
    "AGGREGATE count, min(time.duration), max(time.duration) GROUP BY amr.level, iteration "
    "ORDER BY amr.level, iteration",
]


@pytest.fixture
def rank_files(tmp_path):
    rng = np.random.default_rng(5)
    paths, everything = [], []
    for rank in range(3):
        records = [
            Record({
                "kernel": f"kernel-{int(k):02d}", "mpi.rank": rank, "amr.level": int(level),
                "iteration": int(it), "time.duration": float(t),
            })
            for k, level, it, t in zip(rng.integers(0, 6, 200), rng.integers(0, 4, 200),
                                       rng.integers(0, 20, 200), rng.exponential(1.0, 200))
        ]
        path = str(tmp_path / f"rank{rank}.rcf")
        write_colfile(path, records)
        paths.append(path)
        everything.extend(records)
    return paths, everything


def test_answers_build_no_record(rank_files, no_record_hydration, no_result_hydration, capsys):
    paths, everything = rank_files
    want = {text: QueryEngine(text).run(everything, backend="rows") for text in WARM}
    dataset = Dataset.from_files(paths)
    for text in WARM:
        assert dataset.query(text).to_table() == reference_table(want[text].records,
                                                                 want[text].preferred_columns)
    assert api.query(WARM[0], paths).to_table() == str(want[WARM[0]])
    assert cli_main(["-q", WARM[3], *paths]) == 0
    assert capsys.readouterr().out == str(want[WARM[3]]) + "\n"


# -- SELECT / WHERE / ORDER BY / LIMIT without AGGREGATE ------------------------------

#: value pools per label: ints, doubles (NaN, both zeros, inf), strings, bools
#: and a mixed one; a drawn record leaves each label out at random
FILTER_POOLS = {
    "a": [-1, 0, 1, 2, 7],
    "f": [0.0, -0.0, 1.0, 2.5, math.nan, INF, -3.5],
    "s": ["x", "y", "1", ""],
    "b": [True, False],
    "m": [1, 1.0, "x", True, 2.5, math.nan, "2"],
}
FILTER_LABELS = [*FILTER_POOLS, "d", "absent"]  # d: derived by LET
LITERALS = ["0", "1", "-1", "2.5", "x", '"1"', "true", "false", "nan"]
OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def filter_records(draw):
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(0, 40))
    records = []
    for _ in range(n):
        entries = {}
        for label, pool in FILTER_POOLS.items():
            if rng.random() < 0.75:
                entries[label] = pool[int(rng.integers(len(pool)))]
        records.append(Record(entries))
    return records


@st.composite
def conditions(draw):
    label = draw(st.sampled_from(FILTER_LABELS))
    kind = draw(st.sampled_from(["compare", "compare", "exists", "not"]))
    if kind == "exists":
        return label
    cond = f"{label}{draw(st.sampled_from(OPS))}{draw(st.sampled_from(LITERALS))}"
    return f"not({cond})" if kind == "not" else cond


@st.composite
def filter_queries(draw):
    parts = []
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(["LET d = a * 2", "LET d = f + a", "LET d = a / f"])))
    select = draw(st.lists(st.sampled_from(FILTER_LABELS), max_size=3, unique=True))
    if select:
        parts.append("SELECT " + ", ".join(select))
    where = draw(st.lists(conditions(), max_size=3))
    if where:
        parts.append("WHERE " + ", ".join(where))
    if not parts:  # a query selects, filters or derives something
        parts.append("SELECT a")
    order = draw(st.lists(st.sampled_from(FILTER_LABELS), max_size=2, unique=True))
    if order:
        parts.append("ORDER BY " + ", ".join(
            f"{label} {draw(st.sampled_from(['ASC', 'DESC']))}" for label in order))
    limit = draw(st.sampled_from([None, 0, 1, 5, 100]))
    if limit is not None:
        parts.append(f"LIMIT {limit}")
    return " ".join(parts)


def reference_filter(text: str, records: list[Record]) -> list[Record]:
    """LET, then WHERE, SELECT, ORDER BY and LIMIT written out record by
    record: the row semantics every column path must keep."""
    from repro.calql.ast import Compare, Exists, NotCond
    from repro.calql.parser import parse_query
    from repro.calql.semantics import compare_variants

    from .test_let_columns import let_reference

    query = parse_query(text)
    records = [let_reference(query.let)(r) for r in records]

    def holds(cond, record: Record) -> bool:
        if isinstance(cond, NotCond):
            return not holds(cond.inner, record)
        value = record.get(cond.label)
        if isinstance(cond, Exists):
            return not value.is_empty
        assert isinstance(cond, Compare)
        return not value.is_empty and compare_variants(value, cond.op, cond.value)

    out = [r for r in records if all(holds(c, r) for c in query.where)]
    if query.select:
        out = [r.project(query.select) for r in out]
    out = [out[i] for i in reference_order(out, query.order_by)]
    return out if query.limit is None else out[: query.limit]


@given(records=filter_records(), text=filter_queries())
@settings(max_examples=examples(200), deadline=None)
def test_column_select_where_order_limit_equal_the_python_filter(records, text, tmp_path_factory):
    want = [exact(r) for r in reference_filter(text, records)]
    preferred = list(QueryEngine(text).query.select)
    path = str(tmp_path_factory.mktemp("rcf") / "part.rcf")
    write_colfile(path, records, chunk_rows=7)
    for got in (
        run_query(text, records),
        Dataset(records).query(text),
        Dataset.from_file(path).query(text),  # one decoded .rcf store
        api.query(text, path),
    ):
        assert [exact(r) for r in got.records] == want, text
        rows = reference_filter(text, records)
        assert got.to_table() == reference_table(rows, preferred)
        for label in FILTER_LABELS:
            assert [exact_value(v) for v in got.column(label)] == [
                exact_value(r.get(label)) for r in rows if not r.get(label).is_empty
            ]
    labels = ["a", "d", "absent"]
    assert list(map(repr, run_query(text, records).rows(labels))) == [  # repr: nan == nan
        repr(tuple(None if r.get(label).is_empty else r.get(label).value for label in labels))
        for r in reference_filter(text, records)
    ]


def test_a_filter_over_records_hands_back_the_same_records():
    records = [Record({"a": i, "s": "x" if i % 2 else "y"}) for i in range(6)]
    got = run_query("WHERE s=x ORDER BY a DESC LIMIT 2", records)
    assert [id(r) for r in got.records] == [id(records[5]), id(records[3])]


def test_result_columns_and_rows_read_the_codes_of_a_rendered_store(no_result_hydration):
    records = [
        Record({"kernel": f"k{i % 3}", "rank": i % 2, "t": [0.5, math.nan, -0.0, 2][i % 4]})
        for i in range(24)
    ] + [Record({"t": 1.0})]
    text = "AGGREGATE count, sum(t), max(t) GROUP BY kernel, rank ORDER BY kernel DESC, rank"
    want = QueryEngine(text).run(records, backend="rows")  # the records, held as they are
    got = QueryEngine(text).run(records)  # the rendered store
    labels = ["kernel", "rank", "count", "sum#t", "max#t", "absent"]
    for label in labels:
        assert [exact_value(v) for v in got.column(label)] == [
            exact_value(r.get(label)) for r in want.records if not r.get(label).is_empty
        ]
    assert repr(got.rows(labels)) == repr([
        tuple(None if r.get(label).is_empty else r.get(label).value for label in labels)
        for r in want.records
    ])
    assert got.rows([]) == [()] * len(want.records)
