"""LET and the sampled query read columns, and equal the row versions.

``compile_let`` turns a column store into a store with the derived
columns; the sampled query draws its Bernoulli sample over the derived
rows of a store.  The row versions they replace are written out below:
:func:`let_reference` evaluates each binding on one record over Python
floats and adds it with ``Record.with_entries``; the per-record sampler is
``tests/sampling/test_query.py``'s :func:`sample_records`.  Answers are
compared bit for bit (``1`` is not ``1.0``, ``0.0`` is not ``-0.0``) over a
record list, a ``Dataset``, a chunked ``.rcf`` file and a file list, and the
``.rcf`` paths must build no ``Record``.
"""

from __future__ import annotations

import math
import operator

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import api
from repro.aggregate import AggregationDB, StateTable
from repro.calql import build_scheme, compile_let, parse_query
from repro.calql.ast import BinExpr, Num, Ref
from repro.common import Record, ValueType, Variant
from repro.io import ColumnStore, Dataset, write_colfile
from repro.io.colfile import records_from_store
from repro.query import QueryEngine, QueryResult, run_query
from repro.sampling import sampled_query
from repro.window import EventClock, make_assigner, stamp_record
from repro.window.estimate import WindowEstimator, scheme_with_moments

from ..conftest import examples
from ..sampling.test_query import sample_records
from .test_column_fold import exact_value

BACKENDS = ("auto", "rows")
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def let_reference(bindings):
    """The row LET: each binding over one record's Python floats, added with
    ``Record.with_entries`` where it holds (every operand numeric, bools
    excluded, and no divisor 0), seen by the bindings after it."""

    def value(expr, record: Record):
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Ref):
            v = record.get(expr.label)
            return None if v.is_empty or not v.is_numeric else v.to_double()
        assert isinstance(expr, BinExpr)
        left, right = value(expr.left, record), value(expr.right, record)
        if left is None or right is None or (expr.op == "/" and right == 0.0):
            return None
        return _ARITHMETIC[expr.op](left, right)

    def transform(record: Record) -> Record:
        for binding in bindings:
            x = value(binding.expr, record)
            if x is not None:
                record = record.with_entries({binding.name: Variant.of(x)})
        return record

    return transform


def exact(record: Record) -> dict:
    return {label: exact_value(v) for label, v in record.items()}


def exact_rows(records) -> list:
    """Answer rows bit for bit, in a fixed order (un-ORDERed answers list
    their groups in an order of their own per engine)."""
    return sorted(sorted((label, *map(repr, exact_value(v))) for label, v in r.items())
                  for r in records)


# -- inputs ---------------------------------------------------------------------------

#: operand values: ints, uint64 above 2**53, doubles with both zeros, NaN and
#: the infinities, bools and strings; a drawn row leaves each out at random
OPERANDS = [
    Variant.of(0), Variant.of(3), Variant.of(-2), Variant(ValueType.UINT, 2**53 + 1),
    Variant(ValueType.UINT, 2**64 - 1), Variant.of(2.5), Variant.of(0.0), Variant.of(-0.0),
    Variant.of(math.nan), Variant.of(math.inf), Variant.of(-math.inf), Variant.of(1e308),
    Variant.of(True), Variant.of(False), Variant.of("7"), Variant.of("x"),
]
TIMES = [0.0, 0.5, 1.0, 2.5, 3.0, 4.5, 7.0, math.nan]


@st.composite
def let_rows(draw) -> Record:
    entries = {"kernel": Variant.of(f"k{draw(st.integers(0, 2))}")}
    for label in ("a", "b", "c"):
        if draw(st.integers(0, 4)):  # missing one time in five
            entries[label] = draw(st.sampled_from(OPERANDS))
    if draw(st.integers(0, 5)):
        entries["time.start"] = Variant.of(draw(st.sampled_from(TIMES)))
    return Record.from_variants(entries)


@st.composite
def expressions(draw, names: list[str], depth: int = 2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.integers(0, 4)) == 0:
            return str(draw(st.sampled_from([0, 2, 0.5, 1000000])))
        return draw(st.sampled_from(names))
    op = draw(st.sampled_from(list(_ARITHMETIC)))
    left = draw(expressions(names, depth - 1))
    right = draw(expressions(names, depth - 1))
    return f"({left} {op} {right})"


@st.composite
def let_clauses(draw) -> str:
    """One to three bindings: chained (a later one reads an earlier one),
    shadowing an input (``a``, ``b``) or holding on no row (``absent``)."""
    names = ["a", "b", "c", "absent"]
    bindings = []
    for i in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from([f"d{i}", f"d{i}", "a", "b", "z"]))
        if name in {n for n, _ in bindings}:
            name = f"d{i}"
        bindings.append((name, draw(expressions(names))))
        names.append(name)
    return "LET " + ", ".join(f"{name} = {expr}" for name, expr in bindings)


def write_parts(directory, parts: list[list[Record]], chunk_rows: int) -> tuple[str, list[str]]:
    """One chunked ``.rcf`` of every row, and one file per part."""
    whole = str(directory / "all.rcf")
    write_colfile(whole, [r for part in parts for r in part], chunk_rows=chunk_rows)
    paths = []
    for i, part in enumerate(parts):
        paths.append(str(directory / f"part{i}.rcf"))
        write_colfile(paths[-1], part, chunk_rows=chunk_rows)
    return whole, paths


def derived_records(text: str, records: list[Record]):
    """LET record by record, then under WINDOW each timed record's
    ``stamp_record`` copies on one clock: the rows of one input."""
    query = parse_query(text)
    records = [let_reference(query.let)(r) for r in records]
    if query.window is None:
        return records
    clock, assigner, out = EventClock(), make_assigner(query.window), []
    for record in records:
        t = clock.event_time(record)
        if t is not None:
            out.extend(stamp_record(record, t, assigner))
    return out


# -- the store transform --------------------------------------------------------------


@given(
    records=st.lists(let_rows(), max_size=30),
    let=let_clauses(),
    chunk_rows=st.sampled_from([1, 4, 1000]),
)
@settings(max_examples=examples(150), deadline=None)
def test_the_column_let_is_the_row_let(records, let, chunk_rows, tmp_path_factory):
    query = parse_query(let + " SELECT kernel")
    want = [exact(let_reference(query.let)(r)) for r in records]
    transform = compile_let(query.let)
    path = str(tmp_path_factory.mktemp("let") / "rows.rcf")
    write_colfile(path, records, chunk_rows=chunk_rows)
    for store in (ColumnStore.from_records(records), Dataset.from_file(path).column_store()):
        derived = transform(store)
        assert [exact(r) for r in records_from_store(derived)] == want, let
        # a binding that holds on no row adds no column
        assert set(derived.labels()) == {label for r in want for label in r}


def test_a_shadowing_binding_keeps_the_input_where_it_yields_nothing():
    records = [Record({"a": 2}), Record({"a": "text"}), Record({}), Record({"a": 1.5})]
    derived = compile_let(parse_query("LET a = a * 2, b = a + 1 SELECT a").let)(
        ColumnStore.from_records(records)
    )
    assert [exact(r) for r in records_from_store(derived)] == [
        {"a": exact_value(Variant.of(4.0)), "b": exact_value(Variant.of(5.0))},
        {"a": exact_value(Variant.of("text"))},
        {},
        {"a": exact_value(Variant.of(3.0)), "b": exact_value(Variant.of(4.0))},
    ]


# -- LET queries ----------------------------------------------------------------------

WINDOWS = ["", " WINDOW tumbling(2s)", " WINDOW sliding(3s, 1s)"]


@given(
    parts=st.lists(st.lists(let_rows(), max_size=10), min_size=1, max_size=3),
    let=let_clauses(),
    window=st.sampled_from(WINDOWS),
    where=st.sampled_from(["", " WHERE d0", " WHERE d0 > 0", " WHERE not(a)"]),
    chunk_rows=st.sampled_from([1, 3, 1000]),
)
@settings(max_examples=examples(60), deadline=None)
def test_let_queries_are_the_row_let_folded_by_the_row_engine(
    parts, let, window, where, chunk_rows, tmp_path_factory
):
    ops = "count, sum(d0), min(a), max(a), first(b)"
    text = f"{let} AGGREGATE {ops} GROUP BY kernel{where}{window}"
    text = text if "d0 =" in let else text.replace("d0", "a")
    scheme = build_scheme(parse_query(text))

    def reference(inputs: list[list[Record]]) -> list:
        db = AggregationDB(scheme)
        for records in inputs:
            db.process_all(derived_records(text, records))
        return exact_rows(db.flush())

    records = [r for part in parts for r in part]
    one_input, per_file = reference([records]), reference(parts)
    whole, paths = write_parts(tmp_path_factory.mktemp("letq"), parts, chunk_rows)
    for backend in BACKENDS:
        for got in (
            QueryEngine(text).run(records, backend=backend),
            Dataset(records).query(text, backend=backend),
            api.query(text, whole, backend=backend),
            Dataset.from_files(paths).query(text, backend=backend),
        ):
            assert exact_rows(got.records) == one_input, (text, backend)
        # a file list: one clock per file
        got = api.query(text, paths, backend=backend, jobs=1)
        assert exact_rows(got.records) == per_file, (text, backend)


# -- sampled queries ------------------------------------------------------------------


def sampled_reference(text: str, records: list[Record], p: float, seed: int) -> str:
    """The per-record sampler over the derived records, folded into a table
    and estimated at ``p``: the answer the sampled query must print."""
    engine = QueryEngine(text)
    scheme = scheme_with_moments(engine.scheme)
    table = StateTable(scheme)
    table.fold(sample_records(derived_records(text, records), p, seed), where=engine.query.where)
    return str(engine.answer(WindowEstimator(scheme).estimate(table, None, p)))


@given(
    parts=st.lists(st.lists(let_rows(), max_size=12), min_size=1, max_size=3),
    window=st.sampled_from(WINDOWS),
    where=st.sampled_from(["", " WHERE d > 0"]),
    p=st.sampled_from([0.3, 0.7]),
    seed=st.integers(0, 2**16),
    chunk_rows=st.sampled_from([1, 5, 1000]),
)
@settings(max_examples=examples(40), deadline=None)
def test_a_sampled_query_prints_the_per_record_sampler_folded_into_a_table(
    parts, window, where, p, seed, chunk_rows, tmp_path_factory
):
    text = f"LET d = a * 2 AGGREGATE count, sum(d), avg(b) GROUP BY kernel{where}{window}"
    records = [r for part in parts for r in part]
    want = sampled_reference(text, records, p, seed)
    whole, paths = write_parts(tmp_path_factory.mktemp("sampled"), parts, chunk_rows)
    # every source is one input: a file list is sampled as one dataset
    for source in (records, Dataset(records), whole, paths, Dataset.from_files(paths)):
        got = api.query(text, source, sampling=p, sampling_seed=seed)
        assert str(got) == want, (text, p, seed)


def test_a_sampled_query_at_probability_one_folds_every_row_unweighted(tmp_path):
    records = [Record({"kernel": f"k{i % 3}", "x": 0.5 * i, "time.start": float(i)})
               for i in range(30)]
    path = str(tmp_path / "run.rcf")
    write_colfile(path, records, chunk_rows=7)
    text = "LET y = x * 2 AGGREGATE count, sum(y) GROUP BY kernel WINDOW sliding(4s, 2s)"
    want = sampled_reference(text, records, 1.0, None)
    assert str(sampled_query(text, records, 1.0)) == want
    assert str(sampled_query(text, Dataset.from_file(path).column_store(), 1.0)) == want


# -- no Record on the column paths ----------------------------------------------------


def test_let_and_sampled_queries_build_no_record(tmp_path, no_record_hydration):
    records = [
        Record({"kernel": f"k{i % 3}", "time.duration": 0.25 * (i % 7), "n": i % 4})
        for i in range(60)
    ]
    paths = [str(tmp_path / "p0.rcf"), str(tmp_path / "p1.rcf")]
    write_colfile(paths[0], records[:35], chunk_rows=8)
    write_colfile(paths[1], records[35:], chunk_rows=8)
    texts = [
        "LET us = time.duration * 1000000 AGGREGATE sum(us), count GROUP BY kernel WHERE us > 0",
        "LET us = time.duration * 1000000, r = us / n SELECT kernel, us, r WHERE r ORDER BY r",
        "LET us = time.duration * 2 AGGREGATE count, sum(us) GROUP BY kernel "
        "WINDOW sliding(2s, 1s)",
    ]
    lazy = Dataset.from_files(paths)
    for text in texts:
        for source in (paths, paths[0], lazy):
            str(api.query(text, source))
        if "AGGREGATE" in text:
            for source in (paths, paths[0], lazy):
                str(api.query(text, source, sampling=0.3, sampling_seed=1))
    assert lazy._records is None
    assert lazy.column_store().held_records is None


def test_the_window_copies_of_let_rows_group_in_the_order_they_come():
    # an un-timed k1 row comes first but is no copy: k0's group leads
    records = [Record({"kernel": "k1"})] + [
        Record({"kernel": f"k{i % 2}", "time.start": float(i), "x": 1.0}) for i in range(6)
    ]
    text = "LET y = x * 2 AGGREGATE count, sum(y) GROUP BY kernel WINDOW sliding(2s, 1s)"
    for source in (records, Dataset(records)):
        got = api.query(text, source)
        assert list(dict.fromkeys(r.get("kernel").value for r in got.records)) == ["k0", "k1"]


def test_a_let_answer_lists_its_attributes_as_the_row_let_records_do():
    # JSON's header lists the labels in the order the records first hold them
    records = [Record({"kernel": "k", "x": float(i)}) for i in range(3)]
    text = "LET y = x * 2 WHERE y FORMAT json"
    want = QueryResult([let_reference(parse_query(text).let)(r) for r in records])
    assert str(run_query(text, records)) == want.to_json()
