"""The off-line query engine (analytical aggregation).

Executes CalQL queries: LET preprocessing, WINDOW stamping, WHERE
filtering, aggregation (when the query has operators) or projection,
ORDER BY, LIMIT, and FORMAT rendering.  Every clause reads the
:class:`~repro.io.colfile.ColumnStore` (a record list through
``ColumnStore.from_records``) and none builds a ``Record``.  Every
aggregation folds into the
:class:`~repro.aggregate.table.StateTable` the aggregation server's shards
hold — column kernels where an operator has one, its own ``update`` per row
where it has not — and renders it by column; the same partial-aggregation
steps (:meth:`QueryEngine.make_db`, :meth:`QueryEngine.feed`,
:meth:`QueryEngine.feed_file`, :meth:`QueryEngine.finalize`) serve the MPI
query application and the process-pool workers, which merge their tables
up a reduction tree.

``backend="rows"`` aggregates with the reference row engine instead: the
per-record :class:`AggregationDB` of the on-line service, the oracle every
table fold is checked against, over the records of the same derived rows.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .. import observe
from ..aggregate.db import AggregationDB
from ..aggregate.ops import OperatorRegistry
from ..aggregate.scheme import AggregationScheme
from ..aggregate.table import StateTable, where_rows
from ..calql.ast import OrderSpec, Query
from ..calql.parser import parse_query
from ..calql.semantics import build_scheme, compile_let, validate
from ..common.errors import QueryError
from ..common.record import Record
from ..common.variant import Variant
from ..io.colfile import ColfileReader, ColumnStore, result_records
from ..io.dataset import _format_of, _load_source_timed
from ..window.assign import EventClock, make_assigner, stamp_columns, stamp_record, window_copies
from .columnar import Source
from .options import BACKENDS, QueryOptions

__all__ = ["QueryEngine", "QueryResult", "run_query"]

#: a partial aggregation: the state table, or the reference row engine's DB
_DB = Union[StateTable, AggregationDB]


class QueryResult:
    """Query output: a column store plus rendering helpers; ``str()``
    honours the query's FORMAT clause (default: aligned table).

    The rows are held as a :class:`ColumnStore` — an aggregation's rendered
    state table (:meth:`~repro.aggregate.table.StateTable.render`), a
    projection's columns, or a record list wrapped with
    ``ColumnStore.from_records``.  Records are built once, when something
    first reads :attr:`records` (or iterates, indexes, or writes it as CSV,
    JSON or a tree); a store built from records hands them back unchanged.
    :meth:`column`, :meth:`rows` and :meth:`to_table` read the columns.
    """

    def __init__(
        self,
        rows: Union[ColumnStore, list[Record]],
        preferred_columns: Sequence[str] = (),
        fmt: Optional[str] = None,
    ) -> None:
        self._store = rows if isinstance(rows, ColumnStore) else ColumnStore.from_records(rows)
        self._records: Optional[list[Record]] = None
        self.preferred_columns = list(preferred_columns)
        self.format = (fmt or "table").lower()

    @property
    def records(self) -> list[Record]:
        if self._records is None:
            held = self._store.held_records
            self._records = result_records(self._store) if held is None else held
        return self._records

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    def column(self, label: str) -> list[Variant]:
        """Non-empty values of one output column, in result order."""
        return self._store.column_values(label)

    def rows(self, labels: Sequence[str]) -> list[tuple]:
        """Raw-value tuples for the given columns (None where missing)."""
        columns = []
        for label in labels:
            codes, values = self._store.interned(label)
            raw = [None if v.is_empty else v.value for v in values] + [None]  # code -1
            columns.append(map(raw.__getitem__, codes.tolist()))
        return list(zip(*columns)) if columns else [()] * len(self)

    def to_table(self, **kwargs) -> str:
        """The aligned table, rendered from the result's columns."""
        from ..report.table import TableOptions, format_table

        return format_table(self._store, self.preferred_columns, TableOptions(**kwargs))

    def to_csv(self) -> str:
        import io as _io

        from ..io.csvio import write_csv

        buf = _io.StringIO()
        write_csv(buf, self.records, self.preferred_columns)
        return buf.getvalue()

    def to_json(self) -> str:
        import io as _io

        from ..io.jsonio import write_json

        buf = _io.StringIO()
        write_json(buf, self.records)
        return buf.getvalue()

    def to_records(self) -> list[Record]:
        return list(self.records)

    def to_tree(
        self,
        path_attribute: Optional[str] = None,
        metrics: Optional[Sequence[str]] = None,
    ) -> str:
        """Hierarchical rendering along a slash-path attribute.

        Defaults: the path attribute is the first preferred (key) column
        whose values contain path separators — or simply the first key
        column — and the metrics are every other column that is numeric.
        """
        from ..report.tree import format_tree

        columns = self.preferred_columns or sorted(
            {lbl for r in self.records for lbl in r.labels()}
        )
        if path_attribute is None:
            path_attribute = next(
                (
                    c
                    for c in columns
                    if any("/" in r.get(c).to_string() for r in self.records)
                ),
                columns[0] if columns else "",
            )
        if metrics is None:
            metrics = [
                c
                for c in columns
                if c != path_attribute
                and any(r.get(c).is_numeric for r in self.records)
            ]
        return format_tree(self.records, path_attribute, list(metrics))

    def __str__(self) -> str:
        if self.format == "csv":
            return self.to_csv()
        if self.format == "json":
            return self.to_json()
        if self.format == "tree":
            return self.to_tree()
        if self.format in ("records", "expand"):
            return "\n".join(repr(r) for r in self.records)
        return self.to_table()

    def __repr__(self) -> str:
        return f"QueryResult({len(self)} records, format={self.format!r})"


class QueryEngine:
    """A compiled CalQL query, executable over a column store or records."""

    def __init__(
        self,
        query: Union[str, Query],
        registry: Optional[OperatorRegistry] = None,
    ) -> None:
        with observe.span("query.parse"):
            self.query = parse_query(query) if isinstance(query, str) else query
            validate(self.query, registry)
            self._let = compile_let(self.query.let)
            self.scheme: Optional[AggregationScheme] = None
            if self.query.is_aggregation:
                # WHERE lives inside the scheme's predicate on the aggregation path.
                self.scheme = build_scheme(self.query, registry)
            # WINDOW stamps window.start/window.end onto each row (after LET)
            # before folding; the scheme's key already includes both labels
            # (see calql.semantics).
            self._assigner = None if self.query.window is None else make_assigner(self.query.window)

    def _input(self, source: Source) -> ColumnStore:
        """``source`` as a store, after LET (which adds its columns)."""
        store = source if isinstance(source, ColumnStore) else ColumnStore.from_records(source)
        return store if self._let is None else self._let(store)

    def _derive(
        self, source: Source, clock: Optional[EventClock] = None
    ) -> tuple[ColumnStore, Optional[np.ndarray]]:
        """The rows the query reads from ``source``: a store and the indices
        of its rows to read (``None``: all of them, in order).  WINDOW
        stamps the store as columns on ``clock``, one per input (a fresh
        one when ``None``), un-timed rows left out."""
        store = self._input(source)
        if self._assigner is None:
            return store, None
        rows, starts, ends, _untimed = window_copies(store, clock or EventClock(), self._assigner)
        store, rows = stamp_columns(store, rows, starts, ends)
        # LET's copies group as records of them would (first use)
        return (store if self._let is None else store.renumbered()), rows

    def _derived_records(
        self, source: Source, clock: Optional[EventClock] = None
    ) -> Iterable[Record]:
        """:meth:`_derive`'s rows as a stream of records for the reference
        row engine: the source's (with LET, the derived store's) records,
        under WINDOW each timed record's ``stamp_record`` copies on
        ``clock``.  The oracle of a large stream holds only the input."""
        if self._let is not None:
            source = self._input(source)
        records = source.records if isinstance(source, ColumnStore) else source
        if self._assigner is None:
            return records
        clock, assigner = clock or EventClock(), self._assigner

        def stamped() -> Iterable[Record]:
            for record in records:
                t = clock.event_time(record)
                if t is not None:
                    yield from stamp_record(record, t, assigner)

        return stamped()

    def _fold(self, db: _DB, source: Source, clock: Optional[EventClock] = None) -> None:
        """Fold the derived rows of ``source`` into ``db``: a state table
        reads the store, the reference row engine its records."""
        with observe.span("query.scan"):
            if isinstance(db, StateTable):
                db.fold(*self._derive(source, clock), where=self.query.where)
            else:
                db.process_all(self._derived_records(source, clock))

    # -- one-shot execution ------------------------------------------------------

    def run(self, source: Source, backend: str = "auto") -> QueryResult:
        """Execute the full pipeline over ``source``, one input: a record
        iterable or a :class:`~repro.io.colfile.ColumnStore`, read as a
        store either way (no ``Record`` built).

        An aggregation folds a state table and renders its answer as a
        store; a query without AGGREGATE filters and projects the store;
        both are sorted and cut by column, and records are built from the
        answer only when the caller reads them.  ``backend="rows"``
        aggregates with the reference row engine (:class:`AggregationDB`).
        """
        if backend not in BACKENDS:
            raise QueryError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        with observe.span("query.run", backend=backend):
            if self.scheme is None:
                return self._select(source)
            db = self.make_db(backend)
            self._fold(db, source)
            return self.finalize(db)

    def _select(self, source: Source) -> QueryResult:
        """A query without AGGREGATE: WHERE as column masks, SELECT as a
        column projection, then ORDER BY / LIMIT."""
        with observe.span("query.scan"):
            store = self._input(source)  # no WINDOW without AGGREGATE
            rows = where_rows(store, self.query.where)
            if rows is not None:
                store = store.take(rows)
            if self.query.select:
                store = store.select(self.query.select)
        with observe.span("query.render"):
            return QueryResult(self._order_and_limit(store), self.query.select, self.query.format)

    # -- partial aggregation (the process pool and the MPI query application) -------

    def make_db(self, backend: str = "auto") -> _DB:
        """A fresh partial state table for this query's scheme; the
        reference row engine's :class:`AggregationDB` for ``backend="rows"``."""
        if self.scheme is None:
            raise ValueError("query has no aggregation; make_db() needs AGGREGATE")
        return AggregationDB(self.scheme) if backend == "rows" else StateTable(self.scheme)

    def feed(self, table: _DB, source: Source, clock: Optional[EventClock] = None) -> None:
        """Fold a source (after LET and WINDOW) into a partial table.
        Partial tables from many feeds merge exactly
        (:meth:`StateTable.merge`).  ``clock`` carries a WINDOW query's
        event clock from one part of an input to the next; without one,
        ``source`` is a whole input with its own."""
        with observe.span("query.feed"):
            self._fold(table, source, clock)

    def feed_file(
        self, table: _DB, path: Union[str, os.PathLike]
    ) -> tuple[int, float]:
        """Fold one file into a partial table, its globals folded into its rows.

        The one per-file fold of every multi-file runner.  An ``.rcf`` file
        goes one chunk store at a time: the globals are overlaid on every
        decoded chunk as constant columns (a global overrides a same-named
        column) and the chunk store goes straight to :meth:`feed`, so peak
        memory stays one chunk and no Record is built.  A WINDOW query's
        event clock runs across the file's chunks.  Text formats are parsed
        into records first.

        Returns ``(rows, parse seconds)``; for ``.rcf`` "parse" is opening
        the file and decoding its chunks.
        """
        clock = EventClock()
        if _format_of(path) != "rcf":
            records, _globals, parse_seconds = _load_source_timed(path)
            self.feed(table, records, clock)
            return len(records), parse_seconds
        start = time.perf_counter()
        with ColfileReader(path) as reader:
            decode_seconds = time.perf_counter() - start
            for index in range(reader.num_chunks):
                start = time.perf_counter()
                store = reader.chunk_store(index).with_constants(reader.globals)
                decode_seconds += time.perf_counter() - start
                self.feed(table, store, clock)
            return reader.num_records, decode_seconds

    def finalize(self, table: _DB) -> QueryResult:
        """Render a (possibly merged) table and apply ORDER BY / LIMIT /
        FORMAT; the records are built only when the caller reads them."""
        with observe.span("query.render"):
            return self.answer(table.render() if isinstance(table, StateTable) else table.flush())

    def answer(self, out: Union[ColumnStore, list[Record]]) -> QueryResult:
        """The query's answer from its aggregated output rows — a rendered
        store or the row engine's records — sorted and cut as columns."""
        store = out if isinstance(out, ColumnStore) else ColumnStore.from_records(out)
        return QueryResult(self._order_and_limit(store), self._preferred_columns(), self.query.format)

    # -- helpers -------------------------------------------------------------------

    def _preferred_columns(self) -> list[str]:
        assert self.scheme is not None
        preferred = list(self.scheme.key)
        for op in self.scheme.ops:
            preferred.extend(op.output_labels())
        if self.query.select:
            # An explicit SELECT fixes the leading column order.
            chosen = [c for c in self.query.select if c in preferred]
            preferred = chosen + [c for c in preferred if c not in chosen]
        return preferred

    def _order_and_limit(self, store: ColumnStore) -> ColumnStore:
        if not self.query.order_by and self.query.limit is None:
            return store
        return store.take(order_rows(store, self.query.order_by, self.query.limit))

    def __repr__(self) -> str:
        return f"QueryEngine({self.query.unparse()!r})"


def order_rows(
    store: ColumnStore, order: Sequence[OrderSpec], limit: Optional[int] = None
) -> np.ndarray:
    """The rows of ``store`` in ``ORDER BY`` order, cut to ``LIMIT``.

    One stable ``np.lexsort`` over each key's
    :meth:`~repro.io.colfile.ColumnStore.order_rank`, negated for DESC:
    missing values sort lowest (first ASC, last DESC), a NaN above every
    number, and ties keep their input order in either direction — a stable
    ``reverse=True`` sort.
    """
    keys = []
    for spec in reversed(order):  # lexsort's primary key is its last
        rank = store.order_rank(spec.label)
        if rank is not None:  # no row has it: every row ties
            keys.append(rank if spec.ascending else -rank)
    rows = np.lexsort(keys) if keys else np.arange(len(store))
    return rows if limit is None else rows[:limit]


def run_query(
    text: str,
    records: Iterable[Record],
    options: Union[QueryOptions, dict, None] = None,
) -> QueryResult:
    """Convenience one-liner: parse, validate, execute.

    ``options`` is a shared :class:`~repro.query.options.QueryOptions`
    (only ``backend`` applies to an in-memory record stream).
    """
    opts = QueryOptions.coerce(options)
    return QueryEngine(text).run(records, backend=opts.backend)
