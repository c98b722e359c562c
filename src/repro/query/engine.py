"""The off-line query engine (analytical aggregation).

Executes CalQL queries over record streams: LET preprocessing, WHERE
filtering, aggregation (when the query has operators), ORDER BY, LIMIT, and
FORMAT rendering.  Every aggregation folds into the
:class:`~repro.aggregate.table.StateTable` the aggregation server's shards
hold — column kernels where an operator has one, its own ``update`` per row
where it has not — and renders it by column; the same partial-aggregation
steps (:meth:`QueryEngine.make_db`, :meth:`QueryEngine.feed`,
:meth:`QueryEngine.feed_file`, :meth:`QueryEngine.finalize`) serve the MPI
query application and the process-pool workers, which merge their tables
up a reduction tree.

``backend="rows"`` runs the reference row engine instead: the per-record
:class:`AggregationDB` of the on-line service, the oracle every table fold
is checked against.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .. import observe
from ..aggregate.db import AggregationDB
from ..aggregate.ops import OperatorRegistry
from ..aggregate.scheme import AggregationScheme
from ..aggregate.table import StateTable
from ..calql.ast import OrderSpec, Query
from ..calql.parser import parse_query
from ..calql.semantics import build_scheme, compile_conditions, compile_let, validate
from ..common.errors import QueryError
from ..common.record import Record
from ..common.variant import Variant
from ..io.colfile import ColfileReader, ColumnStore, result_records
from ..io.dataset import _format_of, _load_source_timed
from .columnar import Source
from .options import BACKENDS, QueryOptions

__all__ = ["QueryEngine", "QueryResult", "run_query"]

#: a query's output rows: a rendered store, or records
_Rows = Union[ColumnStore, list[Record]]


class QueryResult:
    """Query output: records plus rendering helpers; ``str()`` honours the
    query's FORMAT clause (default: aligned table).

    An aggregation's output arrives as the store its state table rendered
    (:meth:`~repro.aggregate.table.StateTable.render`); its records are
    built once, when something first reads :attr:`records` (or iterates,
    indexes, or writes it as CSV, JSON or a tree); ORDER BY / LIMIT and
    :meth:`to_table` work on its columns.
    """

    def __init__(
        self,
        records: Union[list[Record], ColumnStore],
        preferred_columns: Sequence[str] = (),
        fmt: Optional[str] = None,
    ) -> None:
        self._store = records if isinstance(records, ColumnStore) else None
        self._records = None if self._store is not None else records
        self.preferred_columns = list(preferred_columns)
        self.format = (fmt or "table").lower()

    @property
    def records(self) -> list[Record]:
        if self._records is None:
            self._records = result_records(self._store)
        return self._records

    def __len__(self) -> int:
        return len(self._store) if self._records is None else len(self._records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    def column(self, label: str) -> list[Variant]:
        """Non-empty values of one output column, in result order."""
        out = []
        for record in self.records:
            v = record.get(label)
            if not v.is_empty:
                out.append(v)
        return out

    def rows(self, labels: Sequence[str]) -> list[tuple]:
        """Raw-value tuples for the given columns (None where missing)."""
        out = []
        for record in self.records:
            get = record.get
            row = []
            for lbl in labels:
                v = get(lbl)
                row.append(None if v.is_empty else v.value)
            out.append(tuple(row))
        return out

    def to_table(self, **kwargs) -> str:
        """The aligned table, rendered from the result's columns when it
        arrived as a store (no record is built)."""
        from ..report.table import TableOptions, format_table

        source = self.records if self._store is None else self._store
        return format_table(source, self.preferred_columns, TableOptions(**kwargs))

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
    """A compiled CalQL query, executable over any record stream."""

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
            self._where: Optional[Callable[[Record], bool]]
            if self.query.is_aggregation:
                # WHERE lives inside the scheme's predicate on the aggregation path.
                self.scheme = build_scheme(self.query, registry)
                self._where = None
            else:
                self._where = compile_conditions(self.query.where)
            self._assigner = None
            self._time_attribute = None
            if self.query.is_aggregation and self.query.window is not None:
                # WINDOW queries stamp window.start/window.end onto each
                # record (after LET) before folding; the scheme's key
                # already includes both labels (see calql.semantics).
                from ..window.assign import DEFAULT_TIME_ATTRIBUTE, make_assigner

                self._assigner = make_assigner(self.query.window)
                self._time_attribute = DEFAULT_TIME_ATTRIBUTE

    def reads_stores(self) -> bool:
        """Whether :meth:`feed` folds a column store as it is — False for a
        query without AGGREGATE, and where LET or WINDOW derive the rows."""
        return self.scheme is not None and self._let is None and self._assigner is None

    def _fold(self, table: StateTable, source: Source) -> None:
        """Fold ``source`` into ``table``.  A column store is only valid for
        the raw rows it holds — LET and WINDOW fold the (derived) records
        instead."""
        with observe.span("query.scan"):
            if not self.reads_stores():
                source = list(self._preprocess(source))
            table.fold(source, where=self.query.where)

    # -- one-shot execution ------------------------------------------------------

    def run(self, source: Source, backend: str = "auto") -> QueryResult:
        """Execute the full pipeline over ``source``.

        ``source`` is a record iterable or a
        :class:`~repro.io.colfile.ColumnStore`.  An aggregation folds a
        state table, which reads a store as it is (no row→column
        conversion, no ``Record`` built) and renders its answer as a store
        too, sorted and cut by column (records are built from it only when
        the caller reads them); everything row-oriented hydrates its records
        on demand.  ``backend="rows"`` aggregates with the reference row
        engine (:class:`AggregationDB`) instead.
        """
        if backend not in BACKENDS:
            raise QueryError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        with observe.span("query.run", backend=backend):
            if self.scheme is not None:
                if backend == "auto":
                    table = self.make_db()
                    self._fold(table, source)
                    return self.finalize(table)
                db = AggregationDB(self.scheme)
                with observe.span("query.scan"):
                    db.process_all(self._preprocess(source))
                with observe.span("query.render"):
                    return self.answer(db.flush())
            with observe.span("query.scan"):
                out = []
                for record in self._preprocess(source):
                    if self._where is not None and not self._where(record):
                        continue
                    if self.query.select:
                        record = record.project(self.query.select)
                    out.append(record)
            with observe.span("query.render"):
                out = self._order_and_limit(out)
                preferred = list(self.query.select)
                return QueryResult(out, preferred, self.query.format)

    # -- partial aggregation (the process pool and the MPI query application) -------

    def make_db(self) -> StateTable:
        """A fresh partial state table for this query's scheme."""
        if self.scheme is None:
            raise ValueError("query has no aggregation; make_db() needs AGGREGATE")
        return StateTable(self.scheme)

    def feed(self, table: StateTable, source: Source) -> None:
        """Fold a source (after LET preprocessing) into a partial table: a
        store as it is when :meth:`reads_stores`, otherwise the
        (preprocessed) records.  Partial tables from many feeds merge
        exactly (:meth:`StateTable.merge`)."""
        with observe.span("query.feed"):
            self._fold(table, source)

    def feed_file(
        self, table: StateTable, path: Union[str, os.PathLike]
    ) -> tuple[int, float]:
        """Fold one file into a partial table, its globals folded into its rows.

        The one per-file fold of every multi-file runner.  An ``.rcf`` file
        goes one chunk store at a time: the globals are overlaid on every
        decoded chunk as constant columns (a global overrides a same-named
        column) and the chunk store goes straight to :meth:`feed`, so peak
        memory stays one chunk and Records are only hydrated — lazily, per
        chunk — for LET and WINDOW.  Text formats are parsed into records
        first.

        Returns ``(rows, parse seconds)``; for ``.rcf`` "parse" is opening
        the file and decoding its chunks.
        """
        if _format_of(path) != "rcf":
            records, _globals, parse_seconds = _load_source_timed(path)
            self.feed(table, records)
            return len(records), parse_seconds
        start = time.perf_counter()
        with ColfileReader(path) as reader:
            decode_seconds = time.perf_counter() - start
            for index in range(reader.num_chunks):
                start = time.perf_counter()
                store = reader.chunk_store(index).with_constants(reader.globals)
                decode_seconds += time.perf_counter() - start
                self.feed(table, store)
            return reader.num_records, decode_seconds

    def finalize(self, table: StateTable) -> QueryResult:
        """Render a (possibly merged) table and apply ORDER BY / LIMIT /
        FORMAT; the records are built only when the caller reads them."""
        with observe.span("query.render"):
            return self.answer(table.render())

    def answer(self, out: _Rows) -> QueryResult:
        """The query's answer from its aggregated output rows — a rendered
        store (sorted and cut as columns: the result holds the taken store)
        or the row engine's records — with ORDER BY / LIMIT applied."""
        return QueryResult(
            self._order_and_limit(out), self._preferred_columns(), self.query.format
        )

    # -- helpers -------------------------------------------------------------------

    def _preprocess(self, source: Source) -> Iterable[Record]:
        """The source's records (a store hydrates them on demand) after LET
        and WINDOW stamping."""
        records = source.records if isinstance(source, ColumnStore) else source
        if self._let is not None:
            let = self._let
            records = (let(r) for r in records)
        if self._assigner is not None:
            records = self._windowize(records)
        return records

    def _windowize(self, records: Iterable[Record]) -> Iterable[Record]:
        """Expand records into window-stamped copies (batch semantics).

        The whole input is one logical source: event time is the configured
        time attribute, falling back to the accumulated ``time.duration``
        offset.  Un-timed records cannot be placed in a window and are
        dropped.
        """
        from ..window.assign import EventClock, stamp_record

        clock = EventClock(self._time_attribute)
        assigner = self._assigner
        for record in records:
            t = clock.event_time(record)
            if t is None:
                continue
            yield from stamp_record(record, t, assigner)

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

    def _order_and_limit(self, out: _Rows) -> _Rows:
        if not self.query.order_by and self.query.limit is None:
            return out
        if isinstance(out, ColumnStore):
            return out.take(order_rows(out, self.query.order_by, self.query.limit))
        rows = order_rows(ColumnStore.from_records(out), self.query.order_by, self.query.limit)
        return [out[i] for i in rows.tolist()]

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


def sort_records(records: Iterable[Record], order: Sequence[OrderSpec]) -> list[Record]:
    """``records`` in ``ORDER BY`` order (:func:`order_rows`)."""
    records = list(records)
    return [records[i] for i in order_rows(ColumnStore.from_records(records), order).tolist()]


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
