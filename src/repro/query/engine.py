"""The off-line query engine (analytical aggregation).

Executes CalQL queries over record streams: LET preprocessing, WHERE
filtering, aggregation (when the query has operators), ORDER BY, LIMIT, and
FORMAT rendering.  The aggregation stage folds into the
:class:`~repro.aggregate.table.StateTable` the aggregation server's shards
hold (or, for ``backend="rows"``, the per-record :class:`AggregationDB` of
the on-line service); the engine also exposes the partial-aggregation steps
(:meth:`QueryEngine.make_db`, :meth:`QueryEngine.feed`,
:meth:`QueryEngine.feed_file`, :meth:`QueryEngine.finalize`) over a state
table, which the MPI-parallel query application and the process-pool
workers compose with a reduction tree.

Execution backends: aggregation queries run either through the streaming
row engine or the vectorized columnar backend
(:mod:`repro.query.columnar`).  The planner in :meth:`QueryEngine.run` and
:meth:`QueryEngine.feed` consults :func:`supports_scheme` and picks the
columnar path automatically whenever every operator has a vector kernel;
``backend="rows"``/``"columnar"`` overrides it explicitly.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Union

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
from .columnar import Source, supports_scheme, unsupported_ops

if TYPE_CHECKING:  # pragma: no cover
    from .options import QueryOptions

__all__ = ["QueryEngine", "QueryResult", "run_query"]

_BACKENDS = ("auto", "rows", "columnar")


class QueryResult:
    """Query output: records plus rendering helpers; ``str()`` honours the
    query's FORMAT clause (default: aligned table).

    An aggregation's output arrives as the store its state table rendered
    (:meth:`~repro.aggregate.table.StateTable.render`); its records are
    built once, when something first reads :attr:`records` (or iterates,
    indexes or formats the result).
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
        from ..report.table import TableOptions, format_table

        return format_table(self.records, self.preferred_columns, TableOptions(**kwargs))

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
        #: backend the planner chose on the most recent run/feed
        self.last_backend: Optional[str] = None
        #: one-line justification for the most recent backend decision
        self.last_backend_reason: Optional[str] = None

    # -- planner -------------------------------------------------------------------

    def _pick_backend(self, backend: str) -> tuple[str, str]:
        """Resolve a ``backend=`` argument against this query's scheme.

        Returns ``(chosen, reason)`` — the reason string is recorded in
        :attr:`last_backend_reason` and in the ``query.backend.decision``
        telemetry counter, so planner behaviour is observable after the fact.
        """
        if backend not in _BACKENDS:
            raise QueryError(
                f"unknown backend {backend!r}; expected one of {', '.join(_BACKENDS)}"
            )
        if self.scheme is None:
            if backend == "columnar":
                raise QueryError(
                    "the columnar backend requires an aggregation query "
                    "(pure filter/projection queries always stream)"
                )
            return "rows", "no aggregation: filter/projection queries stream"
        if backend == "auto":
            if supports_scheme(self.scheme):
                return "columnar", "planner: every operator has a vector kernel"
            unsupported = ", ".join(unsupported_ops(self.scheme))
            return "rows", f"planner: no vector kernel for {unsupported}"
        if backend == "columnar" and not supports_scheme(self.scheme):
            unsupported = ", ".join(op.spec_string() for op in self.scheme.ops)
            raise QueryError(
                f"columnar backend does not support every operator in: {unsupported}"
            )
        return backend, f"explicit backend={backend}"

    def _plan(self, backend: str) -> str:
        """Run the planner under its tracing span and record the decision."""
        with observe.span("query.plan"):
            chosen, reason = self._pick_backend(backend)
        self.last_backend = chosen
        self.last_backend_reason = reason
        observe.count("query.backend.decision", backend=chosen, reason=reason)
        return chosen

    def reads_stores(self, backend: str = "auto") -> bool:
        """Whether :meth:`feed` hands a column store to the vector kernels as
        it is — False when it needs rows (rows backend, an operator without a
        kernel, LET, WINDOW)."""
        return (
            self._pick_backend(backend)[0] == "columnar"
            and self._let is None
            and self._assigner is None
        )

    def _fold(self, table: StateTable, source: Source, chosen: str) -> None:
        """Fold ``source`` into ``table`` under the planner's choice.

        A column store is only valid for the raw rows it holds — the rows
        backend, LET and WINDOW fold the (derived) records instead.
        """
        with observe.span("query.scan", backend=chosen):
            if not self.reads_stores(chosen):
                source = list(self._preprocess(source))
            table.fold(source, where=self.query.where)

    # -- one-shot execution ------------------------------------------------------

    def run(self, source: Source, backend: str = "auto") -> QueryResult:
        """Execute the full pipeline over ``source``.

        ``source`` is a record iterable or a
        :class:`~repro.io.colfile.ColumnStore`; the columnar path reads a
        store as it is (no row→column conversion, no ``Record`` built),
        renders its answer as a store too (records are built from it only
        for ORDER BY / LIMIT, or when the caller reads them), and everything
        row-oriented hydrates its records on demand.  ``backend``
        selects the aggregation engine (``auto``/``rows``/``columnar``).
        """
        with observe.span("query.run", backend=backend):
            chosen = self._plan(backend)
            if self.scheme is not None:
                if chosen == "columnar":
                    table = self.make_db()
                    self._fold(table, source, chosen)
                    return self.finalize(table)
                db = AggregationDB(self.scheme)
                with observe.span("query.scan", backend="rows"):
                    db.process_all(self._preprocess(source))
                with observe.span("query.render"):
                    return self._answer(db.flush())
            with observe.span("query.scan", backend="rows"):
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

    def feed(self, table: StateTable, source: Source, backend: str = "auto") -> None:
        """Fold a source (after LET preprocessing) into a partial table.

        The planner applies here too: a store goes to the vector kernels as
        it is when :meth:`reads_stores`; otherwise the table folds the
        (preprocessed) records.  Partial tables from many feeds merge
        exactly (:meth:`StateTable.merge`).
        """
        with observe.span("query.feed", backend=backend):
            self._fold(table, source, self._plan(backend))

    def feed_file(
        self,
        table: StateTable,
        path: Union[str, os.PathLike],
        backend: str = "auto",
    ) -> tuple[int, float]:
        """Fold one file into a partial table, its globals folded into its rows.

        The one per-file fold of every multi-file runner.  An ``.rcf`` file
        goes one chunk store at a time: the globals are overlaid on every
        decoded chunk as constant columns (a global overrides a same-named
        column) and the chunk store goes straight to :meth:`feed`, so peak
        memory stays one chunk and Records are only hydrated — lazily, per
        chunk — where :meth:`feed` needs rows.  Text formats are parsed into
        records first.

        Returns ``(rows, parse seconds)``; for ``.rcf`` "parse" is opening
        the file and decoding its chunks.
        """
        if _format_of(path) != "rcf":
            records, _globals, parse_seconds = _load_source_timed(path)
            self.feed(table, records, backend)
            return len(records), parse_seconds
        start = time.perf_counter()
        with ColfileReader(path) as reader:
            decode_seconds = time.perf_counter() - start
            for index in range(reader.num_chunks):
                start = time.perf_counter()
                store = reader.chunk_store(index).with_constants(reader.globals)
                decode_seconds += time.perf_counter() - start
                self.feed(table, store, backend)
            return reader.num_records, decode_seconds

    def finalize(self, table: StateTable) -> QueryResult:
        """Render a (possibly merged) table and apply ORDER BY / LIMIT /
        FORMAT; the records are built only for ORDER BY / LIMIT, or when
        the caller reads them."""
        with observe.span("query.render"):
            return self._answer(table.render())

    def _answer(self, out: Union[ColumnStore, list[Record]]) -> QueryResult:
        if self.query.order_by or self.query.limit is not None:
            if isinstance(out, ColumnStore):
                out = result_records(out)
            out = self._order_and_limit(out)
        return QueryResult(out, self._preferred_columns(), self.query.format)

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

    def _order_and_limit(self, records: list[Record]) -> list[Record]:
        order = self.query.order_by
        if order:
            records = sort_records(records, order)
        if self.query.limit is not None:
            records = records[: self.query.limit]
        return records

    def __repr__(self) -> str:
        return f"QueryEngine({self.query.unparse()!r})"


def sort_records(records: list[Record], order: Sequence[OrderSpec]) -> list[Record]:
    """Stable multi-key sort by Variant order; missing values sort first."""
    out = list(records)
    # Apply keys in reverse for a stable compound sort.
    for spec in reversed(order):
        label = spec.label

        def sort_key(record: Record, _label: str = label):
            v = record.get(_label)
            if v.is_empty:
                return (0, ())
            return (1, v._order_key())

        out.sort(key=sort_key, reverse=not spec.ascending)
    return out


def run_query(
    text: str,
    records: Iterable[Record],
    options: Union["QueryOptions", dict, None] = None,
) -> QueryResult:
    """Convenience one-liner: parse, validate, execute.

    ``options`` is a shared :class:`~repro.query.options.QueryOptions`
    (only ``backend`` applies to an in-memory record stream).
    """
    from .options import QueryOptions

    opts = QueryOptions.coerce(options)
    return QueryEngine(text).run(records, backend=opts.backend)
