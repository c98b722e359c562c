"""Datasets: in-memory record collections, columnar caching, multi-file loading.

A :class:`Dataset` is what off-line analysis works on: rows plus run
globals, loadable from one or many files (the per-process files a parallel
run produces).  It offers the pandas-like conveniences the analytical
workflow wants — ``query`` with CalQL text, column access, iteration.
Underneath it holds either a record list (built in memory, or parsed from
text files) or a column store: every ``.rcf`` source stays the decoded
column store it is on disk, one file or many, and a ``Record`` is built only
when something row-oriented asks — ``.records``, iteration, a
``backend="rows"`` query.

Two performance layers live here as well:

* :meth:`Dataset.column_store` — the dataset as a
  :class:`~repro.io.colfile.ColumnStore`: the decoded ``.rcf`` columns, or
  ``ColumnStore.from_records`` over the record list, whose dictionary
  columns are built per attribute on first use and cached across queries.
  The row→column convert step is the dominant cost of a table fold over
  records; caching it is what makes repeated interactive queries on one
  dataset fast.
* process-parallel loading — ``from_files(paths, parallel=N)`` parses text
  input files in a :class:`~concurrent.futures.ProcessPoolExecutor`, the
  paper's reduction-tree idea applied to real cores for the ingest phase.
"""

from __future__ import annotations

import glob as globmod
import os
import time
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .. import observe
from ..common.errors import DatasetError
from ..common.record import Record
from ..common.variant import Variant
from .calformat import read_cali, write_cali
from .colfile import (
    ColfileReader,
    ColumnStore,
    decode_batch_store,
    encode_batch,
    merge_stores,
    read_colfile,
    write_colfile,
)
from .csvio import write_csv
from .jsonio import read_json, write_json

if TYPE_CHECKING:  # pragma: no cover
    from ..query.engine import QueryResult

__all__ = ["Dataset", "write_records", "read_records"]


def _format_of(path: Union[str, os.PathLike]) -> str:
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext == ".cali":
        return "cali"
    if ext in (".json", ".jsonl"):
        return "json"
    if ext == ".csv":
        return "csv"
    if ext == ".rcf":
        return "rcf"
    raise DatasetError(f"cannot infer record format from extension {ext!r} ({path})")


def write_records(
    path: Union[str, os.PathLike],
    records: Iterable[Record],
    globals_: Optional[dict[str, object]] = None,
) -> int:
    """Write records to ``path``, format chosen by extension."""
    fmt = _format_of(path)
    if fmt == "cali":
        return write_cali(path, records, globals_=globals_)
    if fmt == "json":
        return write_json(path, records, globals_=globals_)
    if fmt == "rcf":
        return write_colfile(path, records, globals_=globals_)
    return write_csv(path, records)


def read_records(path: Union[str, os.PathLike]) -> tuple[list[Record], dict[str, Variant]]:
    """Read records (and globals, if the format has them) from ``path``."""
    fmt = _format_of(path)
    if fmt == "cali":
        records, globals_ = read_cali(path, with_globals=True)
        return records, globals_
    if fmt == "json":
        records, globals_ = read_json(path, with_globals=True)
        return records, globals_
    if fmt == "rcf":
        return read_colfile(path)
    from .csvio import read_csv

    return read_csv(path), {}


def _load_source_timed(
    path: Union[str, os.PathLike],
) -> tuple[list[Record], dict[str, Variant], float]:
    """Read one file (globals folded in) and measure the parse wall time.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` workers
    can pickle a reference to it.  The duration is *measured* here —
    including inside worker processes, where the parent's metrics registry
    is unreachable — and *recorded* by the caller, which is how per-file
    parse time stays attributable across process boundaries.
    """
    start = time.perf_counter()
    records, globals_ = read_records(path)
    if globals_:
        records = [r.with_entries(globals_) for r in records]
    return records, globals_, time.perf_counter() - start


def _load_source_packed(
    path: Union[str, os.PathLike],
) -> tuple[bytes, dict[str, Variant], float, int]:
    """Parallel-ingest worker: parse one file and ship *column buffers*.

    Pickling a million Record objects back to the parent re-encodes every
    value through ``pickle``; encoding the parsed records into one binary
    column batch moves a single compact buffer per file instead, and the
    parent's decode shares interned Variants across rows.  Results are
    identical to :func:`_load_source_timed` (globals are folded in before
    encoding, and the batch codec round-trips records exactly).
    """
    records, globals_, elapsed = _load_source_timed(path)
    return encode_batch(records), globals_, elapsed, len(records)


#: Auto-parallel heuristics (``parallel=True``): a process pool only pays off
#: when each worker amortizes its fork/pickle cost over a meaningful share of
#: the input.  Record counts come from the ``.rcf`` footer (exact) or are
#: estimated from file sizes before parsing; module-level so tests and
#: unusual deployments can tune them.  The threshold is sized for records
#: that cost a text parse or a ``Record`` hydration each (4-9 us).
MIN_PARALLEL_RECORDS_PER_WORKER = 10_000
APPROX_BYTES_PER_RECORD = 48
#: ``.rcf`` rows stay columns: folding one costs ~0.2 us, so that many weigh
#: one record; two workers tie with the serial loop near 250k rows each.
RCF_ROWS_PER_RECORD = 40


def _estimate_records(paths: Optional[Sequence[str]]) -> Optional[int]:
    """Work before parsing, in records — from an ``.rcf`` footer's exact row
    count (the format is ~12 B/record, a byte estimate is 4x off), weighed
    by ``RCF_ROWS_PER_RECORD``, rough from a text file's size; None when it
    cannot be estimated."""
    if not paths:
        return None
    rows = text_bytes = 0
    for path in paths:
        try:
            if _format_of(path) == "rcf":
                with ColfileReader(path) as reader:
                    rows += reader.num_records
            else:
                text_bytes += os.path.getsize(path)
        except (OSError, DatasetError):
            # Missing/unreadable file: let the reader raise its usual error.
            return None
    return rows // RCF_ROWS_PER_RECORD + text_bytes // APPROX_BYTES_PER_RECORD


def _resolve_workers(
    parallel: Union[bool, int, None],
    n_items: int,
    paths: Optional[Sequence[str]] = None,
) -> int:
    """Turn a ``parallel=`` argument into a worker count (1 = serial).

    An explicit integer is a user override, clamped only to the item count.
    ``parallel=True`` (auto) additionally applies fallback heuristics — a
    pool on a single-core machine, or one whose per-worker share falls below
    ``MIN_PARALLEL_RECORDS_PER_WORKER``, is pure overhead (the 0.58x ingest
    "speedup" in early benchmark runs).  Each fallback decision is recorded
    as a ``parallel.fallback`` count with its reason.
    """
    if not parallel or n_items <= 1:
        return 1
    if parallel is not True:
        return max(1, min(int(parallel), n_items))
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        observe.count("parallel.fallback", reason="single-core")
        return 1
    workers = min(cpus, n_items)
    est_records = _estimate_records(paths)
    if est_records is not None:
        cap = max(1, int(est_records // MIN_PARALLEL_RECORDS_PER_WORKER))
        if cap < workers:
            observe.count("parallel.fallback", reason="small-input", workers=cap)
            workers = cap
    return workers


class Dataset:
    """Records + globals, with query and export conveniences.

    Datasets opened from ``.rcf`` columnar files — one or several — are
    *lazy*: the decoded :class:`~repro.io.colfile.ColumnStore` is attached
    immediately and Record objects are only materialized if something
    row-oriented touches ``.records`` — vectorized queries run straight off
    the store.
    """

    def __init__(
        self,
        records: Iterable[Record] = (),
        globals_: Optional[dict[str, Variant]] = None,
        sources: Sequence[str] = (),
    ) -> None:
        self._records: Optional[list[Record]] = list(records)
        self.globals: dict[str, Variant] = dict(globals_ or {})
        #: file paths this dataset was assembled from (informational)
        self.sources: list[str] = list(sources)
        self._store: Optional[ColumnStore] = None

    @property
    def records(self) -> list[Record]:
        if self._records is None:
            # hydrate from the columnar store (shared with column_store())
            self._records = self._store.records  # type: ignore[union-attr]
        return self._records

    @records.setter
    def records(self, value: Iterable[Record]) -> None:
        self._records = list(value)
        self._store = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "Dataset":
        """One file: the one-element :meth:`from_files`, globals folded in."""
        return cls.from_files([path])

    @classmethod
    def _lazy(
        cls, store: ColumnStore, globals_: dict[str, Variant], sources: Sequence[str]
    ) -> "Dataset":
        """A dataset over a decoded column store; no ``Record`` exists yet."""
        dataset = cls((), globals_, sources)
        dataset._store = store
        dataset._records = None
        return dataset

    @classmethod
    def from_files(
        cls,
        paths: Iterable[Union[str, os.PathLike]],
        parallel: Union[bool, int, None] = None,
    ) -> "Dataset":
        """Concatenate several files (e.g. one per process).

        Per-file globals are folded into the rows of that file so cross-file
        attributes (like the producing rank) stay distinguishable, then
        dropped from the dataset-level globals when files disagree.

        ``.rcf`` files are mapped and stay column stores (their globals
        overlaid as constant columns); text files are parsed.  The result is
        lazy — no ``Record`` until something asks for rows — unless a text
        file was parsed in this process, whose records already exist.

        ``parallel`` parses the text files in a process pool: ``True`` picks
        the pool size automatically (one worker per CPU, falling back to
        serial on single-core machines or when the per-worker share of the
        text input is too small to amortize the pool); an integer is an
        explicit worker count.  The result is identical to the serial path
        (files are merged in argument order).  For
        aggregation queries over many files, prefer
        :func:`repro.query.parallel_query_files`, which also *aggregates* in
        the workers and only ships small partial states back.
        """
        path_list = [os.fspath(p) for p in paths]
        if not path_list:
            return cls()
        text = [p for p in path_list if _format_of(p) != "rcf"]
        workers = _resolve_workers(parallel, len(text), text)
        with observe.span("ingest.from_files", files=len(path_list), workers=workers):
            packed: dict[str, tuple] = {}
            if workers > 1:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers) as pool:
                    packed = dict(zip(text, pool.map(_load_source_packed, text)))
            # one part per file: a column store, or the records of a text
            # file parsed here
            parts: list[Union[ColumnStore, list[Record]]] = []
            merged_globals: dict[str, Variant] = {}
            conflicting: set[str] = set()
            for path in path_list:
                if _format_of(path) == "rcf":
                    start = time.perf_counter()
                    with ColfileReader(path) as reader:
                        globals_ = reader.globals
                        part = reader.store().with_constants(globals_)
                    parse_seconds = time.perf_counter() - start
                elif packed:
                    batch, globals_, parse_seconds, _count = packed[path]
                    part = decode_batch_store(batch)  # globals folded in by the worker
                else:
                    part, globals_, parse_seconds = _load_source_timed(path)
                # Worker-measured parse time, attributed per file (the span
                # above holds the end-to-end ingest wall time).
                observe.timing(
                    "ingest.file.parse", parse_seconds, file=os.path.basename(path)
                )
                observe.count("ingest.records", len(part))
                for key, value in globals_.items():
                    if key in merged_globals and merged_globals[key] != value:
                        conflicting.add(key)
                    merged_globals.setdefault(key, value)
                parts.append(part)
            for key in conflicting:
                merged_globals.pop(key, None)
            if all(isinstance(part, ColumnStore) for part in parts):
                return cls._lazy(merge_stores(parts), merged_globals, path_list)
            all_records: list[Record] = []
            for part in parts:
                all_records.extend(
                    part.records if isinstance(part, ColumnStore) else part
                )
            return cls(all_records, merged_globals, path_list)

    @classmethod
    def from_glob(cls, pattern: str, parallel: Union[bool, int, None] = None) -> "Dataset":
        paths = sorted(globmod.glob(pattern))
        if not paths:
            raise DatasetError(f"no files match {pattern!r}")
        return cls.from_files(paths, parallel=parallel)

    # -- basic container behaviour ------------------------------------------------

    def __len__(self) -> int:
        return len(self.column_store())  # a lazy store knows without hydrating

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    def labels(self) -> list[str]:
        """Union of attribute labels across all records, sorted (read off
        the cached :meth:`column_store`)."""
        return self.column_store().labels()

    def column(self, label: str) -> list[Variant]:
        """All non-empty values of one attribute, in record order, read off
        the cached :meth:`column_store` (a lazy dataset stays lazy)."""
        return self.column_store().column_values(label)

    def extend(self, records: Iterable[Record]) -> None:
        self.records.extend(records)  # hydrates first when lazy
        self._store = None  # interned columns no longer cover every record

    # -- analysis ---------------------------------------------------------------

    def column_store(self) -> ColumnStore:
        """The cached interned-column view of this dataset.

        Built lazily (per attribute, on first use by a columnar query) and
        reused across queries; rebuilt when the record list has changed.
        """
        store = self._store
        if store is not None and self._records is None:
            return store  # lazy .rcf store; don't force record hydration
        if (
            store is None
            or store.records is not self.records
            or len(store) != len(self.records)
        ):
            store = ColumnStore.from_records(self.records)
            self._store = store
        return store

    def query(self, text: str, backend: str = "auto") -> "QueryResult":
        """Run a CalQL query over this dataset (the analytical path).

        Every query reads the cached :meth:`column_store`, so repeated
        queries skip the row→column conversion and a lazy ``.rcf`` dataset
        builds no ``Record`` — except for ``backend="rows"``, the reference
        row engine, which folds the derived rows' records.  The whole
        dataset is one input: a WINDOW query runs one event clock over it.
        """
        from ..query.engine import QueryEngine  # deferred: query sits above io

        return QueryEngine(text).run(self.column_store(), backend=backend)

    def summary(self) -> str:
        """Per-attribute overview: occurrence count, types, value span.

        The first thing an analyst wants from an unfamiliar dataset: which
        dimensions exist and what they look like.
        """
        stats: dict[str, dict] = {}
        for record in self.records:
            for label, value in record.items():
                s = stats.setdefault(
                    label, {"count": 0, "types": set(), "min": None, "max": None, "values": set()}
                )
                s["count"] += 1
                s["types"].add(value.type.value)
                if value.is_numeric:
                    x = value.to_double()
                    s["min"] = x if s["min"] is None else min(s["min"], x)
                    s["max"] = x if s["max"] is None else max(s["max"], x)
                elif len(s["values"]) <= 8:
                    s["values"].add(value.to_string())

        lines = [f"{len(self.records)} records, {len(stats)} attributes"]
        width = max((len(lbl) for lbl in stats), default=0)
        for label in sorted(stats):
            s = stats[label]
            types = ",".join(sorted(s["types"]))
            if s["min"] is not None:
                span = f"range [{s['min']:.6g}, {s['max']:.6g}]"
            else:
                shown = sorted(s["values"])
                span = "values {" + ", ".join(shown[:6])
                span += ", ...}" if len(shown) > 6 else "}"
            lines.append(f"  {label.ljust(width)}  {s['count']:>8}x  {types:<8}  {span}")
        return "\n".join(lines)

    # -- export ------------------------------------------------------------------

    def to_file(self, path: Union[str, os.PathLike]) -> int:
        return write_records(
            path, self.records, {k: v.value for k, v in self.globals.items()}
        )

    def save(self, path: Union[str, os.PathLike], chunk_rows: int = 0) -> int:
        """Write this dataset as an ``.rcf`` columnar file.

        The binary columnar counterpart of :meth:`to_file`: typed column
        buffers that :meth:`from_file` maps straight back into the cached
        column store without parsing.  ``chunk_rows`` bounds the rows per
        chunk (0 = default), which is also the granularity at which
        ``repro.api.query`` later streams the file for out-of-core scans.
        """
        return write_colfile(
            path, self.records, globals_=self.globals, chunk_rows=chunk_rows
        )

    def __repr__(self) -> str:
        return f"Dataset({len(self)} records from {len(self.sources) or 'memory'} source(s))"
