"""Process-parallel off-line querying on real cores.

The MPI query application (:mod:`repro.query.mpi_query`) realizes the
paper's reduction tree on the *simulator* — deterministic, instrumented,
and sized to thousands of virtual ranks.  This module realizes the same
structure on actual cores: a :class:`~concurrent.futures.ProcessPoolExecutor`
fans the input files out to worker processes, each worker
**partially aggregates** its chunk with the regular
:class:`~repro.query.engine.QueryEngine` (columnar-planned when the scheme
qualifies; ``.rcf`` files are decoded into chunk stores and never turned
into records) into a :class:`~repro.aggregate.table.StateTable`, and only
its ``RSB1`` state batch (:meth:`StateTable.to_binary`) travels back, to be
decoded and merged by column (:meth:`StateTable.merge`) — the combine step
of the paper's tree, flattened to one level because a process pool has no
network hierarchy worth modelling.

Shipping aggregated states instead of records is what makes this win: the
inter-process payload is proportional to the number of *groups*, not the
number of input records.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence, Union

from .. import observe
from ..aggregate.table import StateTable
from ..common.errors import QueryError
from ..common.util import chunk_evenly
from ..io.dataset import _resolve_workers
from .engine import QueryEngine, QueryResult
from .options import QueryOptions

__all__ = ["parallel_query_files"]

#: Pool sizing counts work in parsed records (~9 us each, what
#: ``MIN_PARALLEL_RECORDS_PER_WORKER`` was sized for).  Folding a decoded
#: ``.rcf`` row through the column kernels costs ~0.2 us, so that many rows
#: weigh one record: two workers tie with the serial loop near 250k rows each
#: and win above it, below it the pool start is most of the wall.
RCF_ROWS_PER_RECORD = 40

#: per-file worker telemetry: (basename, parse seconds, feed seconds)
_FileTiming = tuple[str, float, float]


def _feed_files(
    engine: QueryEngine, table: StateTable, paths: Sequence[str], backend: str
) -> list[_FileTiming]:
    """Partially aggregate ``paths`` into ``table``, one file at a time
    (:meth:`QueryEngine.feed_file`: ``.rcf`` files stay columnar, parse =
    reader open + chunk decode; text formats are parsed into records).
    Durations are measured here — possibly in a worker process, out of
    reach of the parent's metrics registry — and recorded by the caller.
    """
    timings: list[_FileTiming] = []
    for path in paths:
        start = time.perf_counter()
        _rows, parse_seconds = engine.feed_file(table, path, backend)
        feed_seconds = time.perf_counter() - start - parse_seconds
        timings.append((os.path.basename(path), parse_seconds, feed_seconds))
    return timings


def _partial_worker(
    query_text: str, paths: list[str], backend: str
) -> tuple[bytes, int, int, list[_FileTiming]]:
    """Partially aggregate one chunk of files (runs in a worker process):
    the table's state batch, its stream counters and per-file timings.

    The query is compiled from text in the worker because compiled
    predicates (closures) do not pickle; schemes built from the same text
    are equal, so the shipped states merge cleanly at the parent.  The
    per-file timings are shipped back with the states, so the parent's
    metrics registry can attribute worker time.
    """
    engine = QueryEngine(query_text)
    table = engine.make_db()
    timings = _feed_files(engine, table, paths, backend)
    return table.to_binary(), table.num_offered, table.num_processed, timings


def _record_worker_timings(timings: Sequence[_FileTiming]) -> None:
    for basename, parse_seconds, feed_seconds in timings:
        observe.timing("parallel.file.parse", parse_seconds, file=basename)
        observe.timing("parallel.file.feed", feed_seconds, file=basename)


def parallel_query_files(
    query: str,
    paths: Sequence[Union[str, os.PathLike]],
    options: Union[QueryOptions, dict, None] = None,
) -> QueryResult:
    """Run an aggregation query over many files with real process parallelism.

    The oracle (not the implementation) is the rows backend over every
    file's records with that file's globals folded in,
    ``QueryEngine(query).run(Dataset.from_files(paths).records, backend="rows")``.
    Here each worker process partially aggregates its file chunk — ``.rcf``
    chunk stores go straight to the column kernels, no ``Record`` is built —
    and only partial aggregation states are merged in the parent.
    ``options`` is a :class:`~repro.query.options.QueryOptions`:
    ``jobs=None``/``True`` picks the pool size automatically — one worker
    per CPU, degrading to serial on single-core machines or undersized
    inputs (recorded as ``parallel.fallback``; ``.rcf`` rows that stay
    columnar count ``RCF_ROWS_PER_RECORD`` to a record); an explicit integer
    sets the pool size; 1 (or a single file) degrades to the serial path.
    """
    opts = QueryOptions.coerce(options)
    pool_size = True if opts.jobs is None else opts.jobs
    path_list = [os.fspath(p) for p in paths]
    engine = QueryEngine(query)
    if engine.scheme is None:
        raise QueryError(
            "parallel_query_files requires an aggregation query "
            "(partial results must be combinable)"
        )
    table = engine.make_db()
    if not path_list:
        # No inputs: an empty result of the right shape, no pool spin-up.
        return engine.finalize(table)
    n_workers = _resolve_workers(
        pool_size,
        len(path_list),
        path_list,
        RCF_ROWS_PER_RECORD if engine.reads_stores(opts.backend) else 1,
    )
    with observe.span(
        "parallel.query_files", files=len(path_list), workers=n_workers
    ):
        if n_workers <= 1:
            _record_worker_timings(_feed_files(engine, table, path_list, opts.backend))
        else:
            from concurrent.futures import ProcessPoolExecutor

            chunks = [c for c in chunk_evenly(path_list, n_workers) if c]
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [
                    pool.submit(_partial_worker, query, chunk, opts.backend)
                    for chunk in chunks
                ]
                # Merge in submission order for a deterministic result.
                for future in futures:
                    blob, offered, processed, timings = future.result()
                    with observe.span("parallel.merge"):
                        part = StateTable.from_binary(engine.scheme, blob)
                        part.num_offered, part.num_processed = offered, processed
                        table.merge(part)
                    _record_worker_timings(timings)
                    observe.count("parallel.states.shipped", len(part))
        return engine.finalize(table)
