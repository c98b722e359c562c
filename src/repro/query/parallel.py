"""Process-parallel off-line querying on real cores.

The MPI query application (:mod:`repro.query.mpi_query`) realizes the
paper's reduction tree on the *simulator* — deterministic, instrumented,
and sized to thousands of virtual ranks.  This module realizes the same
structure on actual cores: a :class:`~concurrent.futures.ProcessPoolExecutor`
fans the input files out to worker processes, each worker reads and
**partially aggregates** its chunk with the regular
:class:`~repro.query.engine.QueryEngine` (columnar-planned when the scheme
qualifies), and only the small per-key operator states travel back to be
merged through :meth:`AggregationDB.load_states` — the combine step of the
paper's tree, flattened to one level because a process pool has no
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
from ..common.errors import QueryError
from ..common.util import chunk_evenly
from ..common.variant import Variant
from ..io.dataset import _load_source_timed, _resolve_workers
from .engine import QueryEngine, QueryResult
from .options import QueryOptions

__all__ = ["parallel_query_files"]

#: per-file worker telemetry: (basename, parse seconds, feed seconds)
_FileTiming = tuple[str, float, float]


def _partial_worker(
    query_text: str, paths: list[str], backend: str
) -> tuple[list[tuple[dict[str, Variant], list[list]]], int, int, list[_FileTiming]]:
    """Read + partially aggregate one chunk of files (runs in a worker).

    The query is compiled from text in the worker because compiled
    predicates (closures) do not pickle; schemes built from the same text
    are equal, so the exported states merge cleanly at the parent.  Per-file
    parse and feed durations are measured here and shipped back with the
    states, so the parent's metrics registry can attribute worker time.
    """
    engine = QueryEngine(query_text)
    db = engine.make_db()
    timings: list[_FileTiming] = []
    for path in paths:
        records, _globals, parse_seconds = _load_source_timed(path)
        feed_start = time.perf_counter()
        engine.feed(db, records, backend=backend)
        timings.append(
            (os.path.basename(path), parse_seconds, time.perf_counter() - feed_start)
        )
        del records  # keep peak memory at one file per worker
    return db.export_states(), db.num_offered, db.num_processed, timings


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

    Equivalent to ``QueryEngine(query).run(Dataset.from_files(paths).records)``
    for aggregation queries, but each worker process reads and aggregates its
    file chunk locally and only partial aggregation states are merged in the
    parent.  ``options`` is a :class:`~repro.query.options.QueryOptions`:
    ``jobs=None``/``True`` picks the pool size automatically — one worker
    per CPU, degrading to serial on single-core machines or undersized
    inputs (recorded as ``parallel.fallback``); an explicit integer sets the
    pool size; 1 (or a single file) degrades to the serial path.
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
    db = engine.make_db()
    if not path_list:
        # No inputs: an empty result of the right shape, no pool spin-up.
        return engine.finalize(db)
    n_workers = _resolve_workers(pool_size, len(path_list), path_list)
    with observe.span(
        "parallel.query_files", files=len(path_list), workers=n_workers
    ):
        if n_workers <= 1:
            _states, _offered, _processed, timings = _partial_worker(
                query, path_list, opts.backend
            )
            db.load_states(_states, offered=_offered, processed=_processed)
            _record_worker_timings(timings)
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
                    states, offered, processed, timings = future.result()
                    with observe.span("parallel.merge"):
                        db.load_states(states, offered=offered, processed=processed)
                    _record_worker_timings(timings)
                    observe.count("parallel.states.shipped", len(states))
        return engine.finalize(db)
