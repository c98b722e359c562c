"""repro.api — the one public query entry point.

The repo grew five ways to run a CalQL query (engine, one-liner, parallel
files, simulated MPI, live server).  They remain available for composition,
but :func:`query` is the supported front door: one call that dispatches on
what the *source* is —

====================================  =========================================
``source``                            executed as
====================================  =========================================
path (``"run.cali"``)                 :meth:`Dataset.from_file(...).query`
path (``"run.rcf"``)                  chunked out-of-core columnar scan
``Dataset``                           :meth:`Dataset.query`
iterable of :class:`Record`           :func:`repro.query.run_query`
list of files, or a glob              :func:`parallel_query_files` for
(``"data/*.rcf"`` = its sorted        aggregation queries (auto-parallel;
matches)                              ``.rcf`` inputs stay columnar — no
                                      ``Record`` is built), else
                                      :meth:`Dataset.from_files(...).query`
``"host:port"`` / ``(host, port)``    :func:`repro.net.live_query` against a
                                      running :class:`AggregationServer`
====================================  =========================================

Every flavor returns the same :class:`~repro.query.engine.QueryResult`.
Execution knobs travel in one :class:`~repro.query.options.QueryOptions`
(or its keyword shorthand)::

    import repro

    repro.api.query("AGGREGATE count GROUP BY function", "data/*.cali")
    repro.api.query(q, dataset, backend="columnar")
    repro.api.query(q, ["a.cali", "b.cali"], jobs=4)       # parallel combine
    repro.api.query(q, "127.0.0.1:7744")                   # live server
    repro.api.query(q, "127.0.0.1:7744", target="telemetry")
    repro.api.query(q, dataset, sampling=0.1)              # sampled + CIs

``QueryOptions(sampling=p)`` (or ``sampling=`` as a keyword) runs the
aggregation over a Bernoulli sample of the input and adds ``est#`` /
``est.lo#`` / ``est.hi#`` confidence columns — see
:func:`repro.sampling.sampled_query`.

The package also hosts :mod:`repro.api.instrument`, the public
instrumentation facade (``with instrument.region("solve"): ...``).
"""

from __future__ import annotations

import glob as _glob
import os
import re
from typing import Iterable, Optional, Sequence, Union

from ..common.errors import DatasetError, QueryError
from ..common.record import Record
from ..io.dataset import Dataset
from ..query.engine import QueryEngine, QueryResult
from ..query.options import QueryOptions

from . import instrument

__all__ = ["instrument", "query", "QueryOptions", "QueryResult"]

#: something that looks like a live-server address, e.g. "10.0.0.1:7744"
_HOST_PORT = re.compile(r"^[A-Za-z0-9_.\-]+:\d{1,5}$")


def query(
    text: str,
    source: Union[str, Dataset, Iterable[Record], Sequence[Union[str, os.PathLike]], tuple],
    options: Union[QueryOptions, dict, None] = None,
    *,
    target: str = "aggregate",
    timeout: float = 10.0,
    **kwargs,
) -> QueryResult:
    """Run CalQL ``text`` against ``source``, whatever shape it has.

    ``options`` is a :class:`QueryOptions`; as a convenience its fields may
    also be given directly as keywords (``backend=``, ``jobs=``,
    ``stats=``).  ``target`` and ``timeout`` only apply to live-server
    sources (``"host:port"`` or ``(host, port)``): ``target="telemetry"``
    queries the server's own ``observe.*`` metrics instead of the
    aggregated data.
    """
    opts = _merge_options(options, kwargs)
    if opts.sampling is not None and float(opts.sampling) < 1.0:
        return _query_sampled(text, source, opts)
    if isinstance(source, Dataset):
        return source.query(text, backend=opts.backend)
    if isinstance(source, (str, os.PathLike)):
        return _query_string_source(text, source, opts, target, timeout)
    if isinstance(source, tuple) and _is_address(source):
        host, port = source
        return _query_live(text, str(host), int(port), target, timeout)
    return _query_collection(text, source, opts)


_OPTION_KEYWORDS = ("backend", "jobs", "stats", "sampling", "sampling_seed")


def _merge_options(options, kwargs) -> QueryOptions:
    opts = QueryOptions.coerce(options)
    unknown = set(kwargs) - set(_OPTION_KEYWORDS)
    if unknown:
        raise TypeError(
            f"query() got unexpected keyword(s) {sorted(unknown)}; "
            f"execution options are {'/'.join(_OPTION_KEYWORDS)} "
            "(see QueryOptions)"
        )
    if kwargs:
        merged = {
            key: kwargs.get(key, getattr(opts, key)) for key in _OPTION_KEYWORDS
        }
        opts = QueryOptions(**merged)
    return opts


def _query_sampled(text: str, source, opts: QueryOptions) -> QueryResult:
    """Sampled execution: materialize the records, Bernoulli-sample, fold
    with count-scaling, and report confidence columns."""
    from ..sampling import sampled_query

    return sampled_query(
        text,
        _materialize_records(source, opts),
        float(opts.sampling),  # type: ignore[arg-type]
        seed=opts.sampling_seed,
    )


def _materialize_records(source, opts: QueryOptions) -> list[Record]:
    if isinstance(source, Dataset):
        return source.records
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        if _glob.has_magic(path):
            return Dataset.from_glob(path, parallel=opts.jobs).records
        if os.path.exists(path):
            return Dataset.from_file(path).records
        raise QueryError(
            "sampling is a local execution option; it cannot run against a "
            f"live server source ({path!r})"
            if isinstance(source, str) and _HOST_PORT.match(path)
            else f"query source {path!r} does not exist"
        )
    if isinstance(source, tuple) and _is_address(source):
        raise QueryError(
            "sampling is a local execution option; it cannot run against a "
            "live server source"
        )
    items = source if isinstance(source, (list, tuple)) else list(source)
    if items and all(isinstance(i, (str, os.PathLike)) for i in items):
        paths = [os.fspath(i) for i in items]
        return Dataset.from_files(paths, parallel=opts.jobs).records
    return list(items)


def _is_address(source: tuple) -> bool:
    return (
        len(source) == 2
        and isinstance(source[0], str)
        and isinstance(source[1], int)
    )


def _query_string_source(
    text: str, source: Union[str, os.PathLike], opts: QueryOptions, target: str, timeout: float
) -> QueryResult:
    path = os.fspath(source)
    if _glob.has_magic(path):
        paths = sorted(_glob.glob(path))
        if not paths:
            raise DatasetError(f"no files match {path!r}")
        return _query_collection(text, paths, opts)
    if os.path.exists(path):
        if path.endswith(".rcf"):
            return _query_colfile(text, path, opts)
        return Dataset.from_file(path).query(text, backend=opts.backend)
    if isinstance(source, str) and _HOST_PORT.match(path):
        host, _, port = path.rpartition(":")
        return _query_live(text, host, int(port), target, timeout)
    raise QueryError(
        f"query source {path!r} is neither an existing file, a glob with "
        "matches, nor a host:port address"
    )


def _query_colfile(text: str, path: str, opts: QueryOptions) -> QueryResult:
    """Out-of-core scan of a ``.rcf`` file, one mmap'd chunk at a time.

    Aggregation queries fold every chunk into one partial
    :class:`~repro.aggregate.table.StateTable` (:meth:`QueryEngine.feed_file`)
    — a fold continues from the running state, so the result is identical
    to the in-memory path while peak memory stays one chunk.  Queries
    without AGGREGATE need the full record stream anyway, so they take the
    ordinary :meth:`Dataset.from_file` route.
    """
    engine = QueryEngine(text)
    if engine.scheme is None:
        return Dataset.from_file(path).query(text, backend=opts.backend)
    table = engine.make_db()
    engine.feed_file(table, path, opts.backend)
    return engine.finalize(table)


def _query_live(
    text: str, host: str, port: int, target: str, timeout: float
) -> QueryResult:
    from ..net.client import live_query  # deferred: keep file-only use light

    return live_query(host, port, text, target=target, timeout=timeout)


def _query_collection(text: str, source, opts: QueryOptions) -> QueryResult:
    """Iterable source: records run directly, file lists go auto-parallel."""
    items = source if isinstance(source, (list, tuple)) else list(source)
    if items and all(isinstance(i, (str, os.PathLike)) for i in items):
        paths = [os.fspath(i) for i in items]
        if len(paths) > 1 and QueryEngine(text).scheme is not None:
            # Aggregation over many files: partial states combine exactly,
            # so fold each file where it is read (real cores by default).
            from ..query.parallel import parallel_query_files

            return parallel_query_files(text, paths, opts)
        return Dataset.from_files(paths, parallel=opts.jobs).query(
            text, backend=opts.backend
        )
    if any(not isinstance(i, Record) for i in items):
        bad = next(i for i in items if not isinstance(i, Record))
        raise QueryError(
            f"unsupported query source element of type {type(bad).__name__}; "
            "pass records or file paths (not a mix)"
        )
    return QueryEngine(text).run(items, backend=opts.backend)
