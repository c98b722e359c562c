"""Partial state off the per-event path is a ``StateTable``, never the list form.

The off-line partial API, its process pool and MPI reduction, the window
front (in-process and on a windowed server) and the sampled query merge,
ship, retire and estimate state tables.  Each test makes every list-form
entry point raise — ``AggregationDB.load_states`` / ``export_states`` /
``combine`` and ``StateTable.export_states`` / ``from_states`` — while the
path runs, and checks the answer against one computed before.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

import repro.api
from repro.aggregate import AggregationDB
from repro.aggregate.table import StateTable
from repro.calql import parse_scheme
from repro.common import Record
from repro.io import write_colfile
from repro.net import AggregationServer
from repro.net.protocol import MessageType, records_to_binary
from repro.query import MPIQueryRunner, QueryEngine, QueryOptions, parallel_query_files
from repro.sampling import sampled_query
from repro.window import WindowedAggregationDB

QUERY = "AGGREGATE count, sum(x), percent_total(x) GROUP BY k ORDER BY k"
WINDOWED = "AGGREGATE count, sum(x), avg(x) GROUP BY k"

LIST_FORM = [
    (AggregationDB, "load_states"),
    (AggregationDB, "export_states"),
    (AggregationDB, "combine"),
    (StateTable, "export_states"),
    (StateTable, "from_states"),
]


@contextlib.contextmanager
def list_form_refused():
    def refuse(*_args, **_kwargs):
        raise AssertionError("partial state went through the list form")

    with pytest.MonkeyPatch.context() as patch:
        for owner, name in LIST_FORM:
            patch.setattr(owner, name, refuse)
        yield


def records(n=200, start=0.0):
    return [
        Record({"k": f"k{i % 5}", "x": 0.25 * (i % 7), "time.start": start + 0.1 * i})
        for i in range(n)
    ]


def plain(result):
    return [sorted(r.to_plain().items()) for r in result]


def test_the_offline_partial_paths_merge_tables(tmp_path):
    paths = []
    for i in range(3):
        path = str(tmp_path / f"part{i}.rcf")
        write_colfile(path, records(60, start=10.0 * i))
        paths.append(path)
    want = plain(QueryEngine(QUERY).run(
        [r for i in range(3) for r in records(60, start=10.0 * i)], backend="rows"
    ))
    want_one = plain(QueryEngine(QUERY).run(records(60), backend="rows"))
    with list_form_refused():
        pooled = plain(parallel_query_files(QUERY, paths, QueryOptions(jobs=1)))
        one = plain(repro.api.query(QUERY, paths[0]))
    assert pooled == want
    assert one == want_one


def test_the_mpi_reduction_merges_tables():
    per_rank = [records(40, start=5.0 * rank) for rank in range(6)]
    want = plain(QueryEngine(QUERY).run([r for part in per_rank for r in part]))
    with list_form_refused():
        outcome = MPIQueryRunner(QUERY, size=6, fanout=2).run_records(per_rank)
    assert plain(outcome.result) == want


def test_the_sampled_query_folds_a_table():
    with list_form_refused():
        result = sampled_query(QUERY, records(), 0.5, seed=3)
    assert len(result) == 5


def test_the_in_process_window_front_holds_tables():
    wdb = WindowedAggregationDB(parse_scheme(WINDOWED), "tumbling(5s)")
    with list_form_refused():
        assert wdb.process_all(records()) == 200
        retired = wdb.retire()
        estimates = wdb.estimates()
        results = wdb.results()
    assert retired and estimates
    assert len(results) == len(retired) + len(estimates)


def test_a_windowed_server_retires_estimates_and_answers_from_tables():
    server = AggregationServer(WINDOWED, shards=2, window="tumbling(5s)")
    session = server._hello({"client": "p0", "stream": "s", "caps": ["colbin1"]})[0]
    server._shards.start()
    try:
        with list_form_refused():
            mtype, _body = asyncio.run(server._handle(
                session, MessageType.RECORDS, {"seq": 0},
                {"records": records_to_binary(records())},
            ))
            assert mtype is MessageType.ACK
            retired = server.retire_now()
            estimates = server.estimate_results()
            assert plain(server.retired_results()) == plain(retired)
            answer = server.run_query("AGGREGATE sum(count) GROUP BY k", target="aggregate")
        assert retired and estimates
        assert sorted(r.get("sum#count").value for r in answer) == [40] * 5
    finally:
        server._shards.stopping.set()
        server._shards.stop(5.0)
