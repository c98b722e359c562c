"""One window front: the single-process DB and the sharded server agree.

``WindowedAggregationDB`` and ``AggregationServer`` drive the same
:class:`~repro.window.db.WindowFront`; this property pins that the server's
composition around it (its lock, key routing over two shard workers, the
retire barrier) changes nothing: fed the same multi-source schedule — late
and un-timed records, stragglers below the retire floor, sliding windows —
both report the same late/un-timed counts, the same retired records and the
same open-window estimates.

The server is driven through its handler seam with only its shard workers
started: no socket is ever bound.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.table import StateTable
from repro.calql import parse_scheme
from repro.common import Record, Variant
from repro.io import ColumnStore
from repro.net import AggregationServer
from repro.net.protocol import MessageType, records_to_binary
from repro.query.engine import QueryEngine
from repro.window import WindowedAggregationDB

BASE = "AGGREGATE count, sum(v) GROUP BY k"
SOURCES = ("p0", "p1", "p2")


def record(key: int, t, v: int) -> Record:
    entries = {"k": f"k{key}", "v": 0.25 * v}  # quarters: float sums are exact
    if t is not None:
        entries["time.start"] = 0.5 * t
    return Record(entries)


records = st.builds(
    record,
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 120)),  # None = un-timed
    st.integers(0, 8),
)
steps = st.one_of(
    st.tuples(st.sampled_from(SOURCES), st.lists(records, min_size=1, max_size=8)),
    st.just("retire"),
)


def rows(recs) -> list:
    return sorted(sorted((k, v.value) for k, v in r.items()) for r in recs)


@settings(max_examples=40, deadline=None)
@given(
    schedule=st.lists(steps, min_size=1, max_size=14),
    window=st.sampled_from(["tumbling(10s)", "sliding(10s, 5s)"]),
    lateness=st.sampled_from([0.0, 2.0]),
)
def test_windowed_db_and_sharded_server_agree(schedule, window, lateness):
    wdb = WindowedAggregationDB(parse_scheme(BASE), window, lateness=lateness)
    server = AggregationServer(BASE, shards=2, window=window, lateness=lateness)
    sessions = {
        source: server._hello({"client": source, "stream": "s", "caps": ["colbin1"]})[0] for source in SOURCES
    }
    server._shards.start()
    try:
        for seq, step in enumerate(schedule):
            if step == "retire":
                assert rows(server.retire_now()) == rows(wdb.retire())
                continue
            source, batch = step
            wdb.process_all(batch, source=source)
            mtype, body = asyncio.run(
                server._handle(
                    sessions[source],
                    MessageType.RECORDS,
                    {"seq": seq},
                    {"records": records_to_binary(batch)},
                )
            )
            assert mtype is MessageType.ACK and body["count"] == len(batch)
        front = server._window
        assert (front.num_late, front.num_untimed) == (wdb.num_late, wdb.num_untimed)
        assert server.watermark() == wdb.watermark()
        assert front.retire_floor == wdb.retire_floor
        assert rows(server.retired_results()) == rows(wdb.retired_results())
        assert rows(server.estimate_results()) == rows(wdb.estimates())
        assert rows(server.drain_results()) == rows(wdb.results())
    finally:
        server._shards.stopping.set()
        server._shards.stop(5.0)


def test_a_windowed_servers_estimate_renders_percent_total_against_the_total():
    scheme = "AGGREGATE percent_total(x) GROUP BY k"
    batch = [
        Record({"time.start": 1, "k": "a", "x": 3}),
        Record({"time.start": 2, "k": "b", "x": 1}),
    ]
    server = AggregationServer(scheme, shards=2, window="tumbling(10s)")
    session = server._hello({"client": "p0", "stream": "s", "caps": ["colbin1"]})[0]
    server._shards.start()
    try:
        mtype, _body = asyncio.run(server._handle(
            session, MessageType.RECORDS, {"seq": 0}, {"records": records_to_binary(batch)}
        ))
        assert mtype is MessageType.ACK
        estimates = {r.get("k").value: r.get("percent_total#x") for r in server.estimate_results()}
        assert estimates == {"a": Variant.of(75.0), "b": Variant.of(25.0)}
    finally:
        server._shards.stopping.set()
        server._shards.stop(5.0)


def test_an_estimate_or_retired_query_builds_no_record_per_group(monkeypatch):
    """The windowed targets hand the second stage the estimator's store and
    the retired windows' render as they are: no ``StateTable.flush`` and no
    records-built store on the way (the CI windowed smoke checks the same)."""
    batch = [record(i % 4, i, i % 9) for i in range(60)]  # event time [0, 30)
    server = AggregationServer(BASE, shards=2, window="tumbling(10s)")
    session = server._hello({"client": "p0", "stream": "s", "caps": ["colbin1"]})[0]
    server._shards.start()
    try:
        mtype, _body = asyncio.run(server._handle(
            session, MessageType.RECORDS, {"seq": 0}, {"records": records_to_binary(batch)}
        ))
        assert mtype is MessageType.ACK
        server.retire_now()
        queries = {
            "estimate": "AGGREGATE sum(est#count), max(est.fraction) GROUP BY k",
            "retired": "AGGREGATE sum(count) GROUP BY k",
        }
        want = {target: rows(QueryEngine(text).run(
            server.estimate_results() if target == "estimate" else server.retired_results()
        )) for target, text in queries.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("a Record was built per group")

        with monkeypatch.context() as patch:
            patch.setattr(StateTable, "flush", refuse)
            patch.setattr(ColumnStore, "from_records", refuse)
            got = {target: server.run_query(text, target=target) for target, text in queries.items()}
        assert {target: rows(answer) for target, answer in got.items()} == want
        assert all(want.values())
    finally:
        server._shards.stopping.set()
        server._shards.stop(5.0)


def test_the_periodic_retire_loop_builds_no_record(monkeypatch):
    """One cycle of the server's ``retire_interval`` loop pops, merges and
    counts the closed windows as a table: no ``StateTable.flush`` and no
    output record on the way, and ``window.retired`` counts what
    ``retire_now()`` counts."""
    from repro.io import colfile
    from repro.net import server as server_mod
    from repro.net.shards import ShardPlane

    loops = {}
    real_every = ShardPlane.every

    def every(self, interval, fn, stage):
        loops[stage] = fn
        return real_every(self, interval, fn, stage)

    monkeypatch.setattr(ShardPlane, "every", every)
    batch = [record(i % 4, i, i % 9) for i in range(60)]  # event time [0, 30)
    counts = []
    for periodic in (False, True):
        # an hour apart: the loop's own thread never fires during the test
        with AggregationServer(
            BASE, shards=2, window="tumbling(10s)", retire_interval=3600.0
        ) as server:
            session = server._hello({"client": "p0", "stream": "s", "caps": ["colbin1"]})[0]
            mtype, _body = asyncio.run(server._handle(
                session, MessageType.RECORDS, {"seq": 0}, {"records": records_to_binary(batch)}
            ))
            assert mtype is MessageType.ACK
            if periodic:
                def refuse(*args, **kwargs):
                    raise AssertionError("the retire loop built output records")

                with monkeypatch.context() as patch:
                    patch.setattr(StateTable, "flush", refuse)
                    patch.setattr(colfile, "result_records", refuse)
                    patch.setattr(server_mod, "result_records", refuse)
                    loops["retire"]()
            else:
                assert len(server.retire_now()) == 8  # 2 windows x 4 keys
            counts.append(server.metrics.counter_value("window.retired"))
            assert rows(server.retired_results()) == rows(
                r for r in QueryEngine(BASE + " WINDOW tumbling(10s)").run(batch)
                if r.get("window.end").value <= server.watermark()
            )
    assert counts == [2, 2]


def test_a_retire_cycle_that_retires_nothing_merges_and_flushes_nothing(monkeypatch):
    """Once the closed windows are gone, a cycle whose watermark closes no
    window returns at once: no ``StateTable.merge`` / ``flush``, yet the
    retire floor still rises and ``window.retired`` stays exact."""
    batch = [record(i % 4, i, i % 9) for i in range(60)]  # event time [0, 30)
    later = [Record({"k": "k0", "v": 0.25, "time.start": 29.75})]  # window [20, 30) stays open
    wdb = WindowedAggregationDB(parse_scheme(BASE), "tumbling(10s)")
    server = AggregationServer(BASE, shards=2, window="tumbling(10s)")
    session = server._hello({"client": "local", "stream": "s", "caps": ["colbin1"]})[0]
    server._shards.start()
    try:
        for seq, recs in enumerate((batch, later)):
            wdb.process_all(recs)
            mtype, _body = asyncio.run(server._handle(
                session, MessageType.RECORDS, {"seq": seq}, {"records": records_to_binary(recs)}
            ))
            assert mtype is MessageType.ACK
            if seq == 0:
                assert rows(server.retire_now()) == rows(wdb.retire())
                assert server.metrics.counter_value("window.retired") == 2

        def refuse(*args, **kwargs):
            raise AssertionError("a retire cycle that retires nothing built a table")

        with monkeypatch.context() as patch:
            patch.setattr(StateTable, "merge", refuse)
            patch.setattr(StateTable, "flush", refuse)
            assert server.retire_now() == [] and wdb.retire() == []
        assert server._window.retire_floor == wdb.retire_floor == 29.75
        assert server.metrics.counter_value("window.retired") == 2
        assert rows(server.retired_results()) == rows(wdb.retired_results())
    finally:
        server._shards.stopping.set()
        server._shards.stop(5.0)
