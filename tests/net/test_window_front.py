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

from repro.calql import parse_scheme
from repro.common import Record, Variant
from repro.net import AggregationServer
from repro.net.protocol import MessageType, records_to_binary
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
