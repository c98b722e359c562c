"""A producer or relay restarted under the same id loses nothing.

Every :class:`FlushClient` instance numbers its batches from seq 0.  The
server deduplicates per (tenant, client id, stream), where the stream is a
random id each instance sends in HELLO, so a restarted instance's first
batches are new data, not replays of the instance before it.  Its spool
files live apart from that instance's too.
"""

from __future__ import annotations

import os
import socket
from pathlib import Path

from repro.common import Record
from repro.net import AggregationServer, FlushClient

SCHEME = "AGGREGATE count, sum(x) GROUP BY k"


def records(n: int, k: str) -> list[Record]:
    return [Record({"k": k, "x": 0.25 * (i % 8)}) for i in range(n)]


def counts(server) -> dict:
    return {r.get("k").value: r.get("count").value for r in server.drain_results()}


def dead_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_relay_restarted_with_the_same_relay_id_forwards_its_new_data():
    with AggregationServer(SCHEME, shards=1) as root:
        first = AggregationServer(
            SCHEME, shards=1, upstream=root.address, relay_id="r1", forward_interval=0.0
        ).start()
        with FlushClient(*first.address, scheme=SCHEME) as client:
            assert client.send_records(records(100, "a"))
        assert first.forward_now()
        first.kill()
        with AggregationServer(
            SCHEME, shards=1, upstream=root.address, relay_id="r1", forward_interval=0.0
        ) as second:
            with FlushClient(*second.address, scheme=SCHEME) as client:
                assert client.send_records(records(100, "b"))
            assert second.forward_now()
            assert counts(root) == {"a": 100, "b": 100}


def test_producer_restarted_with_the_same_client_id_is_not_a_replay(tmp_path):
    with AggregationServer(SCHEME, shards=2) as server:
        first = FlushClient(
            *server.address, scheme=SCHEME, client_id="w", batch_size=10,
            spool_dir=str(tmp_path),
        )
        first.push_all(records(30, "a"))
        assert first.flush() and first.counters["acked"] == 3
        first.abort()
        second = FlushClient(
            *server.address, scheme=SCHEME, client_id="w", batch_size=10,
            spool_dir=str(tmp_path),
        )
        second.push_all(records(30, "b"))
        assert second.flush()
        second.close()
        assert counts(server) == {"a": 30, "b": 30}


def test_restarted_producer_never_overwrites_the_earlier_spool(tmp_path):
    port = dead_port()

    def spooling_client() -> FlushClient:
        return FlushClient(
            "127.0.0.1", port, scheme=SCHEME, client_id="w", batch_size=10,
            spool_dir=str(tmp_path), retries=0, timeout=0.5,
        )

    first = spooling_client()
    first.push_all(records(20, "a"))
    assert not first.flush()
    first.abort()
    spooled = {path.name: path.read_bytes() for path in Path(first.spool_dir).iterdir()}
    assert len(spooled) == 2
    second = spooling_client()
    second.push_all(records(20, "b"))
    assert not second.flush()
    second.abort()
    for name, data in spooled.items():  # the only copy of the first run's data
        assert (Path(first.spool_dir) / name).read_bytes() == data
    assert second.spool_dir != first.spool_dir
    assert len(os.listdir(second.spool_dir)) == 2
