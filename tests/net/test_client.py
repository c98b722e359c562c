"""Flush-client behaviour: batching, spooling, replay, dedup."""

from __future__ import annotations

import os
import socket
import threading

import pytest

from repro.aggregate.table import StateTable
from repro.calql import parse_scheme
from repro.common import Record
from repro.common.errors import ReproError
from repro.io import ColumnStore
from repro.net import AggregationServer, FlushClient

SCHEME = "AGGREGATE count, sum(x) GROUP BY k"


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def make_records(n: int, k: str = "a") -> list[Record]:
    return [Record({"k": k, "x": float(i)}) for i in range(n)]


@pytest.fixture
def server():
    with AggregationServer(SCHEME, shards=2) as srv:
        yield srv


def unreachable_client(tmp_path, **kw) -> FlushClient:
    kw.setdefault("retries", 1)
    kw.setdefault("backoff", 0.01)
    kw.setdefault("timeout", 0.5)
    kw.setdefault("spool_dir", str(tmp_path / "spool"))
    os.makedirs(kw["spool_dir"], exist_ok=True)
    return FlushClient("127.0.0.1", free_port(), **kw)


def test_push_ships_at_batch_size(server):
    with FlushClient(*server.address, batch_size=10) as c:
        for r in make_records(25):
            c.push(r)
        # Two full batches went out automatically; 5 records still buffered.
        assert c.counters["batches"] == 2
        assert c.counters["acked"] == 2
        c.flush()
        assert c.counters["batches"] == 3
    assert server.merged_db().num_processed == 25


def test_spool_on_unreachable_server_then_replay(tmp_path, server):
    c = unreachable_client(tmp_path)
    c.push_all(make_records(30))
    assert c.flush() is False  # spooled, not delivered
    assert c.num_spooled == 1
    assert c.counters["spilled"] >= 1
    spool_files = os.listdir(c.spool_dir)
    assert spool_files, "batch must be on disk while undelivered"

    # Point the client at a live server: flush replays the spool.
    c.host, c.port = server.address
    assert c.flush() is True
    assert c.num_spooled == 0
    assert server.merged_db().num_processed == 30
    c.close()
    assert not os.path.exists(os.path.join(c.spool_dir, spool_files[0]))


def test_spool_survives_multiple_failed_flushes(tmp_path):
    c = unreachable_client(tmp_path, batch_size=5)
    c.push_all(make_records(12))
    c.flush()
    c.flush()
    # 2 auto-shipped batches + 1 partial; all spooled, none lost.
    assert c.num_spooled == 3
    assert c.counters["records"] == 12
    c.close(delete_spool=True)


def test_write_ahead_spool_exists_before_ack(server):
    with FlushClient(*server.address, batch_size=4) as c:
        c.push_all(make_records(4))
        # Delivered and acked — the write-ahead copy is retained until close
        # so an epoch change can replay it.
        assert c.counters["acked"] == 1
        assert len(os.listdir(c.spool_dir)) == 1


def test_server_side_dedup_by_sequence_number(server):
    """A replayed seq is acknowledged but not double-counted."""
    with FlushClient(*server.address, batch_size=4, client_id="dup-test") as c:
        c.push_all(make_records(4))
        assert c.counters["acked"] == 1
        # Simulate a lost ACK: force the batch back to pending and resend.
        c._pending.update(c._acked)
        c._acked.clear()
        c.flush()
        assert c.counters["replayed"] == 1
    db = server.merged_db()
    assert db.num_processed == 4  # not 8


def test_send_states_roundtrip(server):
    table = StateTable(parse_scheme(SCHEME))
    table.fold(ColumnStore.from_records(make_records(20, "a") + make_records(10, "b")))
    with FlushClient(*server.address) as c:
        assert c.send_states(table) is True
    merged = server.merged_db()
    assert merged.num_entries == 2
    assert merged.num_processed == 30


def test_drain_returns_merged_results(server):
    with FlushClient(*server.address, batch_size=8) as c:
        c.push_all(make_records(8, "a") + make_records(8, "b"))
        results = c.drain()
    by_k = {r.get("k").value: r.get("count").value for r in results}
    assert by_k == {"a": 8, "b": 8}


def test_query_returns_query_result(server):
    with FlushClient(*server.address, batch_size=4) as c:
        c.push_all(make_records(6, "z"))
        c.flush()
        res = c.query("AGGREGATE sum(count) GROUP BY k FORMAT csv")
    assert res.format == "csv"
    assert "z" in str(res)


def test_closed_client_rejects_use(server):
    c = FlushClient(*server.address)
    c.close()
    with pytest.raises(ReproError, match="closed"):
        c.push(Record({"k": "a"}))
    c.close()  # idempotent


def test_counters_track_reconnects(tmp_path, server):
    c = unreachable_client(tmp_path)
    c.push_all(make_records(3))
    c.flush()
    assert c.counters["reconnects"] == 0
    c.host, c.port = server.address
    c.flush()
    assert c.counters["reconnects"] == 1
    c.close()


def test_close_keeps_unacknowledged_spool_files(tmp_path):
    """An unreachable server at exit must not destroy the only data copy."""
    c = unreachable_client(tmp_path, batch_size=5)
    c.push_all(make_records(5))
    assert c.flush() is False
    spooled = sorted(os.listdir(c.spool_dir))
    assert spooled
    c.close()  # delete_spool=True by default — pending batches survive it
    assert sorted(os.listdir(c.spool_dir)) == spooled


def test_shared_spool_dir_namespaced_per_client(tmp_path, server):
    """Two clients on one spool_dir must not overwrite each other's batches."""
    shared = str(tmp_path / "spool")
    a = FlushClient(*server.address, batch_size=2, spool_dir=shared)
    b = FlushClient(*server.address, batch_size=2, spool_dir=shared)
    assert a.spool_dir != b.spool_dir
    a.push_all(make_records(2, "a"))
    b.push_all(make_records(2, "b"))
    # Both clients hold a batch seq 0 — in distinct subdirectories.
    assert len(os.listdir(a.spool_dir)) == 1
    assert len(os.listdir(b.spool_dir)) == 1
    a.close()
    b.close()
    assert server.merged_db().num_processed == 4


def test_concurrent_pushes_from_many_threads(server):
    """Stream mode pushes from every application thread; nothing may race."""
    per_thread = 150
    keys = "abcd"
    with FlushClient(*server.address, batch_size=16) as c:
        threads = [
            threading.Thread(target=c.push_all, args=(make_records(per_thread, k),))
            for k in keys
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        c.flush()
    db = server.merged_db()
    assert db.num_processed == per_thread * len(keys)
    counts = {r.get("k").value: r.get("count").value for r in db.flush()}
    assert counts == {k: per_thread for k in keys}


def test_own_spool_dir_cleaned_on_close(server):
    c = FlushClient(*server.address, batch_size=2)
    spool = c.spool_dir
    c.push_all(make_records(4))
    c.flush()
    assert os.path.isdir(spool)
    c.close()
    assert not os.path.exists(spool)
