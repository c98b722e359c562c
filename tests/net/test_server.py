"""Aggregation-server behaviour: equivalence, live queries, robustness.

The headline acceptance test: K concurrent clients streaming disjoint
record sets into a sharded server must yield exactly the result a
single-process :class:`StreamAggregator` computes over the union.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.aggregate import StreamAggregator
from repro.calql import parse_scheme
from repro.common import Record
from repro.common.errors import ReproError
from repro.net import AggregationServer, FlushClient, live_query
from repro.common.variant import Variant
from repro.net.protocol import (
    CAP_BINARY,
    FLAG_BINARY,
    HEADER,
    MAGIC,
    PROTOCOL_VERSION,
    MessageType,
    encode_binary_body,
    read_message,
    states_to_binary,
    write_frame,
    write_message,
)

SCHEME = (
    "AGGREGATE count, sum(time.duration), min(time.duration), "
    "max(time.duration) GROUP BY kernel, mpi.rank"
)


def synth_records(seed: int, n: int) -> list[Record]:
    rng = random.Random(seed)
    return [
        Record(
            {
                "kernel": rng.choice(["advec", "solve", "halo", "io"]),
                "mpi.rank": rng.randrange(8),
                "time.duration": round(rng.random() * 10, 6),
            }
        )
        for _ in range(n)
    ]


def result_key(record: Record):
    return tuple(sorted((k, v.value) for k, v in record.items()))


def reference(records) -> list:
    agg = StreamAggregator(parse_scheme(SCHEME))
    agg.push_all(records)
    return sorted(map(result_key, agg.flush()))


def assert_equivalent(got: list, want: list) -> None:
    """Per-entry equality, with float tolerance for summation-order variance.

    Shard routing changes the order floating-point additions happen in, so
    sums may differ from the serial reference in the last few ulps.
    """
    assert len(got) == len(want)
    for got_entry, want_entry in zip(got, want):
        assert len(got_entry) == len(want_entry)
        for (gk, gv), (wk, wv) in zip(got_entry, want_entry):
            assert gk == wk
            if isinstance(gv, float) or isinstance(wv, float):
                assert gv == pytest.approx(wv, rel=1e-9)
            else:
                assert gv == wv


@pytest.fixture
def server():
    with AggregationServer(SCHEME, shards=3, queue_depth=16) as srv:
        yield srv


def test_single_client_equivalence(server):
    records = synth_records(1, 400)
    with FlushClient(*server.address, scheme=SCHEME, batch_size=50) as client:
        client.push_all(records)
        client.flush()
        got = sorted(map(result_key, server.drain_results()))
    assert_equivalent(got, reference(records))


def test_concurrent_clients_equivalence(server):
    """K clients, disjoint record sets — identical to one aggregator (union)."""
    K = 3
    sets = [synth_records(seed, 300) for seed in range(K)]
    errors = []

    def stream(my_records):
        try:
            with FlushClient(*server.address, scheme=SCHEME, batch_size=37) as c:
                c.push_all(my_records)
                c.flush()
        except Exception as exc:  # surfaces in the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=stream, args=(s,)) for s in sets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    union = [r for s in sets for r in s]
    got = sorted(map(result_key, server.drain_results()))
    assert_equivalent(got, reference(union))


def test_many_clients_at_once_lose_nothing_and_are_never_shed():
    """A fleet holding its connections open together: every acked record is
    folded, and at the default queue depth no batch is answered BUSY."""
    K, per_client, batch = 16, 120, 20
    connected = threading.Barrier(K)
    clients, errors = [], []

    def stream(index):
        try:
            with FlushClient(*server.address, scheme=SCHEME, batch_size=batch) as c:
                clients.append(c)
                c.push_all(synth_records(index, batch))  # first batch connects
                connected.wait(timeout=30)
                c.push_all(synth_records(100 + index, per_client - batch))
                c.flush()
        except Exception as exc:  # surfaces in the main thread below
            errors.append(exc)

    with AggregationServer(SCHEME, shards=3) as server:
        threads = [threading.Thread(target=stream, args=(i,)) for i in range(K)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors and not any(t.is_alive() for t in threads)
        assert server.merged_db().num_processed == K * per_client
    assert [c.counters["busy"] for c in clients] == [0] * K
    assert [c.counters["acked"] for c in clients] == [per_client // batch] * K


def test_live_query_during_ingestion(server):
    """Queries observe a consistent snapshot while ingestion continues."""
    records = synth_records(7, 600)
    stop = threading.Event()

    def stream():
        with FlushClient(*server.address, batch_size=25) as c:
            for record in records:
                c.push(record)
                if stop.is_set():
                    break
            c.flush()

    t = threading.Thread(target=stream)
    t.start()
    try:
        # AGGREGATE over the in-flight state: sum(count) re-aggregates the
        # flushed per-(kernel, rank) entries, so the total must equal the
        # number of records ingested *at the moment of the snapshot* — a
        # torn snapshot would under- or over-count.
        result = live_query(
            *server.address, "AGGREGATE sum(count)", timeout=10.0
        )
        assert len(result.records) <= 1
        if result.records:
            total = result.records[0].get("sum#count").value
            assert 0 < total <= len(records)
    finally:
        stop.set()
        t.join(timeout=30)


def test_live_query_final_state_matches_offline(server):
    records = synth_records(3, 200)
    with FlushClient(*server.address, batch_size=64) as c:
        c.push_all(records)
        c.flush()
        result = c.query(
            "AGGREGATE sum(count), sum(time.duration) GROUP BY kernel "
            "ORDER BY kernel"
        )
    by_kernel = {}
    for r in records:
        k = r.get("kernel").value
        by_kernel[k] = by_kernel.get(k, 0) + 1
    got = {
        r.get("kernel").value: r.get("sum#count").value for r in result.records
    }
    assert got == by_kernel


def test_server_metrics_are_calql_queryable(server):
    with FlushClient(*server.address, batch_size=16) as c:
        c.push_all(synth_records(5, 64))
        c.flush()
        res = c.query(
            "SELECT observe.metric, observe.value "
            "WHERE observe.metric=net.records",
            target="telemetry",
        )
    assert len(res.records) == 1
    assert res.records[0].get("observe.value").value == 64


def test_a_live_answer_splits_into_merge_render_and_query_timers(server):
    """``net.merge`` (snapshot + merge), ``net.render`` (the merged table
    rendered as columns) and ``net.query`` (all of it, second stage
    included) are timer records a telemetry query reads back."""
    with FlushClient(*server.address, batch_size=16) as c:
        c.push_all(synth_records(5, 64))
        c.flush()
        answer = c.query("AGGREGATE sum(count) GROUP BY kernel")
        timers = c.query(
            "SELECT observe.path, observe.count, observe.time WHERE observe.kind=timer",
            target="telemetry",
        )
    assert sum(r.get("sum#count").value for r in answer.records) == 64
    counts = {r.get("observe.path").value: r.get("observe.count").value for r in timers.records}
    assert counts["net.merge"] == counts["net.render"] == counts["net.query"] == 1
    assert server.metrics.timer_stats("net.render")[0] == 1


def test_stats_records_cover_the_core_metrics(server):
    with FlushClient(*server.address) as c:
        c.push_all(synth_records(2, 10))
        c.flush()
        metrics = {
            r.get("observe.metric").value
            for r in c.stats_records()
            if r.get("observe.metric") is not None
        }
    for name in (
        "net.connections",
        "net.batches",
        "net.records",
        "net.bytes.rx",
        "net.bytes.tx",
        "net.shard.depth",
        "net.shard.entries",
    ):
        assert name in metrics, f"missing {name}"


@pytest.mark.skipif(
    not hasattr(time, "pthread_getcpuclockid"), reason="no per-thread CPU clocks here"
)
def test_stats_publish_each_server_threads_cpu_seconds():
    def cpu_seconds(node):
        return {
            r.get("observe.thread").value: r.get("observe.value").value
            for r in node.stats_records()
            if r.get("observe.metric").value == "net.thread.cpu_seconds"
        }

    with AggregationServer(SCHEME, shards=2) as root:
        with AggregationServer(SCHEME, shards=1, upstream=root.address) as relay:
            with FlushClient(*relay.address) as c:
                c.push_all(synth_records(4, 2000))
                c.flush()
                c.stats_records()  # a frame the blocking pool answers
            assert relay.forward_now()
            before, after = cpu_seconds(relay), cpu_seconds(relay)
            at_root = cpu_seconds(root)
    assert set(before) == {"loop", "blocking", "forward", "shard-0"}
    assert set(at_root) == {"loop", "blocking", "shard-0", "shard-1"}  # nothing to forward to
    assert all(seconds > 0 for seconds in before.values())
    assert all(after[name] >= before[name] for name in before)


def test_scheme_mismatch_is_rejected(server):
    client = FlushClient(*server.address, scheme="AGGREGATE count GROUP BY other")
    client.push(Record({"other": "x"}))
    with pytest.raises(ReproError, match="scheme"):
        client.flush()
    client.close()


def test_matching_scheme_text_accepted(server):
    # Equivalent text (same canonical form) must be accepted.
    with FlushClient(*server.address, scheme=SCHEME) as c:
        c.push(Record({"kernel": "k", "mpi.rank": 0, "time.duration": 1.0}))
        c.flush()
    assert server.merged_db().num_entries == 1


# -- robustness: the server must reject garbage and stay up --------------------


def raw_socket(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5)
    sock.settimeout(5)
    return sock


def server_still_works(server) -> bool:
    with FlushClient(*server.address, batch_size=8) as c:
        c.push(Record({"kernel": "probe", "mpi.rank": 0, "time.duration": 1.0}))
        return c.flush()


def test_garbage_bytes_then_still_serving(server):
    sock = raw_socket(server)
    sock.sendall(b"\x00" * 64 + b"GET / HTTP/1.1\r\n\r\n")
    sock.close()
    assert server_still_works(server)


def test_version_mismatch_gets_error_frame(server):
    sock = raw_socket(server)
    wfile = sock.makefile("wb")
    rfile = sock.makefile("rb")
    wfile.write(HEADER.pack(MAGIC, 99, int(MessageType.HELLO), 0, 0))
    wfile.flush()
    mtype, body = read_message(rfile)
    assert mtype is MessageType.ERROR
    assert "version" in body["reason"].lower()
    sock.close()
    assert server_still_works(server)


def test_oversized_frame_rejected_and_connection_dropped(server):
    sock = raw_socket(server)
    wfile = sock.makefile("wb")
    rfile = sock.makefile("rb")
    # Declared 1 GiB payload: the server must refuse from the header alone.
    wfile.write(HEADER.pack(MAGIC, PROTOCOL_VERSION, int(MessageType.RECORDS), 0, 2**30))
    wfile.flush()
    mtype, body = read_message(rfile)
    assert mtype is MessageType.ERROR
    sock.close()
    assert server_still_works(server)


def test_truncated_frame_mid_payload(server):
    sock = raw_socket(server)
    wfile = sock.makefile("wb")
    wfile.write(HEADER.pack(MAGIC, PROTOCOL_VERSION, int(MessageType.RECORDS), 0, 1000))
    wfile.write(b"x" * 10)  # then hang up mid-payload
    wfile.flush()
    sock.close()
    assert server_still_works(server)


def test_malformed_states_rejected_without_killing_shards(server):
    sock = raw_socket(server)
    wfile = sock.makefile("wb")
    rfile = sock.makefile("rb")
    write_message(
        wfile, MessageType.HELLO, {"client": "evil", "stream": "s", "caps": [CAP_BINARY]}
    )
    mtype, _ = read_message(rfile)
    assert mtype is MessageType.HELLO_ACK
    # States whose cell arity does not match the scheme's operators.
    groups = [({"kernel": Variant.of("x"), "mpi.rank": Variant.of(0)}, [[1]])]
    write_frame(
        wfile,
        MessageType.STATES,
        encode_binary_body(
            {"seq": 1, "scheme": SCHEME}, {"groups": states_to_binary(groups)}
        ),
        flags=FLAG_BINARY,
    )
    mtype, body = read_message(rfile)
    assert mtype is MessageType.ERROR
    sock.close()
    assert server_still_works(server)
    assert sorted(map(result_key, server.drain_results())) == reference(
        [Record({"kernel": "probe", "mpi.rank": 0, "time.duration": 1.0})]
    )


def test_fuzz_random_frames_server_survives(server):
    rng = random.Random(99)
    for _ in range(20):
        sock = raw_socket(server)
        try:
            sock.sendall(rng.randbytes(rng.randrange(1, 200)))
        except OSError:
            pass
        sock.close()
    assert server_still_works(server)


def test_export_barrier_returns_copies_not_live_state():
    """Snapshot states must not change when the shard keeps folding."""
    with AggregationServer(SCHEME, shards=1) as srv:
        with FlushClient(*srv.address, batch_size=10) as c:
            c.push_all(synth_records(21, 10))
            c.flush()
            snapshot = srv._snapshot()
            frozen = snapshot[0].export_states()
            c.push_all(synth_records(21, 10))
            c.flush()
            # The second barrier proves the new batch was folded...
            assert srv.merged_db().num_processed == 20
        # ...while the first snapshot's states stayed untouched.
        assert snapshot[0].export_states() == frozen


def test_dedup_entry_pruned_after_bye(server):
    with FlushClient(*server.address, batch_size=4, client_id="short-lived") as c:
        c.push_all(synth_records(17, 4))
        c.flush()
        assert "short-lived" in server._dedup
    # close() sends BYE; the handler thread prunes the entry shortly after.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if "short-lived" not in server._dedup:
            return
        time.sleep(0.02)
    pytest.fail("dedup entry for a closed client was never pruned")


# -- lifecycle -----------------------------------------------------------------


def test_graceful_stop_drains_queued_batches():
    with AggregationServer(SCHEME, shards=2, queue_depth=4) as srv:
        records = synth_records(11, 150)
        with FlushClient(*srv.address, batch_size=10) as c:
            c.push_all(records)
            c.flush()
        srv.stop()
        got = sorted(map(result_key, srv.drain_results()))
    assert_equivalent(got, reference(records))


def test_server_requires_at_least_one_shard():
    with pytest.raises(ValueError):
        AggregationServer(SCHEME, shards=0)


def test_double_start_rejected(server):
    with pytest.raises(ReproError):
        server.start()


def test_backpressure_small_queues_still_correct():
    with AggregationServer(SCHEME, shards=2, queue_depth=1) as srv:
        records = synth_records(13, 300)
        with FlushClient(*srv.address, batch_size=5) as c:
            c.push_all(records)
            c.flush()
        got = sorted(map(result_key, srv.drain_results()))
    assert_equivalent(got, reference(records))
