"""A server's shards fold the column batch they were sent.

The wire delivers a ``colbin1`` chunk store and every server keeps it one:
a windowed server stamps it as columns, rows are routed by a vectorized key
hash and each shard worker folds its rows through the column kernels, a
compiled WHERE applied as column masks.  No ``Record`` is built on the event
loop, ever; a shard worker hydrates its own routed rows only for a scheme
with a user-subclassed operator or a hand-written predicate callable.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading

import numpy as np
import pytest

from repro.aggregate import AggregationDB, AggregationScheme, StreamAggregator, SumOp, make_op
from repro.calql import parse_scheme
from repro.common import Record
from repro.io import colfile
from repro.io.colfile import decode_batch_store, encode_batch
from repro.net import AggregationServer, FlushClient
from repro.net.admission import Admission
from repro.net.protocol import MessageType
from repro.net.shards import DEFAULT_TENANT, ShardPlane
from repro.observe import MetricsRegistry
from repro.query import QueryEngine

SCHEME = (
    "AGGREGATE count, sum(time.duration), min(time.duration), "
    "max(time.duration) GROUP BY kernel, mpi.rank"
)


class _CustomSum(SumOp):
    """A user-defined kernel: no vector implementation may be assumed."""

    name = "customsum"


def synth(seed: int, n: int) -> list[Record]:
    """Profile-like records; some lack one key attribute or both."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        entries = {"time.duration": round(rng.random() * 10, 6), "time.start": float(i)}
        if rng.random() < 0.9:
            entries["kernel"] = rng.choice(["advec", "solve", "halo", "io"])
        if rng.random() < 0.9:
            entries["mpi.rank"] = rng.choice([0, 1, 2, 3.0])
        out.append(Record(entries))
    return out


def result_key(record: Record):
    return tuple(sorted((k, v.value) for k, v in record.items()))


def reference(scheme, records) -> list:
    agg = StreamAggregator(scheme)
    agg.push_all(records)
    return sorted(map(result_key, agg.flush()))


def stream(server, tmp_path, token=None, scheme=SCHEME) -> list[Record]:
    """Two clients' traffic in 64-record batches; the first client then
    loses every ACK and replays its spool.  Returns what was sent."""
    streams = [synth(1, 300), synth(2, 300)]
    clients = [
        FlushClient(
            *server.address, scheme=scheme, batch_size=64, token=token,
            spool_dir=str(tmp_path / f"spool{i}"),
        )
        for i in range(2)
    ]
    try:
        for client, records in zip(clients, streams):
            client.push_all(records)
            assert client.flush()
        clients[0]._pending.update(clients[0]._acked)
        clients[0]._acked.clear()
        assert clients[0].flush()
        assert clients[0].counters["replayed"] == 5
    finally:
        for client in clients:
            client.close()
    return streams[0] + streams[1]


@pytest.fixture
def hydrations(monkeypatch):
    """``(thread name, rows)`` of every hydration of a store while active."""
    calls = []
    real = colfile.records_from_store

    def counting(store, rows=None):
        calls.append((threading.current_thread().name, len(store) if rows is None else len(rows)))
        return real(store, rows)

    monkeypatch.setattr(colfile, "records_from_store", counting)
    return calls


@pytest.mark.parametrize("tenants, token", [(None, None), ({"tok": "a"}, "tok")])
def test_plain_server_builds_no_record(tmp_path, no_record_hydration, tenants, token):
    tenant = "a" if token else DEFAULT_TENANT
    with AggregationServer(SCHEME, shards=2, tenants=tenants) as server:
        records = stream(server, tmp_path, token)
        got = sorted(map(result_key, server.drain_results(tenant=tenant)))
        merged = server.merged_db(tenant=tenant)
        assert server.metrics.counter_value("net.duplicates") == 5
        assert server.metrics.counter_value("net.errors") == 0
        assert sum(shard.num_batches for shard in server._shards) >= 10
    assert got == reference(parse_scheme(SCHEME), records)
    assert (merged.num_offered, merged.num_processed) == (len(records), len(records))


def test_windowed_server_stamps_columns_and_builds_no_record(tmp_path, no_record_hydration):
    for window in ("tumbling(50s)", "sliding(50s, 25s)"):
        text = f"{SCHEME} WINDOW {window}"
        with AggregationServer(text, shards=2, lateness=1e9) as server:
            records = stream(server, tmp_path / window)
            got = server.drain_results()
            assert server.metrics.counter_value("net.duplicates") == 5
            assert server.metrics.counter_value("net.errors") == 0
            assert server._window.num_late == server._window.num_untimed == 0
        want = QueryEngine(text).run(records, backend="rows").records
        columns = [*parse_scheme(text).key, *parse_scheme(SCHEME).output_labels]
        project = lambda rs: sorted(  # noqa: E731 - the server adds hidden moments
            tuple((c, repr(r.get(c).value)) for c in columns) for r in rs
        )
        assert project(got) == project(want) and len(got) == len(want)


@pytest.mark.parametrize("custom", ["operator", "predicate"])
def test_kernel_less_scheme_hydrates_only_routed_rows_on_the_shard_workers(
    tmp_path, hydrations, custom
):
    if custom == "operator":
        ops, predicate = [make_op("count"), _CustomSum(["time.duration"])], None
    else:  # a hand-written callable: nothing to evaluate as column masks
        ops = [make_op("count"), make_op("sum", ["time.duration"])]
        predicate = lambda record: record.get("time.duration").value > 2.0  # noqa: E731
    scheme = AggregationScheme(ops=ops, key=["kernel", "mpi.rank"], predicate=predicate)
    with AggregationServer(scheme, shards=2) as server:
        records = stream(server, tmp_path, scheme=None)
        got = sorted(map(result_key, server.drain_results()))
        merged = server.merged_db()
    assert got == reference(scheme, records)
    kept = len(records) if predicate is None else sum(map(predicate, records))
    assert (merged.num_offered, merged.num_processed) == (len(records), kept)
    # each routed row once (no duplicate batch, no row of another shard), and
    # never on the event loop
    assert sum(rows for _thread, rows in hydrations) == len(records)
    assert {thread for thread, _rows in hydrations} == {"repro-net-shard-0", "repro-net-shard-1"}


def test_where_server_masks_columns_and_builds_no_record(tmp_path, no_record_hydration):
    text = (
        "AGGREGATE count, sum(time.duration) WHERE kernel, not(kernel=io), mpi.rank>0, "
        "time.duration<8 GROUP BY kernel, mpi.rank"
    )
    scheme = parse_scheme(text)
    with AggregationServer(text, shards=2) as server:
        records = stream(server, tmp_path, scheme=text)
        got = sorted(map(result_key, server.drain_results()))
        merged = server.merged_db()
    by_row = AggregationDB(scheme)
    by_row.process_all(records)
    assert got == sorted(map(result_key, by_row.flush())) and got
    assert (merged.num_offered, merged.num_processed) == (len(records), by_row.num_processed)
    assert 0 < by_row.num_processed < len(records)


def test_same_keys_as_records_and_as_states_share_a_shard(tmp_path):
    records = synth(5, 400)
    partial = AggregationDB(parse_scheme(SCHEME))
    partial.process_all(records)
    with AggregationServer(SCHEME, shards=4) as server:
        client = FlushClient(
            *server.address, scheme=SCHEME, batch_size=100, spool_dir=str(tmp_path)
        )
        client.push_all(records)
        assert client.flush()
        assert client.send_states(partial)
        client.close()
        merged = server.merged_db()  # a barrier: everything acknowledged is folded
        # no key lives on two shards, whichever frame kind carried it
        assert server._shards.entries() == len(merged) == len(partial) == 25
        assert sum(r.get("count").value for r in merged.flush()) == 2 * len(records)


def test_poisoned_store_counts_an_error_and_leaves_the_worker_alive():
    plane = ShardPlane(parse_scheme(SCHEME), 1, 8, MetricsRegistry())
    admission = Admission(plane)
    tenant = admission.connect(None)
    records = synth(3, 20)
    store = decode_batch_store(encode_batch(records))

    def admit(seq, rows):
        puts = lambda: [(plane[0], ("store", tenant, store, rows))]  # noqa: E731
        return asyncio.run(admission.admit(tenant, "c", seq, "records", len(store), puts))

    plane.start()
    try:
        # rows this store does not have: the column kernel raises on the worker
        assert admit(0, np.array([0, 10**6]))[0] is MessageType.ACK
        plane.call(lambda shard: None)
        assert plane.metrics.counter_value("net.errors", stage="shard") == 1
        assert tenant.queued == 0  # the queue slot went back
        assert plane[0].num_batches == 0
        assert admit(1, None)[0] is MessageType.ACK
        (processed,) = plane.call(lambda shard: shard.table.num_processed)
        assert processed == len(records) and plane[0].num_batches == 1
        assert plane[0].thread.is_alive()
    finally:
        plane.stopping.set()
        plane.stop(5.0)


def test_workers_sharing_a_store_lose_no_row(tmp_path):
    # Every batch's store is read by up to four workers at once (more than
    # this box has cores), each filling the store's lazy numeric caches as
    # its kernels ask; four clients race on the routing cache.  Quarter-step
    # durations add exactly in any order, so any lost row shows.
    def quarters(seed):
        rng = random.Random(seed)
        return [
            Record({"kernel": f"k{rng.randrange(16)}", "mpi.rank": rng.randrange(8),
                    "time.duration": 0.25 * rng.randrange(40)})
            for _ in range(1500)
        ]

    streams = [quarters(seed) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with AggregationServer(SCHEME, shards=4) as server:
            def push(i):
                with FlushClient(
                    *server.address, scheme=SCHEME, batch_size=50,
                    spool_dir=str(tmp_path / f"spool{i}"),
                ) as client:
                    client.push_all(streams[i])
                    flushed.append(client.flush())

            flushed = []
            threads = [threading.Thread(target=push, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert flushed == [True] * 4
            got = sorted(map(result_key, server.drain_results()))
            assert server.metrics.counter_value("net.errors") == 0
    finally:
        sys.setswitchinterval(interval)
    assert got == reference(parse_scheme(SCHEME), [r for s in streams for r in s])
