"""The server's planes, each driven without a listening socket.

``AggregationServer`` only composes these; what is pinned here is each
plane's own contract: the shard barrier (results, failures, timeouts), the
data-frame admission sequence (dedup, BUSY, quotas), and the relay plane's
forward -> fence -> zombie -> retraction story.
"""

from __future__ import annotations

import asyncio
import io
import sys
import threading

import numpy as np
import pytest

from repro.aggregate.table import StateTable
from repro.calql import parse_scheme
from repro.common import Record, Variant
from repro.common.errors import ReproError
from repro.io.colfile import decode_batch_store, encode_batch
from repro.net import AggregationServer
from repro.net.admission import Admission, Refused
from repro.net.connection import ConnectionPlane
from repro.net.protocol import MAX_PAYLOAD, MessageType, message_bytes, read_message
from repro.net.relay import RelayPlane
from repro.net.shards import DEFAULT_TENANT, ShardPlane
from repro.observe import MetricsRegistry

SCHEME = parse_scheme("AGGREGATE count, sum(v) GROUP BY k")


def recs(n: int, tag: str = "k") -> list[Record]:
    return [Record({"k": f"{tag}{i % 4}", "v": float(i)}) for i in range(n)]


def make_shards(n: int = 2, depth: int = 8) -> ShardPlane:
    return ShardPlane(SCHEME, n, depth, MetricsRegistry())


@pytest.fixture
def running():
    plane = make_shards()
    plane.start()
    yield plane
    plane.stopping.set()
    plane.stop(5.0)


def table_of(records) -> StateTable:
    table = StateTable(SCHEME)
    table.fold(records)
    return table.copy()


# -- shard plane: the one barrier -------------------------------------------------


def test_barrier_runs_on_workers_and_directly_when_quiescent(running):
    assert running.call(lambda shard: threading.current_thread().name) == [
        "repro-net-shard-0",
        "repro-net-shard-1",
    ]
    me = threading.current_thread().name
    assert make_shards().call(lambda shard: threading.current_thread().name) == [me, me]


def test_barrier_reraises_a_worker_exception_as_repro_error(running):
    def boom(shard):
        if shard.index == 1:
            raise ValueError("bad export")
        return shard.index

    with pytest.raises(ReproError, match="bad export"):
        running.call(boom)
    assert running.metrics.counter_value("net.errors", stage="shard") == 1
    # The worker survived and the next barrier is answered normally.
    assert running.call(lambda shard: shard.index) == [0, 1]


def test_barrier_times_out_on_a_parked_worker(running):
    release, parked = threading.Event(), threading.Event()

    def park(shard):
        if shard.index == 0:
            parked.set()
            release.wait(timeout=30)

    parker = threading.Thread(target=running.call, args=(park,), daemon=True)
    parker.start()
    assert parked.wait(timeout=5)
    try:
        with pytest.raises(ReproError, match="timed out"):
            running.call(lambda shard: shard.index, timeout=0.3)
    finally:
        release.set()
    parker.join(timeout=5)
    assert not parker.is_alive()
    assert running.call(lambda shard: shard.index) == [0, 1]


def test_failed_export_is_a_repro_error_at_the_server():
    """Used to surface as KeyError('states') and kill the connection task."""
    server = AggregationServer(SCHEME, shards=2)  # never started: no socket
    server._shards[1].tables[DEFAULT_TENANT] = object()  # the copy will raise on it
    with pytest.raises(ReproError, match="barrier"):
        server.merged_db()


def test_records_and_their_states_route_to_the_same_shard():
    plane = make_shards(n=3)
    records = recs(40) + [Record({"v": 1.0})]  # the last one has no key attribute
    store = decode_batch_store(encode_batch(records))
    by_row = {
        records[row].get("k").value: shard.index
        for shard, rows in plane.route_store(store)
        for row in rows.tolist()
    }
    table = table_of(records)
    keys = [entries.get("k", Variant.empty()).value for entries, _ in table.export_states()]
    by_group = {
        keys[slot]: shard.index
        for shard, slots in plane.route_store(table.key_store())
        for slot in slots.tolist()
    }
    assert by_row == by_group and len(by_group) == 5
    # routing a subset of the rows routes exactly those, to the same shards
    odd = np.arange(1, len(records), 2)
    routed = plane.route_store(store, odd)
    assert sorted(row for _shard, rows in routed for row in rows.tolist()) == odd.tolist()
    assert all(
        by_row[records[row].get("k").value] == shard.index
        for shard, rows in routed
        for row in rows.tolist()
    )
    assert plane.route_store(store, odd[:0]) == []
    # an empty key value is a missing one, as the key extractor has it
    empty = StateTable.from_states(SCHEME, [({"k": Variant.empty()}, [[1], [1, 1.0]])])
    ((shard, _slots),) = plane.route_store(empty.key_store())
    assert shard.index == by_group[None]


# -- admission plane: the one data-frame sequence -----------------------------------


def admit(admission, tenant, client, seq, records, shed=True, calls=None):
    store = decode_batch_store(encode_batch(records))

    def route():
        if calls is not None:
            calls.append(seq)
        return [
            (shard, ("store", tenant, store, rows))
            for shard, rows in admission._shards.route_store(store)
        ]

    return admission.admit(tenant, client, seq, "records", len(records), route, shed)


def test_duplicate_is_acked_and_skipped(running):
    admission = Admission(running)
    tenant = admission.connect(None)
    calls: list = []
    first = asyncio.run(admit(admission, tenant, "c", 0, recs(8), calls=calls))
    again = asyncio.run(admit(admission, tenant, "c", 0, recs(8), calls=calls))
    assert first == (MessageType.ACK, {"seq": 0, "count": 8, "duplicate": False})
    assert again == (MessageType.ACK, {"seq": 0, "count": 8, "duplicate": True})
    assert calls == [0]  # the duplicate was never routed
    assert sum(running.call(lambda s: s.table.copy().num_processed)) == 8
    assert running.metrics.counter_value("net.duplicates") == 1


def test_busy_shed_batch_leaves_no_dedup_mark():
    shards = make_shards(n=1, depth=1)  # no worker: the queue stays full
    admission = Admission(shards, admission_timeout=0.0, busy_retry_after=0.5)
    tenant = admission.connect(None)
    assert asyncio.run(admit(admission, tenant, "c", 0, recs(4)))[0] is MessageType.ACK
    mtype, body = asyncio.run(admit(admission, tenant, "c", 1, recs(4)))
    assert mtype is MessageType.BUSY and body["seq"] == 1 and body["retry_after"] == 0.5
    assert tenant.shed == 1 and shards.metrics.counter_value("net.shed") == 1
    assert not admission.dedup.seen("c", 1)  # the redelivery will fold
    assert admission.dedup.seen("c", 0)


def test_batch_with_one_bucket_committed_is_never_shed():
    shards = make_shards(n=2, depth=1)
    admission = Admission(shards, admission_timeout=0.0)
    tenant = admission.connect(None)
    records = recs(16)
    assert len(shards.route_store(decode_batch_store(encode_batch(records)))) == 2
    shards[1].queue.put(("states", tenant, [], 0, 0))  # shard 1 is backed up

    async def scenario():
        task = asyncio.ensure_future(admit(admission, tenant, "c", 0, records))
        await asyncio.sleep(0.1)
        assert not task.done()  # bucket 0 landed: it waits instead of BUSY
        shards[1].queue.get_nowait()
        return await asyncio.wait_for(task, timeout=5)

    mtype, body = asyncio.run(scenario())
    assert mtype is MessageType.ACK and not body["duplicate"]
    assert shards[0].queue.qsize() == 1 and shards[1].queue.qsize() == 1
    assert tenant.shed == 0


def test_entry_quota_is_a_hard_refusal(running):
    admission = Admission(running, tenants={"tok": {"name": "a", "max_db_entries": 2}})
    tenant = admission.connect("tok")
    assert asyncio.run(admit(admission, tenant, "c", 0, recs(8)))[0] is MessageType.ACK
    running.call(lambda shard: None)  # folded: 4 entries now
    with pytest.raises(Refused) as refusal:
        asyncio.run(admit(admission, tenant, "c", 1, recs(8)))
    assert refusal.value.code == "quota"
    assert not admission.dedup.seen(tenant.dedup_key("c"), 1)


def test_named_tenants_client_ids_cannot_collide(running):
    admission = Admission(running, tenants={"ta": "a", "tb": "b"})
    a, b, default = admission.connect("ta"), admission.connect("tb"), admission.connect(None)
    for tenant in (a, b, default):
        _, body = asyncio.run(admit(admission, tenant, "node-1", 0, recs(4)))
        assert not body["duplicate"]
    assert default.dedup_key("node-1") == "node-1"
    assert len({t.dedup_key("node-1") for t in (a, b, default)}) == 3
    running.call(lambda shard: None)
    assert [running.entries(name) for name in ("a", "b", DEFAULT_TENANT)] == [4, 4, 4]


def test_connect_refuses_by_policy():
    admission = Admission(
        make_shards(), tenants={"tok": {"name": "a", "max_connections": 1}}, require_token=True
    )
    with pytest.raises(Refused) as unknown:
        admission.connect("nope")
    with pytest.raises(Refused) as missing:
        admission.connect(None)
    tenant = admission.connect("tok")
    with pytest.raises(Refused) as full:
        admission.connect("tok")
    assert [e.value.code for e in (unknown, missing, full)] == ["auth", "auth", "quota"]
    admission.release(tenant)
    assert admission.connect("tok") is tenant


# -- connection plane: what a callback's own bug does ----------------------------------


class PipeWriter:
    """The writer half of a connection, kept in memory."""

    transport = None

    def __init__(self):
        self.sent = bytearray()

    def write(self, data):
        self.sent += data

    async def drain(self):
        pass

    def close(self):
        pass


def converse(plane, *frames) -> list:
    """Serve one in-memory connection that sends ``frames`` then EOF; the
    frames the plane answered with."""
    writer = PipeWriter()

    async def connection():
        reader = asyncio.StreamReader()
        for mtype, body in frames:
            reader.feed_data(message_bytes(mtype, body))
        reader.feed_eof()
        await plane._client_connected(reader, writer)

    asyncio.run(connection())
    stream, replies = io.BytesIO(bytes(writer.sent)), []
    while stream.tell() < len(writer.sent):
        replies.append(read_message(stream))
    return replies


def test_a_handler_bug_reaches_the_peer_as_an_error_frame_and_others_are_still_served():
    ended = []

    async def handle(session, mtype, body, sections):
        if session == "unlucky":
            raise RuntimeError("index out of the handler's mind")
        if mtype is MessageType.BYE:
            return None
        return MessageType.RESULT, {"records": [], "columns": [], "format": None}

    metrics = MetricsRegistry()
    plane = ConnectionPlane(
        "127.0.0.1", 0, 8, MAX_PAYLOAD, 4 * MAX_PAYLOAD, metrics,
        hello=lambda body: (body["client"], {"epoch": "e"}), handle=handle, goodbye=ended.append,
    )
    (ack, _), (error, body) = converse(
        plane, (MessageType.HELLO, {"client": "unlucky"}), (MessageType.STATS, {})
    )
    assert ack is MessageType.HELLO_ACK and error is MessageType.ERROR
    assert body["code"] == "internal" and "RuntimeError" in body["reason"]
    assert metrics.counter_value("net.errors", stage="handler") == 1
    assert metrics.counter_value("net.disconnects", reason="io") == 0
    replies = converse(
        plane, (MessageType.HELLO, {"client": "next"}), (MessageType.STATS, {}),
        (MessageType.BYE, {}),
    )
    assert [mtype for mtype, _ in replies] == [MessageType.HELLO_ACK, MessageType.RESULT]
    assert ended == ["unlucky", "next"] and metrics.counter_value("net.errors") == 1

    # a handler's ValueError is a bug too, not a vanished peer
    async def picky(session, mtype, body, sections):
        raise ValueError("not a socket's doing")

    plane._handle = picky
    _ack, (_error, body) = converse(
        plane, (MessageType.HELLO, {"client": "c"}), (MessageType.STATS, {})
    )
    assert body["code"] == "internal"
    assert metrics.counter_value("net.disconnects", reason="io") == 0


# -- relay plane: forward -> fence -> zombie -> retraction ----------------------------


class RecordingClient:
    """Stands in for the upstream FlushClient: records what a cycle ships."""

    num_spooled = 0
    server_info: dict = {}
    counters: dict = {}

    def __init__(self) -> None:
        self.sent: list = []

    def send_retract(self, origins, from_epoch):
        self.sent.append(("retract", list(origins)))
        return True

    def send_forward(self, groups, origin, **_extras):
        self.sent.append(("forward", origin, len(groups)))
        return True


def make_relay(upstream=None) -> RelayPlane:
    shards = make_shards()
    dedup = Admission(shards).dedup
    return RelayPlane(shards, dedup, None, "epoch-me", upstream, relay_id="me")


def forward(relay, sender_id, epoch, seq, records, origin=None):
    body = {"seq": seq, "from_epoch": epoch, "origin": list(origin or (sender_id, epoch))}
    return relay.on_forward(sender_id, body, table_of(records))


def held(relay) -> int:
    """How many forwarded state groups the relay plane holds."""
    return sum(len(table) for table in relay.snapshot())


def test_forward_fence_zombie_retraction():
    relay = make_relay(upstream=("127.0.0.1", 1))  # a relay; never started
    relay.client = RecordingClient()
    dead, leaf = ("mid", "e1"), ("leaf", "e0")
    # The mid relay forwards its own delta and passes a leaf's through.
    assert forward(relay, *dead, 0, recs(8))[1]["duplicate"] is False
    assert forward(relay, *dead, 1, recs(4), origin=leaf)[1]["duplicate"] is False
    assert forward(relay, *dead, 1, recs(4), origin=leaf)[1]["duplicate"] is True
    assert held(relay) == 8  # 4 keys under each of the two origins
    # A child of mid re-parents here: mid is fenced, its contribution dropped.
    relay.retract_sender(dead)
    relay.retract_sender(dead)  # a sibling announcing the same death: no-op
    assert relay.snapshot() == []
    assert relay._metrics.counter_value("net.failover.retractions") == 1
    # The zombie's late delta is ACKed (its spool must drain) but dropped.
    mtype, body = forward(relay, *dead, 2, recs(8))
    assert mtype is MessageType.ACK and body == {"seq": 2, "count": 4, "duplicate": False}
    assert relay.snapshot() == [] and relay._metrics.counter_value("net.fenced") == 1
    # The child's replay folds first-hand, and the retraction rides upstream
    # ahead of everything the next cycle forwards.
    forward(relay, "leaf", "e0", 0, recs(4))
    assert relay.forward_now()
    kinds = [entry[0] for entry in relay.client.sent]
    assert kinds[0] == "retract" and set(kinds[1:]) == {"forward"}
    assert sorted(relay.client.sent[0][1]) == [leaf, dead]
    assert ("forward", leaf, 4) in relay.client.sent
    assert relay.snapshot() == []  # detached: the parent owns it now


def test_downstream_retract_drops_only_the_named_origins():
    relay = make_relay()  # the root
    forward(relay, "mid", "e1", 0, recs(8))
    forward(relay, "mid", "e1", 1, recs(4), origin=("leaf", "e0"))
    body = {"seq": 2, "from_epoch": "e1", "origins": [["leaf", "e0"]]}
    assert relay.on_retract("mid", body) == (
        MessageType.ACK, {"seq": 2, "count": 1, "duplicate": False},
    )
    assert held(relay) == 4  # mid's own origin stays
    with pytest.raises(ReproError, match="relay mode"):
        relay.forward_now()


def test_concurrent_forwards_lose_no_telemetry_updates():
    relay = make_relay()
    per_thread, threads = 50, 8

    def hammer(index: int) -> None:
        for seq in range(per_thread):
            forward(relay, f"relay-{index}", "e", seq, [])

    workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # make a lost read-modify-write likely
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    own = relay.tree_nodes()[0]
    assert own["forwards_received"] == per_thread * threads
    assert own["combine_seconds"] > 0.0
