"""Binary columnar wire encoding: envelope, required capability, spool.

Data frames carry ``colbin1`` binary sections, always: a peer that does
not offer the capability, or sends a JSON-bodied data frame, is refused
with a typed error before anything folds.  Hostile payloads must die at the
protocol boundary with the *decoded* size capped, not just the frame length
(a compressed envelope can claim any expansion it likes), and a replayed
batch ships the very bytes its first delivery did.
"""

from __future__ import annotations

import json
import os
import random
import socket
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregationDB, StreamAggregator
from repro.aggregate.table import StateTable
from repro.calql import parse_scheme
from repro.common import Record, ValueType, Variant
from repro.net import AggregationServer, FlushClient
from repro.net import connection as server_module
from repro.net.protocol import (
    CAP_BINARY,
    FrameTooLarge,
    MessageType,
    ProtocolError,
    decode_binary_body,
    encode_binary_body,
    read_message,
    records_from_binary,
    records_to_binary,
    records_to_wire,
    states_from_binary,
    states_to_binary,
    write_message,
)

SCHEME = (
    "AGGREGATE count, sum(time.duration), min(time.duration), "
    "max(time.duration) GROUP BY kernel"
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


# -- envelope ----------------------------------------------------------------------


def test_envelope_roundtrip_with_sections():
    body = {"seq": 7, "count": 3}
    sections = {"records": b"abc" * 100, "groups": b"\x00\x01\x02"}
    payload = encode_binary_body(body, sections)
    got_body, got_sections = decode_binary_body(payload)
    assert got_body == body
    assert bytes(got_sections["records"]) == b"abc" * 100
    assert bytes(got_sections["groups"]) == b"\x00\x01\x02"


def test_envelope_compresses_large_payloads():
    body = {"seq": 1}
    compressible = {"records": b"A" * 10_000}
    small = len(encode_binary_body(body, compressible))
    raw = len(encode_binary_body(body, compressible, compress=False))
    assert small < raw
    got_body, got_sections = decode_binary_body(encode_binary_body(body, compressible))
    assert got_body == body and bytes(got_sections["records"]) == b"A" * 10_000


def test_envelope_decoded_size_capped_before_inflate():
    """A zlib bomb must be refused by its *declared* size, pre-inflation."""
    bomb_raw = b"\x00" * (64 * 1024 * 1024)
    inner = b"\x04\x00\x00\x00" + b"{}" + bomb_raw  # malformed but irrelevant
    packed = zlib.compress(inner, 9)
    payload = b"RBE1" + bytes([1]) + len(inner).to_bytes(4, "little") + packed
    with pytest.raises(FrameTooLarge):
        decode_binary_body(payload, max_decoded=1024 * 1024)


def test_envelope_lying_declared_size_rejected():
    inner = b"junk" * 10
    packed = zlib.compress(inner)
    # declare fewer bytes than actually inflate
    payload = b"RBE1" + bytes([1]) + (len(inner) - 4).to_bytes(4, "little") + packed
    with pytest.raises(ProtocolError):
        decode_binary_body(payload)


def test_envelope_bad_section_span_rejected():
    meta = json.dumps(
        {"body": {}, "sections": {"records": [0, 10**9]}}, separators=(",", ":")
    ).encode()
    inner = len(meta).to_bytes(4, "little") + meta
    payload = b"RBE1" + bytes([0]) + len(inner).to_bytes(4, "little") + inner
    with pytest.raises(ProtocolError, match="section"):
        decode_binary_body(payload)


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=120))
def test_envelope_garbage_never_escapes_protocol_error(data):
    try:
        decode_binary_body(data)
    except ProtocolError:
        pass  # FrameTooLarge is a subclass


# -- record / state sections -------------------------------------------------------


def test_records_binary_roundtrip():
    records = synth_records(3, 257)
    out = records_from_binary(records_to_binary(records))
    assert [result_key(r) for r in out] == [result_key(r) for r in records]


def test_records_binary_garbage_maps_to_protocol_error():
    with pytest.raises(ProtocolError):
        records_from_binary(b"RCB1\xff\xff\xff\xff")


def test_states_binary_roundtrip_preserves_cells():
    # "any" (FirstOp) keeps a Variant in its state cell; min/max keep
    # None-or-number.  All must round-trip.
    scheme = parse_scheme(
        "AGGREGATE count, sum(x), min(x), max(x), any(tag) GROUP BY k"
    )
    db = AggregationDB(scheme)
    db.process(Record({"k": "a", "x": 2.5, "tag": "first"}))
    db.process(Record({"k": "a", "x": 4, "tag": "second"}))
    db.process(Record({"k": "b", "tag": "only"}))
    for i, record in enumerate(synth_records(5, 500)):
        db.process(Record({"k": record.get("kernel").value, "x": i * 0.5}))
    restored = AggregationDB(scheme)
    restored.load_states(states_from_binary(states_to_binary(db.export_states())))
    assert sorted(map(result_key, restored.flush())) == sorted(
        map(result_key, db.flush())
    )


def test_states_binary_adversarial_limit():
    """The decoded-size budget applies to state batches too (satellite:
    limits must cap decoded payloads, not just frame length)."""
    db = AggregationDB(parse_scheme(SCHEME))
    for record in synth_records(6, 2000):
        db.process(record)
    blob = states_to_binary(db.export_states())
    with pytest.raises(ProtocolError):
        states_from_binary(blob, max_decoded=16)


# -- required capability -----------------------------------------------------------


def raw_hello(server, hello: dict):
    """Open a raw connection, send ``hello``; returns (sock, rfile, wfile)."""
    sock = socket.create_connection(server.address, timeout=5.0)
    rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
    write_message(wfile, MessageType.HELLO, hello)
    return sock, rfile, wfile


def test_hello_without_colbin1_is_refused_and_releases_its_slot():
    tenants = {"tok": {"name": "solo", "max_connections": 1}}
    with AggregationServer(SCHEME, shards=1, tenants=tenants) as server:
        sock, rfile, _wfile = raw_hello(
            server, {"client": "old", "stream": "s", "scheme": SCHEME, "token": "tok"}
        )
        try:
            mtype, body = read_message(rfile)
        finally:
            sock.close()
        assert mtype is MessageType.ERROR
        assert body["code"] == "caps"
        assert CAP_BINARY in body["reason"]
        # The refused HELLO must not hold the tenant's only connection slot.
        with FlushClient(*server.address, scheme=SCHEME, token="tok") as client:
            client.push_all(synth_records(31, 5))
            assert client.flush()


def test_json_bodied_records_frame_is_refused_and_leaves_no_trace():
    with AggregationServer(SCHEME, shards=1) as server:
        sock, rfile, wfile = raw_hello(
            server, {"client": "rogue", "stream": "s", "scheme": SCHEME, "caps": [CAP_BINARY]}
        )
        try:
            mtype, _ack = read_message(rfile)
            assert mtype is MessageType.HELLO_ACK
            write_message(
                wfile,
                MessageType.RECORDS,
                {"seq": 0, "records": records_to_wire(synth_records(29, 3))},
            )
            mtype, body = read_message(rfile)
        finally:
            sock.close()
        assert mtype is MessageType.ERROR
        assert CAP_BINARY in body["reason"]
        assert server.merged_db().num_offered == 0
        assert "rogue" not in server._dedup


def test_binary_negotiated_through_hello_caps(tmp_path):
    with AggregationServer(SCHEME, shards=1) as server:
        client = FlushClient(
            *server.address, scheme=SCHEME, spool_dir=str(tmp_path)
        )
        client.push_all(synth_records(13, 10))
        assert client.flush()
        assert client.server_info.get("caps") == [CAP_BINARY]
        client.close()


def test_states_and_forward_ride_binary(tmp_path):
    """send_states and relay FORWARD both use the binary sections."""
    records = synth_records(17, 800)
    db = AggregationDB(parse_scheme(SCHEME))
    for record in records:
        db.process(record)
    with AggregationServer(SCHEME, shards=2) as root:
        with AggregationServer(
            SCHEME, shards=1, upstream=root.address, forward_interval=0.0
        ) as relay:
            client = FlushClient(
                *relay.address, scheme=SCHEME, spool_dir=str(tmp_path)
            )
            assert client.send_states(db)
            assert relay.forward_now()
            got = sorted(map(result_key, root.drain_results()))
            client.close()
    assert got == reference(records)


# -- spool -------------------------------------------------------------------------


def test_spool_segments_are_rcf_and_replay_exactly(tmp_path):
    """Write-ahead spool: .rcf segments, replayed byte-exact after an outage."""
    records = synth_records(19, 300)
    client = FlushClient(
        "127.0.0.1",
        1,  # nothing listens here
        scheme=SCHEME,
        batch_size=100,
        spool_dir=str(tmp_path),
        retries=0,
        client_id="spooler",
    )
    client.push_all(records)
    assert not client.flush()
    segments = sorted(
        f for f in os.listdir(client.spool_dir) if f.endswith(".rcf")
    )
    assert segments == [f"batch-{i:08d}.rcf" for i in range(3)]
    with AggregationServer(SCHEME, shards=2) as server:
        client.host, client.port = server.address
        assert client.flush()
        got = sorted(map(result_key, server.drain_results()))
        client.close()
    assert got == reference(records)


def test_replayed_frames_are_byte_identical_to_first_delivery(tmp_path, monkeypatch):
    """A batch is encoded once, when spooled: replay ships the same bytes."""
    received = []  # (kind, seq, frame payload), every server, arrival order
    real_decode = server_module.decode_binary_body

    def recording_decode(payload, max_decoded):
        body, sections = real_decode(payload, max_decoded=max_decoded)
        if "records" in sections:
            kind = "records"
        else:
            kind = "forward" if "origin" in body else "states"
        received.append((kind, body["seq"], bytes(payload)))
        return body, sections

    monkeypatch.setattr(server_module, "decode_binary_body", recording_decode)
    records = synth_records(37, 250)
    db = AggregationDB(parse_scheme(SCHEME))
    for record in records:
        db.process(record)
    first = AggregationServer(SCHEME, shards=1).start()
    client = FlushClient(
        *first.address, scheme=SCHEME, batch_size=100, spool_dir=str(tmp_path)
    )
    try:
        client.push_all(records)
        assert client.flush()
        assert client.send_states(db)
        assert client.send_forward(
            StateTable.from_states(db.scheme, db.export_states()),
            origin=("leaf", "e0"), from_epoch="e0",
        )
    finally:
        first.kill()
    delivered, received[:] = list(received), []
    assert [(kind, seq) for kind, seq, _ in delivered] == [
        ("records", 0), ("records", 1), ("records", 2), ("states", 3), ("forward", 4)
    ]
    with AggregationServer(SCHEME, shards=1) as second:
        client.host, client.port = second.address
        assert client.flush()  # new epoch: the whole spool replays
        assert client.counters["epoch_changes"] == 1
        client.close()
    assert received == delivered
