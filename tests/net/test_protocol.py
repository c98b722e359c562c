"""Framing-protocol unit and fuzz tests.

The server lives on an open port, so every malformed input here must map
to a typed :class:`ProtocolError` raised *before* a payload is trusted —
never a crash, hang, or unbounded allocation.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Record
from repro.net.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    FrameTooLarge,
    MessageType,
    ProtocolError,
    Truncated,
    VersionMismatch,
    parse_body,
    read_frame,
    read_message,
    records_from_wire,
    records_to_wire,
    write_frame,
    write_message,
)

from ..conftest import records as record_strategy


def roundtrip_frame(mtype, payload: bytes):
    buf = io.BytesIO()
    write_frame(buf, mtype, payload)
    buf.seek(0)
    return read_frame(buf)


# -- well-formed frames --------------------------------------------------------


def test_frame_roundtrip():
    mtype, payload = roundtrip_frame(MessageType.RECORDS, b'{"x":1}')
    assert mtype is MessageType.RECORDS
    assert payload == b'{"x":1}'


def test_empty_payload_roundtrip():
    mtype, payload = roundtrip_frame(MessageType.BYE, b"")
    assert mtype is MessageType.BYE
    assert payload == b""
    assert parse_body(mtype, payload) == {}


def test_message_roundtrip():
    buf = io.BytesIO()
    write_message(buf, MessageType.HELLO, {"client": "c1", "seq": 3})
    buf.seek(0)
    mtype, body = read_message(buf)
    assert mtype is MessageType.HELLO
    assert body == {"client": "c1", "seq": 3}


@given(st.binary(max_size=512), st.sampled_from(list(MessageType)))
@settings(max_examples=50, deadline=None)
def test_frame_roundtrip_any_payload(payload, mtype):
    got_type, got_payload = roundtrip_frame(mtype, payload)
    assert got_type is mtype
    assert got_payload == payload


# -- malformed frames ----------------------------------------------------------


def test_truncated_header():
    buf = io.BytesIO(b"RAGG\x01")
    with pytest.raises(Truncated):
        read_frame(buf)


def test_truncated_payload():
    buf = io.BytesIO()
    write_frame(buf, MessageType.RECORDS, b"hello world")
    data = buf.getvalue()[:-4]  # drop the payload tail
    with pytest.raises(Truncated):
        read_frame(io.BytesIO(data))


def test_bad_magic():
    buf = io.BytesIO(HEADER.pack(b"EVIL", PROTOCOL_VERSION, 3, 0, 0))
    with pytest.raises(ProtocolError, match="magic"):
        read_frame(buf)


def test_version_mismatch():
    buf = io.BytesIO(HEADER.pack(MAGIC, 99, 3, 0, 0))
    with pytest.raises(VersionMismatch):
        read_frame(buf)


def test_unknown_message_type():
    buf = io.BytesIO(HEADER.pack(MAGIC, PROTOCOL_VERSION, 200, 0, 0))
    with pytest.raises(ProtocolError, match="message type"):
        read_frame(buf)


def test_oversized_payload_rejected_without_reading_it():
    # Declare 1 GiB but supply no payload bytes at all: the reader must
    # refuse from the header alone instead of trying to allocate/read.
    buf = io.BytesIO(HEADER.pack(MAGIC, PROTOCOL_VERSION, 3, 0, 2**30))
    with pytest.raises(FrameTooLarge):
        read_frame(buf)


def test_payload_limit_is_configurable():
    buf = io.BytesIO()
    write_frame(buf, MessageType.RECORDS, b"x" * 100)
    buf.seek(0)
    with pytest.raises(FrameTooLarge):
        read_frame(buf, max_payload=10)


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=200, deadline=None)
def test_garbage_bytes_never_escape_protocol_error(data):
    """Arbitrary bytes produce a typed ProtocolError (or parse cleanly)."""
    try:
        read_message(io.BytesIO(data))
    except ProtocolError:
        pass  # Truncated / VersionMismatch / FrameTooLarge are subclasses


def test_non_json_payload():
    buf = io.BytesIO()
    write_frame(buf, MessageType.RECORDS, b"\xff\xfe not json")
    buf.seek(0)
    with pytest.raises(ProtocolError, match="payload"):
        read_message(buf)


def test_non_object_json_payload():
    buf = io.BytesIO()
    write_frame(buf, MessageType.RECORDS, json.dumps([1, 2, 3]).encode())
    buf.seek(0)
    with pytest.raises(ProtocolError, match="object"):
        read_message(buf)


# -- typed payload encodings ---------------------------------------------------


def test_records_wire_roundtrip_simple():
    recs = [
        Record({"function": "main", "time.duration": 1.5, "mpi.rank": 3}),
        Record({"flag": True, "name": "x,y=z\\n"}),
    ]
    assert records_from_wire(records_to_wire(recs)) == recs


@given(st.lists(record_strategy(), max_size=10))
@settings(max_examples=50, deadline=None)
def test_records_wire_roundtrip_property(recs):
    assert records_from_wire(records_to_wire(recs)) == recs


def test_records_from_wire_rejects_garbage():
    with pytest.raises(ProtocolError):
        records_from_wire("not-a-list")
    with pytest.raises(ProtocolError):
        records_from_wire([{"label": "missing type tag"}])
    with pytest.raises(ProtocolError):
        records_from_wire([{"label": ["no_such_type", "v"]}])
