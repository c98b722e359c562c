"""The wire protocol: length-prefixed, versioned binary frames.

Every message travelling between :class:`~repro.net.client.FlushClient`
and :class:`~repro.net.server.AggregationServer` is one *frame*::

    offset  size  field
    0       4     magic  b"RAGG"
    4       1     protocol version (currently 1)
    5       1     message type (MessageType)
    6       2     flags (FLAG_BINARY: the payload is a binary envelope)
    8       4     payload length N (big-endian unsigned)
    12      N     payload (UTF-8 JSON, or an ``RBE1`` envelope)

The framing layer is deliberately binary and fixed — a reader can always
resynchronize trust boundaries from the magic and knows the exact byte
count to expect.  Control frames and ``RESULT`` replies carry JSON so they
stay debuggable and need no third-party serializer; the data frames
(``RECORDS``/``STATES``/``FORWARD``) always carry a binary envelope whose
sections are :mod:`repro.io.colfile` columnar blobs.  Pickle is never used
on the wire: the server must survive arbitrary hostile bytes, and
unpickling is code execution.

``RESULT`` replies round-trip records through plain JSON —
``{label: [type_name, raw_value]}`` per record, preserving
:class:`~repro.common.variant.Variant` types exactly.

Failure behaviour is part of the contract: a frame with a bad magic, an
unknown version, or an oversized declared length raises a specific
:class:`ProtocolError` subclass *before* any payload is read, so a server
can reject garbage cheaply and keep the listening socket healthy.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from typing import BinaryIO, Iterable, Optional, Sequence, Union

from ..common.errors import ReproError
from ..common.record import Record
from ..common.variant import ValueType, Variant

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "MAX_PAYLOAD",
    "MAX_DECODED",
    "HEADER",
    "FLAG_BINARY",
    "CAP_BINARY",
    "MessageType",
    "ProtocolError",
    "Truncated",
    "FrameTooLarge",
    "VersionMismatch",
    "parse_frame_header",
    "write_frame",
    "read_frame",
    "write_message",
    "message_bytes",
    "read_message",
    "parse_body",
    "busy_body",
    "records_to_wire",
    "records_from_wire",
    "encode_binary_body",
    "decode_binary_body",
    "records_to_binary",
    "records_from_binary",
    "store_from_binary",
    "states_to_binary",
    "states_from_binary",
]

MAGIC = b"RAGG"
PROTOCOL_VERSION = 1

#: default upper bound on a frame payload (refuse anything larger)
MAX_PAYLOAD = 16 * 1024 * 1024

#: default upper bound on the *decoded* size of a binary payload — the
#: envelope may be zlib-compressed, so the frame length alone does not bound
#: what decoding would allocate; this does
MAX_DECODED = 4 * MAX_PAYLOAD

HEADER = struct.Struct(">4sBBHI")

#: frame flag: the payload is a binary envelope (:func:`encode_binary_body`)
#: rather than UTF-8 JSON.  Required on RECORDS/STATES/FORWARD frames.
FLAG_BINARY = 0x0001

#: HELLO/HELLO_ACK capability token for the binary columnar payload
#: encoding; a HELLO that does not offer it is refused
CAP_BINARY = "colbin1"


class ProtocolError(ReproError):
    """Malformed or unacceptable wire data."""


class Truncated(ProtocolError):
    """The peer closed the connection mid-frame."""


class FrameTooLarge(ProtocolError):
    """Declared payload length exceeds the receiver's limit."""


class VersionMismatch(ProtocolError):
    """Frame carries an unsupported protocol version."""

    def __init__(self, got: int) -> None:
        super().__init__(
            f"unsupported protocol version {got} (speaking {PROTOCOL_VERSION})"
        )
        self.got = got


class MessageType(enum.IntEnum):
    """Frame type tags (one byte on the wire)."""

    HELLO = 1  # client handshake: version, client id, scheme text
    HELLO_ACK = 2  # server accepts: epoch id, shard count
    RECORDS = 3  # batch of snapshot records (seq-numbered)
    STATES = 4  # exported partial-DB states (seq-numbered)
    ACK = 5  # server confirms a seq-numbered batch
    QUERY = 6  # CalQL text to run against the merged live state
    RESULT = 7  # record set reply (query / drain / stats)
    STATS = 8  # request server telemetry records
    ERROR = 9  # refusal; payload carries a reason
    DRAIN = 10  # flush request: merged results of everything ingested
    BYE = 11  # orderly goodbye
    FORWARD = 12  # relay -> parent: partial-DB delta tagged with origin + level
    RETRACT = 13  # relay -> parent: drop previously forwarded origins (failover)
    BUSY = 14  # admission control: batch NOT folded, retry after `retry_after` s


# -- frame I/O ----------------------------------------------------------------


def parse_frame_header(
    header: bytes, max_payload: int = MAX_PAYLOAD
) -> tuple[MessageType, int, int]:
    """Validate a frame header; returns ``(message type, flags, payload length)``.

    All rejection happens here, before any payload byte is read, so both the
    blocking and the asyncio read paths refuse garbage from the exact same
    checks: bad magic, unknown version or message type, oversized length.
    """
    magic, version, msg_type, flags, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(version)
    if length > max_payload:
        raise FrameTooLarge(
            f"declared payload of {length} bytes exceeds limit {max_payload}"
        )
    try:
        mtype = MessageType(msg_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {msg_type}") from None
    return mtype, flags, length


def write_frame(
    stream: BinaryIO,
    msg_type: int,
    payload: bytes,
    version: int = PROTOCOL_VERSION,
    flags: int = 0,
) -> int:
    """Write one frame; returns the number of bytes written."""
    data = HEADER.pack(MAGIC, version, int(msg_type), flags, len(payload)) + payload
    stream.write(data)
    stream.flush()
    return len(data)


def _read_exact(stream: BinaryIO, n: int, context: str) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            raise Truncated(
                f"connection closed mid-{context} ({len(buf)}/{n} bytes read)"
            )
        buf += chunk
    return buf


def read_frame(
    stream: BinaryIO, max_payload: int = MAX_PAYLOAD
) -> tuple[MessageType, bytes]:
    """Read one frame; returns ``(message type, payload bytes)``.

    Raises :class:`Truncated` on a short read, :class:`ProtocolError` on a
    bad magic or unknown message type, :class:`VersionMismatch` /
    :class:`FrameTooLarge` for their namesakes — all *before* reading a
    potentially attacker-sized payload.  Flag-blind: this is the client's
    reader, and every response is JSON.
    """
    header = _read_exact(stream, HEADER.size, "header")
    mtype, _flags, length = parse_frame_header(header, max_payload)
    payload = _read_exact(stream, length, "payload") if length else b""
    return mtype, payload


# -- message (frame + JSON body) I/O ------------------------------------------


def write_message(
    stream: BinaryIO, msg_type: int, body: dict, version: int = PROTOCOL_VERSION
) -> int:
    """Serialize ``body`` as JSON and send it as one frame."""
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    return write_frame(stream, msg_type, payload, version)


def message_bytes(
    msg_type: int, body: dict, version: int = PROTOCOL_VERSION
) -> bytes:
    """One JSON-bodied frame as bytes (for writers without a flush; asyncio)."""
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(MAGIC, version, int(msg_type), 0, len(payload)) + payload


def parse_body(mtype: MessageType, payload: bytes) -> dict:
    """Decode a frame payload as a JSON object (empty payload = ``{}``)."""
    if not payload:
        return {}
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed {mtype.name} payload: {exc}") from exc
    if not isinstance(body, dict):
        raise ProtocolError(
            f"{mtype.name} payload must be a JSON object, got {type(body).__name__}"
        )
    return body


def read_message(
    stream: BinaryIO, max_payload: int = MAX_PAYLOAD
) -> tuple[MessageType, dict]:
    """Read one frame and decode its JSON body (must be an object)."""
    mtype, payload = read_frame(stream, max_payload)
    return mtype, parse_body(mtype, payload)


# -- typed payload encoding ----------------------------------------------------


def _variant_to_wire(v: Variant) -> list:
    return [v.type.value, v.value]


def _variant_from_wire(pair: object) -> Variant:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not isinstance(pair[0], str)
    ):
        raise ProtocolError(f"malformed wire variant {pair!r}")
    type_name, raw = pair
    try:
        return Variant(ValueType.from_name(type_name), raw)
    except ReproError as exc:
        raise ProtocolError(f"malformed wire variant {pair!r}: {exc}") from exc


def records_to_wire(records: Iterable[Record]) -> list:
    """Encode records as JSON-able, type-preserving objects."""
    return [
        {label: _variant_to_wire(value) for label, value in record.items()}
        for record in records
    ]


def records_from_wire(obj: object) -> list[Record]:
    """Decode :func:`records_to_wire` output back into records."""
    if not isinstance(obj, list):
        raise ProtocolError(f"record batch must be a list, got {type(obj).__name__}")
    out: list[Record] = []
    for item in obj:
        if not isinstance(item, dict):
            raise ProtocolError(f"wire record must be an object, got {item!r}")
        out.append(
            Record.from_variants(
                {str(label): _variant_from_wire(pair) for label, pair in item.items()}
            )
        )
    return out


def origin_from_wire(pair: object) -> tuple[str, str]:
    """Decode an ``[id, epoch]`` origin pair from FORWARD/RETRACT payloads.

    An *origin* names one aggregation-server incarnation in a reduction
    tree: the stable relay id plus the random epoch drawn at start.  The
    pair identifies whose partial aggregates a forwarded delta carries, so
    a parent can retract exactly one dead subtree's contribution.
    """
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(part, str) and part for part in pair)
    ):
        raise ProtocolError(f"malformed origin {pair!r} (expected [id, epoch])")
    return (pair[0], pair[1])


def origins_from_wire(obj: object) -> list[tuple[str, str]]:
    """Decode a RETRACT payload's origin list."""
    if not isinstance(obj, list):
        raise ProtocolError(f"origin list must be a list, got {type(obj).__name__}")
    return [origin_from_wire(item) for item in obj]


def error_body(reason: str, code: str = "protocol") -> dict:
    """Standard ERROR frame body."""
    return {"code": code, "reason": reason}


def busy_body(seq: int, retry_after: float, reason: str = "backpressure") -> dict:
    """Standard BUSY frame body: batch ``seq`` was shed, come back later.

    A BUSY reply means the server did *not* fold (or dedup-mark) the batch:
    the client keeps it in its write-ahead spool and redelivers after at
    least ``retry_after`` seconds — admission control instead of blocking
    the event loop on a full shard queue.
    """
    return {"seq": seq, "retry_after": float(retry_after), "reason": reason}


def require(body: dict, key: str, types: tuple = (object,)) -> object:
    """Fetch a required message field, raising :class:`ProtocolError` if absent."""
    if key not in body:
        raise ProtocolError(f"message is missing required field {key!r}")
    value = body[key]
    if types != (object,) and not isinstance(value, types):
        raise ProtocolError(
            f"message field {key!r} has type {type(value).__name__}, "
            f"expected {'/'.join(t.__name__ for t in types)}"
        )
    return value


def optional(body: dict, key: str, default: Optional[object] = None) -> object:
    return body.get(key, default)


# -- binary payload envelope ---------------------------------------------------
#
# Frames whose header carries FLAG_BINARY wrap their payload in a small
# envelope instead of JSON::
#
#     offset  size  field
#     0       4     magic  b"RBE1"
#     4       1     codec  (0 = raw, 1 = zlib)
#     5       4     decoded (raw) length, little-endian
#     9       ...   body (possibly compressed)
#
# The decoded body is ``u32 meta_len | meta JSON | section bytes``: ``meta``
# holds the ordinary JSON message fields plus a ``sections`` table mapping
# section names to ``[offset, length]`` within the trailing bytes.  Sections
# carry the columnar blobs (record batches, operator states) produced by
# :mod:`repro.io.colfile`.  Every client must offer the CAP_BINARY
# capability in HELLO; responses always stay JSON.  The declared decoded length is checked against the
# receiver's ``max_decoded`` *before* decompression, so a compressed bomb
# is rejected without inflating it.

_ENVELOPE_MAGIC = b"RBE1"
_ENV_HEAD = struct.Struct("<4sBI")
_U32LE = struct.Struct("<I")
_CODEC_RAW, _CODEC_ZLIB = 0, 1

#: compress envelopes above this size when it actually shrinks them
_COMPRESS_THRESHOLD = 512


def encode_binary_body(
    body: dict, sections: dict[str, bytes], compress: bool = True
) -> bytes:
    """Encode message fields + binary sections into one envelope payload."""
    table = {}
    parts = []
    pos = 0
    for name, blob in sections.items():
        pad = (-pos) % 8
        if pad:
            parts.append(b"\x00" * pad)
            pos += pad
        table[name] = [pos, len(blob)]
        parts.append(blob)
        pos += len(blob)
    meta = json.dumps(
        {"body": body, "sections": table}, separators=(",", ":")
    ).encode("utf-8")
    inner = _U32LE.pack(len(meta)) + meta + b"".join(parts)
    codec = _CODEC_RAW
    out = inner
    if compress and len(inner) >= _COMPRESS_THRESHOLD:
        packed = zlib.compress(inner, 1)
        if len(packed) < len(inner):
            codec, out = _CODEC_ZLIB, packed
    return _ENV_HEAD.pack(_ENVELOPE_MAGIC, codec, len(inner)) + out


def decode_binary_body(
    payload: Union[bytes, memoryview], max_decoded: int = MAX_DECODED
) -> tuple[dict, dict[str, memoryview]]:
    """Decode :func:`encode_binary_body` output.

    Returns ``(body fields, sections)`` where sections are bounds-checked
    memoryviews into the decoded bytes.  The declared decoded size is
    capped by ``max_decoded`` *before* any decompression happens — the
    binary-payload counterpart of ``max_payload`` on the frame itself.
    """
    mv = memoryview(payload)
    if len(mv) < _ENV_HEAD.size:
        raise ProtocolError("truncated binary envelope")
    magic, codec, raw_len = _ENV_HEAD.unpack(bytes(mv[: _ENV_HEAD.size]))
    if magic != _ENVELOPE_MAGIC:
        raise ProtocolError(f"bad binary envelope magic {magic!r}")
    if raw_len > max_decoded:
        raise FrameTooLarge(
            f"binary payload decodes to {raw_len} bytes, exceeding limit {max_decoded}"
        )
    data = mv[_ENV_HEAD.size :]
    if codec == _CODEC_ZLIB:
        try:
            # max_length stops a lying header from inflating past its claim
            inflater = zlib.decompressobj()
            raw = inflater.decompress(bytes(data), raw_len + 1)
        except zlib.error as exc:
            raise ProtocolError(f"bad compressed payload: {exc}") from None
        if len(raw) != raw_len or inflater.unconsumed_tail:
            raise ProtocolError("compressed payload does not match declared size")
        inner = memoryview(raw)
    elif codec == _CODEC_RAW:
        if len(data) != raw_len:
            raise ProtocolError("binary payload does not match declared size")
        inner = data
    else:
        raise ProtocolError(f"unknown binary payload codec {codec}")
    if len(inner) < 4:
        raise ProtocolError("truncated binary envelope body")
    meta_len = _U32LE.unpack(bytes(inner[:4]))[0]
    if 4 + meta_len > len(inner):
        raise ProtocolError("binary envelope metadata exceeds payload")
    try:
        meta = json.loads(bytes(inner[4 : 4 + meta_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad binary envelope metadata: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("body"), dict):
        raise ProtocolError("binary envelope metadata must carry a body object")
    table = meta.get("sections", {})
    if not isinstance(table, dict):
        raise ProtocolError("binary envelope section table must be an object")
    blob = inner[4 + meta_len :]
    sections: dict[str, memoryview] = {}
    for name, span in table.items():
        if (
            not isinstance(span, (list, tuple))
            or len(span) != 2
            or not all(isinstance(x, int) and x >= 0 for x in span)
            or span[0] + span[1] > len(blob)
        ):
            raise ProtocolError(f"bad binary envelope section {name!r}")
        sections[str(name)] = blob[span[0] : span[0] + span[1]]
    return meta["body"], sections


def _decode_limits(max_decoded: int):
    from ..io.colfile import DecodeLimits  # deferred: io does not import net

    return DecodeLimits.for_decoded_size(max_decoded)


def records_to_binary(records: Iterable[Record]) -> bytes:
    """Encode a record batch as a columnar blob (a ``records`` section)."""
    from ..io.colfile import encode_batch

    records = records if isinstance(records, (list, tuple)) else list(records)
    return encode_batch(records)


def store_from_binary(blob: Union[bytes, memoryview], max_decoded: int = MAX_DECODED):
    """Decode a binary record batch into the column store it is — a
    :class:`~repro.io.colfile.ColumnStore`, no ``Record`` built — mapping
    codec errors to protocol errors."""
    from ..common.errors import DatasetError
    from ..io.colfile import decode_batch_store

    try:
        return decode_batch_store(blob, _decode_limits(max_decoded))
    except DatasetError as exc:
        raise ProtocolError(f"malformed binary record batch: {exc}") from None


def records_from_binary(
    blob: Union[bytes, memoryview], max_decoded: int = MAX_DECODED
) -> list[Record]:
    """:func:`store_from_binary`, hydrated into records."""
    return store_from_binary(blob, max_decoded).records


def states_to_binary(
    states: Sequence[tuple[dict[str, Variant], list[list]]],
) -> bytes:
    """Encode exported partial-DB states as a columnar blob."""
    from ..io import colfile

    return colfile.states_to_binary(states)


def states_from_binary(
    blob: Union[bytes, memoryview], max_decoded: int = MAX_DECODED
) -> list[tuple[dict[str, Variant], list[list]]]:
    """Decode a binary state batch, mapping codec errors to protocol errors."""
    from ..common.errors import DatasetError
    from ..io import colfile

    try:
        return colfile.states_from_binary(blob, _decode_limits(max_decoded))
    except DatasetError as exc:
        raise ProtocolError(f"malformed binary state batch: {exc}") from None
