"""The streaming flush client.

:class:`FlushClient` is the producer-side transport: it batches snapshot
records, ships them to an :class:`~repro.net.server.AggregationServer`
over the framing protocol, and — crucially — keeps working when the
server does not:

* **Write-ahead spool, encoded once** — every batch is encoded exactly
  once and written to the spool *before* the first send attempt, so a
  batch in flight when the connection dies is never lost.  A record batch
  is a one-chunk binary columnar ``.rcf`` segment
  (:mod:`repro.io.colfile`, readable by ``repro-query``); its chunk *is*
  the wire's ``records`` section and ships straight from the file.
  States, forward and retract batches spool their finished frame.
* **Retry with exponential backoff** — each delivery makes up to
  ``retries + 1`` attempts with exponentially growing, capped sleeps;
  when they are exhausted the batch simply stays spooled and the client
  returns to the caller (profiling must never block the application).
* **Replay on reconnect** — pending spool files are replayed in sequence
  order (one batch in memory at a time) before new data is sent; a
  replayed frame is byte-identical to its first delivery.
* **Exactly-once** — batches carry monotonically increasing sequence
  numbers per instance (``stream_id``, sent in HELLO).  Within one server
  epoch the server skips sequences that stream has already folded, so a
  replay after a lost ACK cannot double-count.  When
  a reconnect reveals a *new* epoch (the server was restarted and its
  state died), every previously acknowledged batch is put back on the
  pending list and replayed from the spool — no update is lost to a
  crash, and none is duplicated.

The spool therefore acts as a write-ahead log for the whole session.
:meth:`close` deletes the spool files of *acknowledged* batches
(``delete_spool=False`` keeps even those for inspection); batches the
server never acknowledged always stay on disk, so data that could not be
delivered survives application exit.  The memory cost is bounded (one
batch), the disk cost is proportional to the records streamed since the
client was opened — the price of exactly-once delivery against a
crash-restartable server; see ``docs/service.md`` for the trade-off
discussion.

Clients sharing one configured ``spool_dir`` (several channels, several
processes, restarts) each spool into a per-instance subdirectory, so their
write-ahead batches never collide.

**Failover (reduction trees).**  A relay server advertises its own parent
in ``HELLO_ACK`` (``upstream``/``relay_id``).  When ``failover_after`` is
set and the current server has been unreachable for at least that many
seconds, the client *re-parents*: it switches to the advertised upstream
address (the grandparent in the tree), announces the dead relay's
identity in its ``HELLO`` (``failover_from``) so the grandparent can
retract that relay's already-forwarded partial aggregates, and — because
the grandparent's epoch differs — replays its entire write-ahead spool.
Nothing is lost and, thanks to the retraction, nothing double-counts.

All public methods are thread-safe: in stream mode the runtime calls
:meth:`push` from every instrumented application thread, and a single
internal lock serialises buffering, delivery, and the socket protocol.
"""

from __future__ import annotations

import os
import random
import socket
import tempfile
import threading
import time
import uuid
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Union

from ..aggregate.db import AggregationDB
from ..aggregate.scheme import AggregationScheme
from ..common.errors import ReproError
from ..common.record import Record
from ..io.colfile import ColfileReader, ColfileWriter
from .protocol import (
    CAP_BINARY,
    FLAG_BINARY,
    MAX_PAYLOAD,
    MessageType,
    ProtocolError,
    Truncated,
    encode_binary_body,
    read_message,
    states_to_binary,
    write_frame,
    write_message,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..aggregate.table import StateTable
    from ..query.engine import QueryResult

__all__ = ["FlushClient", "live_query"]


class _Fatal(ReproError):
    """A server refusal that retrying cannot fix (e.g. scheme mismatch)."""


class _Busy(ReproError):
    """The server shed a batch under admission control (BUSY frame).

    The batch was *not* folded and *not* dedup-marked, so redelivering the
    spooled copy after ``retry_after`` seconds is exactly-once safe.
    """

    def __init__(self, seq: int, retry_after: float) -> None:
        super().__init__(
            f"server busy: batch {seq} shed, retry after {retry_after:.3g}s"
        )
        self.seq = seq
        self.retry_after = retry_after


class FlushClient:
    """Batching, spooling, replaying transport to an aggregation server.

    >>> client = FlushClient("127.0.0.1", 9100, batch_size=500)  # doctest: +SKIP
    >>> for record in snapshots:                                  # doctest: +SKIP
    ...     client.push(record)
    >>> client.flush(); client.close()                            # doctest: +SKIP
    """

    def __init__(
        self,
        host: str,
        port: int,
        scheme: Union[AggregationScheme, str, None] = None,
        client_id: Optional[str] = None,
        batch_size: int = 256,
        timeout: float = 5.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        spool_dir: Optional[str] = None,
        max_payload: int = MAX_PAYLOAD,
        failover_after: Optional[float] = None,
        token: Optional[str] = None,
        busy_retries: int = 10,
        on_server_info: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.host = host
        self.port = port
        self.scheme_text = (
            scheme.describe() if isinstance(scheme, AggregationScheme) else scheme
        )
        self.client_id = client_id or uuid.uuid4().hex
        #: this instance's sequence stream: a restart under the same
        #: ``client_id`` counts from seq 0 again, as a new stream
        self.stream_id = uuid.uuid4().hex
        self.batch_size = batch_size
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.backoff_max = backoff_max
        #: consecutive BUSY (shed) replies tolerated before giving up a
        #: delivery pass and leaving the batches spooled; resets on any ACK
        self.busy_retries = max(0, busy_retries)
        #: tenant auth token presented in HELLO (multi-tenant servers)
        self.token = token
        self.max_payload = max_payload
        #: full-jitter backoff draws from here; per-client so thousands of
        #: clients reconnecting after one server restart fan out instead of
        #: thundering back in lock-step
        self._rng = random.Random()
        if spool_dir is None:
            self.spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
        else:
            # Shared spool dirs are namespaced per client instance: batch
            # files are keyed only by this instance's sequence counter and
            # would otherwise overwrite another instance's write-ahead batches.
            self.spool_dir = os.path.join(spool_dir, f"{self.client_id}.{self.stream_id}")
        os.makedirs(self.spool_dir, exist_ok=True)

        #: serialises buffering, delivery, and the socket protocol — stream
        #: mode pushes from every instrumented application thread.
        self._lock = threading.RLock()
        self._buffer: list[Record] = []
        self._next_seq = 0
        #: seq -> (kind, spool path); not yet acknowledged in the current epoch
        self._pending: dict[int, tuple[str, str]] = {}
        #: seq -> (kind, spool path); acknowledged by the current epoch
        self._acked: dict[int, tuple[str, str]] = {}
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._epoch: Optional[str] = None
        self._closed = False

        #: seconds of continuous unreachability before re-parenting to the
        #: server's advertised upstream (None = never fail over)
        self.failover_after = failover_after
        #: the most recent HELLO_ACK body (epoch, shards, level, upstream…)
        self.server_info: dict = {}
        #: invoked with the HELLO_ACK body after every (re)connect — the
        #: network flush service uses it to adopt a server-advertised
        #: sampling budget (``sampling_budget_ns``) into the local channel
        self.on_server_info = on_server_info
        self._failover_target: Optional[tuple[str, int]] = None
        self._failover_source: Optional[tuple[str, str]] = None
        self._announce_failover: Optional[tuple[str, str]] = None
        self._down_since: Optional[float] = None

        #: delivery counters (batches spooled / acked / replayed, reconnects…)
        self.counters = {
            "records": 0,
            "batches": 0,
            "acked": 0,
            "spilled": 0,
            "replayed": 0,
            "reconnects": 0,
            "epoch_changes": 0,
            "failovers": 0,
            "wire_bytes": 0,
            "busy": 0,
        }

    def _retry_delay(self, attempt: int, retry_after: Optional[float] = None) -> float:
        """Full-jitter backoff (AWS-style): uniform over [0, capped exp).

        Plain exponential backoff synchronises every client that observed
        the same failure — after a server restart thousands reconnect in
        the same few milliseconds, knocking it over again.  Drawing the
        whole delay uniformly spreads the herd across the window.  When the
        server named a ``retry_after`` (BUSY shed), that is the floor and
        the jitter rides on top.
        """
        cap = min(self.backoff * (2 ** max(attempt - 1, 0)), self.backoff_max)
        jitter = self._rng.uniform(0.0, cap)
        if retry_after is not None:
            return float(retry_after) + jitter
        return jitter

    # -- streaming interface ------------------------------------------------------

    def push(self, record: Record) -> None:
        """Buffer one record; ships automatically at ``batch_size``."""
        with self._lock:
            self._check_open()
            self._buffer.append(record)
            if len(self._buffer) >= self.batch_size:
                self._ship_buffer()

    def push_all(self, records: Iterable[Record]) -> None:
        for record in records:
            self.push(record)

    def send_records(self, records: Iterable[Record]) -> bool:
        """Buffer and ship ``records``; True if nothing is left spooled."""
        self.push_all(records)
        return self.flush()

    def flush(self) -> bool:
        """Ship the partial buffer and retry everything spooled.

        Returns True when every batch so far has been acknowledged by the
        current server epoch — False means data is safely spooled but the
        server is (still) unreachable.
        """
        with self._lock:
            self._check_open()
            if self._buffer:
                self._ship_buffer()
            else:
                self._deliver_pending()
            if not self._pending:
                self._probe_epoch()
            return not self._pending

    def _probe_epoch(self) -> None:
        """Verify acknowledged batches still live in the current server epoch.

        With nothing pending, delivery alone never touches the network — a
        server that crashed *after* acknowledging everything would go
        unnoticed and its state silently lost.  So when there are acked
        batches, make one cheap round-trip; a dead socket (or a fresh
        handshake finding a new epoch) re-pends the acked batches, which are
        then redelivered from the write-ahead spool.
        """
        if not self._acked:
            return
        try:
            if self._sock is not None:
                write_message(self._wfile, MessageType.STATS, {})
                reply, _body = read_message(self._rfile, self.max_payload)
                if reply is MessageType.RESULT:
                    return
                raise ProtocolError(f"expected RESULT, got {reply.name}")
            self._ensure_connected()  # handshake performs the epoch check
        except (OSError, EOFError, ProtocolError, ReproError):
            self._disconnect()
            try:
                self._ensure_connected()
            except (OSError, EOFError, ProtocolError, ReproError):
                return  # still unreachable; the spool keeps everything
        if self._pending:
            self._deliver_pending()

    def send_states(self, db: AggregationDB) -> bool:
        """Ship a pre-aggregated partial database (groups, not records).

        The wire unit of PF-OLA-style distributed aggregation: payload size
        is proportional to the number of *keys* in ``db``, not the records
        folded into it.  The database is exported as-is; the caller decides
        when to :meth:`AggregationDB.clear` it.
        """
        body = {
            "scheme": db.scheme.describe(),
            "offered": db.num_offered,
            "processed": db.num_processed,
        }
        return self._spool_and_deliver(
            MessageType.STATES, body, states_to_binary(db.export_states())
        )

    def send_forward(
        self,
        table: "StateTable",
        *,
        origin: tuple[str, str],
        from_epoch: str,
        level: int = -1,
        telemetry: Optional[list[dict]] = None,
        scheme: Optional[str] = None,
        watermark: Optional[float] = None,
    ) -> bool:
        """Ship a reduction-tree FORWARD delta.

        The relay-to-parent transport unit: ``table`` is the partial state
        (encoded straight from its columns, its stream counters in the
        body), ``origin``
        identifies whose partial aggregates these are (``(id, epoch)`` of
        the server incarnation that first aggregated them — preserved
        unchanged when a mid-tree relay passes a descendant's delta
        through), and ``from_epoch`` is the *sending* server's epoch so a
        parent can fence deltas from an incarnation it has declared dead.
        Spooled, retried, and replayed exactly like any other batch.
        """
        body = {
            "scheme": scheme or self.scheme_text,
            "origin": list(origin),
            "from_epoch": from_epoch,
            "level": level,
            "offered": table.num_offered,
            "processed": table.num_processed,
        }
        if telemetry:
            body["telemetry"] = telemetry
        if watermark is not None:
            # Windowed streaming: the sender's event-time watermark rides the
            # delta that contains every record below it (see forward_now).
            body["watermark"] = float(watermark)
        return self._spool_and_deliver(MessageType.FORWARD, body, table.to_binary())

    def send_retract(
        self, origins: Iterable[tuple[str, str]], *, from_epoch: str
    ) -> bool:
        """Tell the parent to drop previously forwarded origins.

        Sent when a downstream relay has been declared dead and its
        children re-parented here: everything that relay's incarnation ever
        forwarded is being re-delivered first-hand, so the parent must
        retract its copies (and propagate the retraction further up) before
        the re-forwarded data arrives.  Ordering is guaranteed by the
        sequence stream: the retract takes a sequence number now, ahead of
        any subsequently forwarded batch.
        """
        body = {
            "origins": [list(o) for o in origins],
            "from_epoch": from_epoch,
        }
        return self._spool_and_deliver(MessageType.RETRACT, body)

    def _spool_and_deliver(
        self, mtype: MessageType, body: dict, groups: Optional[bytes] = None
    ) -> bool:
        """Encode a batch's frame once, write-ahead spool it, try to deliver.

        ``groups`` (an encoded state batch) becomes the frame's binary
        ``groups`` section; without it the frame is a plain JSON control
        message.
        """
        with self._lock:
            self._check_open()
            seq = self._next_seq
            self._next_seq += 1
            body["seq"] = seq
            kind = mtype.name.lower()
            path = os.path.join(self.spool_dir, f"batch-{seq:08d}.{kind}.frame")
            with open(path, "wb") as stream:
                if groups is None:
                    write_message(stream, mtype, body)
                else:
                    payload = encode_binary_body(body, {"groups": groups})
                    write_frame(stream, mtype, payload, flags=FLAG_BINARY)
            self._pending[seq] = (kind, path)
            self.counters["batches"] += 1
            self._deliver_pending()
            return not self._pending

    @property
    def num_spooled(self) -> int:
        """Batches currently awaiting (re)delivery."""
        return len(self._pending)

    # -- batch lifecycle ---------------------------------------------------------

    def _ship_buffer(self) -> None:
        records, self._buffer = self._buffer, []
        seq = self._next_seq
        self._next_seq += 1
        path = os.path.join(self.spool_dir, f"batch-{seq:08d}.rcf")
        # Write-ahead: the batch is on disk before the first send attempt.
        # One chunk per segment whatever batch_size is: the chunk is the
        # frame's ``records`` section, shipped from the file undecoded.
        with ColfileWriter(path) as writer:
            writer.write_chunk(records)
        self._pending[seq] = ("records", path)
        self.counters["records"] += len(records)
        self.counters["batches"] += 1
        self._deliver_pending()

    def _deliver_pending(self) -> bool:
        """Try to deliver every pending batch, oldest first."""
        if not self._pending:
            return True
        attempt = 0
        busy_left = self.busy_retries
        while True:
            try:
                self._ensure_connected()
                for seq in sorted(self._pending):
                    kind, path = self._pending[seq]
                    self._send_one(seq, kind, path)
                    self._acked[seq] = self._pending.pop(seq)
                    self.counters["acked"] += 1
                    busy_left = self.busy_retries
                return True
            except _Busy as busy:
                # Admission control: the server shed this batch (not folded,
                # not dedup-marked).  The connection is healthy — stay on
                # it, honor the server's retry-after (plus jitter so a
                # shedding server is not re-stormed), redeliver from the
                # spool.  A persistently busy server eventually exhausts
                # the budget and the batches stay safely spooled.
                self.counters["busy"] += 1
                busy_left -= 1
                if busy_left < 0:
                    self.counters["spilled"] += len(self._pending)
                    return False
                time.sleep(self._retry_delay(1, retry_after=busy.retry_after))
            except _Fatal:
                raise
            except (OSError, EOFError, Truncated):
                # Connection refused / reset / closed mid-frame: back off,
                # retry, and finally leave the batches spooled.
                self._disconnect()
                if self._down_since is None:
                    self._down_since = time.monotonic()
                attempt += 1
                if attempt > self.retries:
                    if self._maybe_failover():
                        attempt = 0
                        continue
                    self.counters["spilled"] += len(self._pending)
                    return False
                time.sleep(self._retry_delay(attempt))
            except (ProtocolError, ReproError):
                # The server answered but refused — don't hammer it.
                self._disconnect()
                raise

    # -- failover (tree re-parenting) ---------------------------------------------

    def _maybe_failover(self) -> bool:
        """Re-parent to the advertised upstream if the failure window expired.

        Returns True when the client switched targets (the caller should
        retry delivery against the new parent).
        """
        if (
            self.failover_after is None
            or self._failover_target is None
            or self._down_since is None
            or time.monotonic() - self._down_since < self.failover_after
        ):
            return False
        host, port = self._failover_target
        if (host, port) == (self.host, self.port):
            return False
        # Announce the dead relay in the next HELLO so the new parent can
        # retract what that incarnation already forwarded; our own spool
        # replay (triggered by the epoch change) re-delivers everything.
        self._announce_failover = self._failover_source
        self.host, self.port = host, port
        self._failover_target = None
        self._failover_source = None
        self._down_since = None
        self.counters["failovers"] += 1
        return True

    def _send_one(self, seq: int, kind: str, path: str) -> None:
        if kind == "records":
            reader = ColfileReader(path)
            try:
                if reader.num_chunks != 1:
                    raise ReproError(f"{path}: spool segment must hold one chunk")
                payload = encode_binary_body(
                    {"seq": seq, "count": reader.num_records},
                    {"records": reader.chunk_bytes(0)},
                )
            finally:
                reader.close()
            self.counters["wire_bytes"] += write_frame(
                self._wfile, MessageType.RECORDS, payload, flags=FLAG_BINARY
            )
        else:
            with open(path, "rb") as stream:
                frame = stream.read()
            self._wfile.write(frame)
            self._wfile.flush()
            self.counters["wire_bytes"] += len(frame)
        reply, ack = read_message(self._rfile, self.max_payload)
        if reply is MessageType.ERROR:
            raise _Fatal(f"server refused batch {seq}: {ack.get('reason')}")
        if reply is MessageType.BUSY:
            raise _Busy(seq, float(ack.get("retry_after", 0.0) or 0.0))
        if reply is not MessageType.ACK or ack.get("seq") != seq:
            raise ProtocolError(f"expected ACK for seq {seq}, got {reply.name} {ack}")
        if ack.get("duplicate"):
            self.counters["replayed"] += 1

    # -- connection management ----------------------------------------------------

    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        try:
            hello = {"client": self.client_id, "stream": self.stream_id, "caps": [CAP_BINARY]}
            if self.scheme_text is not None:
                hello["scheme"] = self.scheme_text
            if self.token is not None:
                hello["token"] = self.token
            if self._announce_failover is not None:
                hello["failover_from"] = list(self._announce_failover)
            write_message(wfile, MessageType.HELLO, hello)
            mtype, body = read_message(rfile, self.max_payload)
        except Exception:
            _close_all(sock, rfile, wfile)
            raise
        if mtype is MessageType.ERROR:
            _close_all(sock, rfile, wfile)
            raise _Fatal(f"server rejected handshake: {body.get('reason')}")
        if mtype is not MessageType.HELLO_ACK:
            _close_all(sock, rfile, wfile)
            raise ProtocolError(f"expected HELLO_ACK, got {mtype.name}")
        epoch = str(body.get("epoch", ""))
        if self._epoch is not None and epoch != self._epoch:
            # Server restarted: everything it acknowledged died with it.
            # Move acked batches back to pending; the spool still has them.
            self._pending.update(self._acked)
            self._acked.clear()
            self.counters["epoch_changes"] += 1
        self._epoch = epoch
        self._announce_failover = None
        self._down_since = None
        self.server_info = dict(body)
        if self.on_server_info is not None:
            try:
                self.on_server_info(self.server_info)
            except Exception:
                # An observer bug must never poison connection setup: the
                # socket is healthy, delivery proceeds regardless.
                pass
        # Remember this server's identity and its advertised upstream so a
        # later failure window can re-parent us to the grandparent.
        upstream = body.get("upstream")
        relay_id = body.get("relay_id")
        if (
            isinstance(upstream, (list, tuple))
            and len(upstream) == 2
            and isinstance(relay_id, str)
        ):
            self._failover_target = (str(upstream[0]), int(upstream[1]))
            self._failover_source = (relay_id, epoch)
        else:
            self._failover_target = None
            self._failover_source = None
        self._sock, self._rfile, self._wfile = sock, rfile, wfile
        self.counters["reconnects"] += 1

    def _disconnect(self) -> None:
        sock, self._sock = self._sock, None
        rfile, self._rfile = self._rfile, None
        wfile, self._wfile = self._wfile, None
        if sock is not None:
            _close_all(sock, rfile, wfile)

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # -- request/response --------------------------------------------------------

    def _request(self, mtype: MessageType, body: dict) -> dict:
        """One request expecting a RESULT, with the delivery retry loop."""
        attempt = 0
        while True:
            try:
                self._ensure_connected()
                if not self._deliver_pending():
                    raise OSError("spooled batches not yet delivered")
                write_message(self._wfile, mtype, body)
                reply, payload = read_message(self._rfile, self.max_payload)
                if reply is MessageType.ERROR:
                    raise _Fatal(f"server error: {payload.get('reason')}")
                if reply is not MessageType.RESULT:
                    raise ProtocolError(f"expected RESULT, got {reply.name}")
                return payload
            except _Fatal:
                raise
            except (OSError, EOFError, Truncated):
                self._disconnect()
                attempt += 1
                if attempt > self.retries:
                    raise ReproError(
                        f"aggregation server at {self.host}:{self.port} unreachable"
                    ) from None
                time.sleep(self._retry_delay(attempt))

    def drain(self) -> list[Record]:
        """Flush everything, then fetch the merged aggregation results."""
        with self._lock:
            self._check_open()
            if self._buffer:
                self._ship_buffer()
            payload = self._request(MessageType.DRAIN, {})
            return _result_records(payload)

    def query(self, text: str, target: str = "aggregate") -> "QueryResult":
        """Run a live CalQL query against the server's in-flight state."""
        with self._lock:
            self._check_open()
            payload = self._request(MessageType.QUERY, {"q": text, "target": target})
            return _result_to_query_result(payload)

    def stats_records(self) -> list[Record]:
        """The server's telemetry as CalQL-queryable records."""
        with self._lock:
            self._check_open()
            return _result_records(self._request(MessageType.STATS, {}))

    # -- teardown ------------------------------------------------------------------

    def close(self, delete_spool: bool = True) -> None:
        """Flush best-effort, say goodbye, and drop *acknowledged* spool files.

        Batches the current server epoch has acknowledged are safe on the
        server, so their write-ahead copies are deleted (``delete_spool=False``
        keeps them for inspection).  Batches still pending — the server was
        unreachable — are **never** deleted: the spool is the only copy of
        that data, and it stays on disk for out-of-band recovery.
        """
        with self._lock:
            if self._closed:
                return
            try:
                if self._buffer:
                    self._ship_buffer()
                else:
                    self._deliver_pending()
            except ReproError:
                pass
            if self._wfile is not None:
                try:
                    write_message(self._wfile, MessageType.BYE, {})
                except (OSError, ValueError):
                    pass
            self._disconnect()
            self._closed = True
            if delete_spool:
                for _, path in self._acked.values():
                    _unlink_quietly(path)
                try:
                    os.rmdir(self.spool_dir)  # succeeds only when empty
                except OSError:
                    pass

    def abort(self) -> None:
        """Abrupt teardown for fault injection: no flush, no BYE, keep spool.

        Marks the client closed *before* dropping the socket so a delivery
        loop racing on another thread cannot reconnect and resurrect the
        session — the observable behaviour of a killed relay process.
        """
        with self._lock:
            self._closed = True
            self._disconnect()

    def __enter__(self) -> "FlushClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("flush client is closed")

    def __repr__(self) -> str:
        return (
            f"FlushClient({self.host}:{self.port}, batches={self.counters['batches']}, "
            f"pending={len(self._pending)})"
        )


# -- one-shot helpers ------------------------------------------------------------


def _result_records(payload: dict) -> list[Record]:
    from .protocol import records_from_wire

    return records_from_wire(payload.get("records", []))


def _result_to_query_result(payload: dict) -> "QueryResult":
    from ..query.engine import QueryResult  # deferred: query sits above net

    return QueryResult(
        _result_records(payload),
        payload.get("columns") or (),
        payload.get("format"),
    )


def live_query(
    host: str,
    port: int,
    text: str,
    target: str = "aggregate",
    timeout: float = 10.0,
    token: Optional[str] = None,
) -> "QueryResult":
    """One-shot live query: connect, ask, disconnect.

    Runs ``text`` against a consistent merged snapshot of the server's
    in-flight shards without interrupting ingestion (the ``repro-query
    live`` command is a thin wrapper over this).  ``token`` scopes the
    query to that tenant's namespace on a multi-tenant server.
    """
    client = FlushClient(host, port, timeout=timeout, retries=0, token=token)
    try:
        return client.query(text, target=target)
    finally:
        client.close()


def _close_all(sock, rfile, wfile) -> None:
    for closable in (rfile, wfile):
        if closable is not None:
            try:
                closable.close()
            except (OSError, ValueError):
                pass
    try:
        sock.close()
    except OSError:
        pass


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
