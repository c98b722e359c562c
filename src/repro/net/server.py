"""The sharded on-line aggregation server.

:class:`AggregationServer` is the paper's on-line aggregation service
(Section IV-B) turned into a long-running TCP daemon: producer processes
stream snapshot-record batches (or pre-aggregated partial states) over the
:mod:`~repro.net.protocol` framing, and the server folds them into N
*shards*, combines partial states up a relay tree, and answers live CalQL
queries over a consistent merged snapshot *without stopping ingestion*.

Data flow::

    client conn ─decode─► admission ─► hash-route by key ─► shard queue ─► shard DB
                          (dedup, quota, BUSY)              (bounded: backpressure)

The server only composes five planes — :mod:`~repro.net.connection`,
:mod:`~repro.net.admission`, :mod:`~repro.net.shards`,
:mod:`~repro.net.relay` and :class:`~repro.window.db.WindowFront` — each
constructible and testable without a socket, joined by the handler seam
``(mtype, body, sections) -> (mtype, body)``.  Which module owns which
state, which lock guards it and the lock order are in
``docs/architecture.md``.

Telemetry: the server keeps its own always-on
:class:`~repro.observe.MetricsRegistry` (connections, batches, bytes,
shard depths, merge times) and renders it as CalQL-queryable ``observe.*``
records — the same dogfooding contract as the runtime's ``--stats``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional, Union

import numpy as np

from ..aggregate.scheme import AggregationScheme
from ..aggregate.table import StateTable
from ..common.errors import ReproError
from ..common.record import Record
from ..common.variant import Variant
from ..io.colfile import ColumnStore, result_records
from ..observe import MetricsRegistry, to_records as _metrics_to_records
from ..window.assign import WINDOW_END
from ..window.db import WindowFront
from .admission import Admission, Refused, TenantQuota
from .connection import ConnectionPlane
from .protocol import (
    CAP_BINARY,
    MAX_PAYLOAD,
    MessageType,
    ProtocolError,
    origin_from_wire,
    records_to_wire,
    require,
    store_from_binary,
    table_from_binary,
)
from .relay import RelayPlane
from .shards import DEFAULT_TENANT, ShardPlane

__all__ = ["AggregationServer", "TenantQuota", "DEFAULT_TENANT"]


class AggregationServer:
    """An asyncio TCP daemon aggregating streamed snapshot records.

    >>> server = AggregationServer("AGGREGATE count GROUP BY kernel")
    >>> server.start()                                    # doctest: +SKIP
    >>> server.address                                    # doctest: +SKIP
    ('127.0.0.1', 49231)
    """

    def __init__(
        self,
        scheme: Union[AggregationScheme, str],
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 4,
        queue_depth: int = 128,
        max_payload: int = MAX_PAYLOAD,
        upstream: Union[tuple[str, int], str, None] = None,
        forward_interval: float = 0.5,
        failover_after: Optional[float] = None,
        relay_id: Optional[str] = None,
        level: Optional[int] = None,
        forward_spool_dir: Optional[str] = None,
        window=None,
        lateness: float = 0.0,
        time_attribute: Optional[str] = None,
        retire_interval: float = 0.0,
        confidence: float = 0.90,
        tenants: Optional[dict] = None,
        require_token: bool = False,
        admission_timeout: float = 1.0,
        busy_retry_after: float = 0.25,
        dedup_ttl: float = 900.0,
        backlog: int = 512,
        sampling_budget: Union[str, float, None] = None,
    ) -> None:
        #: advertised per-event overhead budget (ns): producers whose channel
        #: runs with ``sampling.budget=auto`` adopt it from the HELLO_ACK, so
        #: one serve-side flag tunes a whole fleet of clients.
        self.sampling_budget_ns: Optional[float] = None
        if sampling_budget is not None:
            from ..sampling.budget import parse_budget

            self.sampling_budget_ns = parse_budget(sampling_budget)
        if isinstance(scheme, str):
            from ..calql import parse_query  # deferred: calql builds on aggregate
            from ..calql.semantics import build_scheme

            query = parse_query(scheme)
            if window is None:
                # "GROUP BY k WINDOW tumbling(30s)" turns the server into a
                # windowed streaming aggregator directly from the scheme text.
                window = query.window
            scheme = build_scheme(query)
        if tenants and upstream is not None:
            raise ValueError("tenants are not supported in relay mode")
        if tenants and window is not None:
            raise ValueError("tenants are not supported on windowed servers")
        #: windowed streaming mode: the shards aggregate the front's
        #: *windowized* scheme.  Producers may still HELLO with the plain
        #: base scheme — they stream raw batches and this server stamps them.
        self._window: Optional[WindowFront] = None
        if window is not None:
            self._window = WindowFront(
                scheme, window, lateness=float(lateness),
                time_attribute=time_attribute, confidence=float(confidence),
            )
            scheme = self._window.scheme
        self.retire_interval = retire_interval
        self._retire_thread: Optional[threading.Thread] = None
        self.scheme = scheme
        self._accepted_schemes = {scheme.describe(), self.producer_scheme}
        self.host = host
        self.port = port
        #: cap on *decoded* binary payload size — the envelope may compress,
        #: so the frame-length check alone cannot bound allocation
        self.max_decoded = 4 * max_payload
        #: fresh random identity per server; clients use it to detect restarts
        self.epoch = os.urandom(8).hex()
        self.metrics = MetricsRegistry()
        self._started = False
        self._shards = ShardPlane(scheme, shards, queue_depth, self.metrics)
        self._admission = Admission(
            self._shards, dedup_ttl, tenants, require_token, admission_timeout, busy_retry_after
        )
        self._dedup = self._admission.dedup
        self._relay = RelayPlane(
            self._shards, self._dedup, self._window, self.epoch, upstream,
            forward_interval, failover_after, relay_id, level, forward_spool_dir,
        )
        self._conn = ConnectionPlane(
            host, port, backlog, max_payload, self.max_decoded, self.metrics,
            hello=self._hello,
            handle=self._handle,
            goodbye=lambda session: self._admission.release(session[0]),
        )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "AggregationServer":
        """Bind, spawn the shard workers, and start the event loop."""
        if self._started:
            raise ReproError("server already started")
        self.port = self._conn.bind()
        self._shards.start()
        self._started = True
        try:
            self._conn.start()
        except Exception:
            self.stop()  # tear down what came up
            raise
        self.metrics.gauge("net.shards", len(self._shards))
        ttl = self._dedup.ttl
        if ttl:
            self._shards.every(max(0.05, min(ttl / 4.0, 30.0)), self._dedup.prune, "dedup")
        self._relay.start()
        if self._window is not None and not self._relay.is_relay:
            # Only the root retires: relays clear their shards every forward
            # cycle, so closed-window state never accumulates there.
            self._retire_thread = self._shards.every(
                self.retire_interval, self.retire_now, "retire"
            )
        return self

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` — the port is concrete once started (0 = ephemeral)."""
        return (self.host, self.port)

    @property
    def stopping(self) -> bool:
        """True once :meth:`stop` or :meth:`kill` has begun."""
        return self._shards.stopping.is_set()

    @property
    def windowed(self) -> bool:
        return self._window is not None

    @property
    def window_assigner(self):
        """The window assigner of a windowed server, else ``None``."""
        return self._window.assigner if self._window is not None else None

    @property
    def producer_scheme(self) -> str:
        """The scheme text record producers HELLO with: on a windowed server
        the base scheme (window keys and moment ops are added server-side)."""
        base = self._window.base_scheme if self._window is not None else self.scheme
        return base.describe()

    def __enter__(self) -> "AggregationServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful drain: stop accepting, finish queued work, join workers.

        Open connections are closed (clients see an orderly EOF and spool
        anything unacknowledged); every batch already enqueued is folded
        before the shard threads exit, so a subsequent
        :meth:`drain_results` observes all acknowledged data.  A relay then
        ships its residue upstream.
        """
        self._shards.stopping.set()
        self._conn.shutdown(graceful=True, timeout=timeout)
        self._shards.stop(timeout)
        if self._retire_thread is not None:
            self._retire_thread.join(timeout=timeout)
            self._retire_thread = None
        self._relay.stop(timeout)

    def kill(self) -> None:
        """Abrupt shutdown for fault-injection tests: drop every socket now.

        No drain, no goodbye frames — clients observe a reset mid-stream,
        exactly like a crashed server process.  Shard state is abandoned.
        """
        self._shards.stopping.set()
        self._conn.shutdown(graceful=False, timeout=5.0)
        self._shards.stop(None)
        self._relay.kill()

    def forward_now(self, final: bool = False) -> bool:
        """Run one relay forward cycle now (see :meth:`RelayPlane.forward_now`).

        Public so tests and drains can force a deterministic cycle.
        """
        return self._relay.forward_now(final)

    # -- the handler seam: (mtype, body, sections) -> (mtype, body) ------------------

    def _hello(self, body: dict) -> tuple[tuple, dict]:
        """HELLO: capability, auth and quota checks, then the ack.  On success
        the tenant's connection slot is taken; ``goodbye`` gives it back.
        The session's dedup stream is the client instance's ``stream`` id."""
        client_id = str(require(body, "client", (str,)))
        stream = str(require(body, "stream", (str,)))
        client_caps = body.get("caps")
        if not isinstance(client_caps, list) or CAP_BINARY not in client_caps:
            raise Refused(
                f"this server requires the {CAP_BINARY!r} capability in HELLO caps",
                code="caps",
            )
        tenant = self._admission.connect(body.get("token"))
        try:
            client_scheme = body.get("scheme")
            if client_scheme is not None:
                self._check_scheme(str(client_scheme))
            failover_from = body.get("failover_from")
            if failover_from is not None:
                # The client re-parented here after its relay died: fence
                # that incarnation and drop everything it forwarded — the
                # client's spool replay is about to re-deliver all of it
                # first-hand.
                self._relay.retract_sender(origin_from_wire(failover_from))
            ack = {
                "epoch": self.epoch,
                "shards": len(self._shards),
                "scheme": self.scheme.describe(),
                "level": self._relay.level,
                "caps": [CAP_BINARY],
            }
            if tenant.name != DEFAULT_TENANT:
                ack["tenant"] = tenant.name
            if self.sampling_budget_ns is not None:
                ack["sampling_budget_ns"] = self.sampling_budget_ns
            if self._relay.is_relay:
                # Advertise our own parent so children can re-parent to
                # their grandparent if we die (the root advertises nothing:
                # there is no level above it to fail over to).
                ack["relay_id"] = self._relay.forward_id
                ack["upstream"] = list(self._relay.upstream)
        except BaseException:
            self._admission.release(tenant)
            raise
        return (tenant, client_id, stream), ack

    async def _handle(self, session, mtype, body: dict, sections: dict):
        """One frame of an established session; ``None`` ends it (BYE).

        Data frames are admitted on the event loop.  Everything else may
        block (relay folds take the relay lock, queries and drains run shard
        barriers) and hops to the executor so the loop keeps absorbing reads.
        """
        tenant, client_id, stream = session
        if mtype is MessageType.RECORDS:
            return await self._on_records(tenant, client_id, stream, body, sections)
        if mtype is MessageType.STATES:
            return await self._on_states(tenant, client_id, stream, body, sections)
        if mtype is MessageType.BYE:
            # The client session is over and its replay window with it:
            # drop its dedup entry so unbounded client churn (one-shot
            # producers, live_query probes) cannot grow the map forever.
            self._dedup.forget(tenant.dedup_key(client_id), stream)
            return None
        return await self._conn.offload(self._handle_blocking, session, mtype, body, sections)

    def _handle_blocking(self, session, mtype, body: dict, sections: dict):
        tenant, client_id, stream = session
        if mtype is MessageType.FORWARD:
            table = self._decode_states(body, sections)
            return self._relay.on_forward(client_id, body, table, stream)
        if mtype is MessageType.RETRACT:
            return self._relay.on_retract(client_id, body, stream)
        if mtype is MessageType.QUERY:
            text = str(require(body, "q", (str,)))
            target = str(body.get("target", "aggregate"))
            result = self.run_query(text, target, tenant=tenant.name)
            return _result_frame(result.records, result.preferred_columns, result.format)
        if mtype is MessageType.STATS:
            return _result_frame(self.stats_records(), [], None)
        if mtype is MessageType.DRAIN:
            records = self.drain_results(tenant=tenant.name)
            return _result_frame(records, self.scheme.output_labels, None)
        raise ProtocolError(f"unexpected {mtype.name} frame")

    async def _on_records(self, tenant, client_id: str, stream: str, body: dict, sections: dict):
        seq = int(require(body, "seq", (int,)))
        store = store_from_binary(_section(sections, "records"), self.max_decoded)

        def route() -> list:
            # The batch stays the column store the wire delivered: stamped as
            # columns under the front's lock, split by key hash, and each
            # shard worker folds its rows of it.  No Record is built here.
            batch, rows, window = store, None, self._window
            if window is not None:
                with window.lock:
                    batch, rows, late, untimed = window.stamp_store(client_id, store)
                if late:
                    self.metrics.count("window.late", late, what="records")
                if untimed:
                    self.metrics.count("window.untimed", untimed)
            return [
                (shard, ("store", tenant, batch, picked))
                for shard, picked in self._shards.route_store(batch, rows)
            ]

        # Windowed stamping already advanced the watermark, so a windowed
        # batch can no longer be shed — it waits for queue space instead.
        return await self._admission.admit(
            tenant, client_id, seq, "records", len(store), route,
            shed=self._window is None, stream=stream,
        )

    async def _on_states(self, tenant, client_id: str, stream: str, body: dict, sections: dict):
        seq = int(require(body, "seq", (int,)))
        table = self._decode_states(body, sections)

        def route() -> list:
            # The table's slots split by the same key hash as records.
            # Stream counters are global, not per-key; attribute them to the
            # first shard (or to shard 0 when the batch carries nothing
            # else) so totals stay exact after merging.
            routed = self._shards.route_store(table.key_store())
            if not routed and (table.num_offered or table.num_processed):
                routed = [(self._shards[0], np.zeros(0, dtype=np.int64))]
            return [
                (shard, ("states", tenant, table, rows, i == 0))
                for i, (shard, rows) in enumerate(routed)
            ]

        return await self._admission.admit(
            tenant, client_id, seq, "states", len(table), route, stream=stream
        )

    def _decode_states(self, body: dict, sections: dict) -> StateTable:
        """Decode a STATES/FORWARD frame's ``groups`` section into a state
        table carrying the frame's stream counters.

        Exported states are positional: the decoder checks the operator
        count, each state width and each cell's type against the scheme, so
        a malformed batch is refused here, at the connection boundary,
        rather than crash a shard worker.
        """
        self._check_scheme(str(require(body, "scheme", (str,))))
        table = table_from_binary(self.scheme, _section(sections, "groups"), self.max_decoded)
        table.num_offered = int(body.get("offered", 0))
        table.num_processed = int(body.get("processed", 0))
        return table

    def _check_scheme(self, text: str) -> None:
        from ..calql import parse_scheme

        try:
            theirs = parse_scheme(text)
        except ReproError as exc:
            raise ProtocolError(f"unparseable client scheme {text!r}: {exc}") from exc
        if theirs.describe() not in self._accepted_schemes:
            raise ProtocolError(
                f"scheme mismatch: server aggregates {self.scheme.describe()!r}, "
                f"client sent {theirs.describe()!r}"
            )

    # -- merged views ------------------------------------------------------------

    def _snapshot(self, tenant: str = DEFAULT_TENANT) -> list[StateTable]:
        """A consistent snapshot of one tenant: copies of its state tables.

        The barrier only ever copies that tenant's per-shard table, which
        makes cross-tenant reads structurally impossible rather than
        filtered.  Forwarded (reduction-tree) tables belong to the default
        namespace only: relay mode forbids tenants.
        """
        def copy(shard) -> Optional[StateTable]:
            table = shard.tables.get(tenant)
            return None if table is None else table.copy()

        tables = [table for table in self._shards.call(copy) if table is not None]
        if tenant == DEFAULT_TENANT:
            tables += self._relay.snapshot()
        return tables

    def _merged(self, tables: list[StateTable]) -> StateTable:
        """The copies merged, in order, into the first of them."""
        merged = tables[0] if tables else StateTable(self.scheme)
        for table in tables[1:]:
            merged.merge(table)
        return merged

    def merged_db(self, tenant: str = DEFAULT_TENANT) -> StateTable:
        """A consistent merge of all shards into one state table (ingestion
        keeps running): stream counters, ``num_entries``, ``flush()``."""
        start = time.perf_counter()
        merged = self._merged(self._snapshot(tenant))
        if self._window is not None:
            # Retired windows were popped out of the shards; totals must
            # still include them.
            with self._window.lock:
                merged.merge(self._window.retired)
        self.metrics.timing("net.merge", time.perf_counter() - start)
        return merged

    def _rendered(self, tenant: str = DEFAULT_TENANT) -> ColumnStore:
        """The merged state's output rows as a store (``StateTable.render``):
        what a live query's second stage reads, with no ``Record`` built."""
        merged = self.merged_db(tenant=tenant)
        start = time.perf_counter()
        store = merged.render()
        self.metrics.timing("net.render", time.perf_counter() - start)
        return store

    def drain_results(self, tenant: str = DEFAULT_TENANT) -> list[Record]:
        """Output records over everything ingested so far."""
        return result_records(self._rendered(tenant=tenant))

    # -- windowed streaming: watermarks, retirement, estimates --------------------

    def _windowed(self, what: str) -> WindowFront:
        if self._window is None:
            raise ReproError(f"{what} requires a windowed server")
        return self._window

    def watermark(self) -> Optional[float]:
        """The current global event-time watermark (None before any event)."""
        if self._window is None:
            return None
        with self._window.lock:
            return self._window.watermark()

    def retire_now(self) -> list[Record]:
        """Finalize every window closed below the current watermark.

        Pops closed windows' state out of the shards and the forwarded
        per-origin tables, merges it into the retired-results table, and returns
        the newly retired windows' final records.  Only meaningful at the
        tree root: relays clear their shards every forward cycle, so their
        windows retire upstream.

        Exactness across retirement: a window retires only once the
        min-over-active-senders watermark passes its end, which (with the
        forward cycle's capture-then-export ordering and the per-sender FIFO
        spool) means every record below that end has been folded here.  Any
        record for a retired window that shows up later — a genuinely late
        event, or a spool replay after a mid-tree failover whose data is
        already inside the retired result — has an event time below the
        watermark and is dropped as late by the window front's ``stamp`` /
        the relay plane's ``on_forward``.
        """
        window = self._windowed("retire_now()")
        if self._relay.is_relay:
            raise ReproError("relays do not retire windows; query the root")
        mark = self.watermark()
        if mark is None:
            return []
        # On each worker in queue order, so every batch acknowledged before
        # the barrier is inside the popped state.
        tables = self._shards.call(lambda shard: shard.table.pop(WINDOW_END, mark))
        tables += self._relay.pop_closed(mark)
        with window.lock:
            records = window.finalize(mark, tables)
        if records:
            windows = {(r.get("window.start").value, r.get("window.end").value) for r in records}
            self.metrics.count("window.retired", len(windows))
        return records

    def retired_results(self) -> list[Record]:
        """Final records for every window retired so far."""
        window = self._windowed("retired_results()")
        with window.lock:
            return window.retired_results()

    def estimate_results(self) -> list[Record]:
        """Open windows' partial aggregates plus confidence intervals.

        A consistent snapshot of the open-window state (shards + forwarded
        tables, *excluding* retired windows) rendered through the PF-OLA
        estimator: every record carries ``est#...``/``est.lo#...``/
        ``est.hi#...`` columns plus ``est.fraction`` and ``est.samples``.
        """
        window = self._windowed("estimate_results()")
        merged = self._merged(self._snapshot())
        return window.estimator.estimate_records(merged, self.watermark())

    def run_query(
        self, text: str, target: str = "aggregate", tenant: str = DEFAULT_TENANT
    ):
        """Run CalQL against the live merged state (or the telemetry).

        ``target="aggregate"`` queries the rendered output of a consistent
        merged snapshot (:meth:`_rendered`, read as columns) — the two-stage
        workflow of Section VI-B with the first stage still running.
        ``target="telemetry"`` queries the server's own ``observe.*`` metric
        records instead.  Windowed servers
        add ``target="estimate"`` (open windows with confidence intervals)
        and ``target="retired"`` (finalized windows only).
        """
        from ..query.engine import QueryEngine  # deferred: query sits above net

        start = time.perf_counter()
        if target == "telemetry":
            source = self.stats_records()
        elif target == "aggregate":
            source = self._rendered(tenant=tenant)
        elif target == "estimate":
            source = self.estimate_results()
        elif target == "retired":
            source = self.retired_results()
        else:
            raise ProtocolError(f"unknown query target {target!r}")
        result = QueryEngine(text).run(source)
        self.metrics.timing("net.query", time.perf_counter() - start, target=target)
        self.metrics.count("net.queries", target=target)
        return result

    # -- telemetry ---------------------------------------------------------------

    def stats_records(self) -> list[Record]:
        """Server telemetry as CalQL-queryable ``observe.*`` records."""
        shards = self._shards
        for shard in shards:
            self.metrics.gauge("net.shard.depth", shard.queue.qsize(), shard=shard.index)
            self.metrics.gauge("net.shard.entries", len(shard.table), shard=shard.index)
        self._admission.publish_gauges()
        for name, threads in self._threads().items():
            seconds = [cpu for cpu in map(_thread_cpu_seconds, threads) if cpu is not None]
            if seconds:
                self.metrics.gauge("net.thread.cpu_seconds", sum(seconds), thread=name)
        records = _metrics_to_records(self.metrics)
        summary = {
            "observe.kind": Variant.of("server"),
            "observe.epoch": Variant.of(self.epoch),
            "observe.shards": Variant.of(len(shards)),
            "observe.scheme": Variant.of(self.scheme.describe()),
            "observe.entries": Variant.of(shards.entries()),
            "observe.batches": Variant.of(sum(s.num_batches for s in shards)),
        }
        window = self._window
        if window is not None:
            with window.lock:
                mark = window.watermark()
                summary["observe.window.late"] = Variant.of(window.num_late)
                summary["observe.window.retired"] = Variant.of(window.retired.num_entries)
            if mark is not None:
                summary["observe.window.watermark"] = Variant.of(mark)
        records.append(Record.from_variants(summary))
        return records + self._relay.tree_records()

    def _threads(self) -> dict[str, list]:
        """The server's own threads by role: ``loop``, ``blocking`` (the
        executor pool), ``forward`` and one ``shard-N`` per shard."""
        threads = dict(self._conn.threads)
        threads["forward"] = [self._relay.forward_thread]
        for shard in self._shards:
            threads[f"shard-{shard.index}"] = [shard.thread]
        return threads

    def __repr__(self) -> str:
        return (
            f"AggregationServer({self.scheme.describe()!r}, "
            f"addr={self.address}, shards={len(self._shards)})"
        )


def _thread_cpu_seconds(thread: Optional[threading.Thread]) -> Optional[float]:
    """CPU seconds ``thread`` has burned so far, read from outside it — the
    thread itself pays nothing.  ``None`` for a thread that is not running
    and on a platform without per-thread CPU clocks."""
    if thread is None or not thread.is_alive():
        return None
    try:
        return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
    except (AttributeError, OSError):
        return None


def _result_frame(records, columns, fmt) -> tuple[MessageType, dict]:
    return (
        MessageType.RESULT,
        {"records": records_to_wire(records), "columns": list(columns), "format": fmt},
    )


def _section(sections: dict, name: str):
    try:
        return sections[name]
    except KeyError:
        raise ProtocolError(f"frame carries no {name!r} binary section") from None
