"""The sharded on-line aggregation server.

:class:`AggregationServer` is the paper's on-line aggregation service
(Section IV-B) turned into a long-running TCP daemon: producer processes
stream snapshot-record batches (or pre-aggregated partial states) over the
:mod:`~repro.net.protocol` framing, and the server folds them into N
*shards* — one :class:`~repro.aggregate.db.AggregationDB` plus one worker
thread each, so the per-record hot path takes no locks (the same design
that gives the runtime its per-thread databases, applied across the
network).

Data flow::

    client conn ──decode──► hash-route by key ──► shard queue ──► shard DB
                                                 (bounded: backpressure)

* **Routing** — each record's GROUP BY values are hashed with the
  process-stable FNV hash; identical keys always land in the same shard,
  so shard databases partition the key space and merge without overlap.
* **Backpressure** — shard queues are bounded; a batch that cannot be
  enqueued is not acknowledged (it waits, then is shed with ``BUSY``), so
  a fast client cannot outrun aggregation by more than
  ``shards × queue_depth`` batches.
* **Live queries** — a consistent merged snapshot is taken *without
  stopping ingestion*: an export barrier is enqueued on every shard, each
  worker exports its per-key states when it reaches the barrier (i.e.
  after everything acknowledged before the query), and the small state
  sets merge through :meth:`AggregationDB.load_states` into a throwaway
  DB whose flushed output the CalQL engine queries.
* **Exactly-once** — batches carry client-assigned sequence numbers; the
  server remembers the highest sequence folded per client *within this
  epoch* and acknowledges-but-skips duplicates, so a client replaying
  after a lost ACK cannot double-count.  Each server start draws a fresh
  random epoch id; a reconnecting client that sees a new epoch knows all
  previously acknowledged state is gone and replays its spool.
* **Relay mode** (``upstream=``) — the server becomes one interior node of
  a reduction tree (the paper's Fig. 6 MPI tree, over TCP): it folds
  incoming records and states into its shards exactly as above, but
  periodically exports the accumulated *delta*, clears the shards, and
  forwards the per-key partial states to its parent through a
  :class:`~repro.net.client.FlushClient` (write-ahead spooled, replayed,
  exactly-once).  FORWARD deltas from downstream relays are kept
  segregated per ``(sender, origin)`` and passed through with their
  origin intact, which is what makes *retraction* possible: when a relay
  dies, its children re-parent to this server (their grandparent),
  announce the dead incarnation, and this server drops everything that
  incarnation forwarded — the children's spool replay re-delivers all of
  it first-hand, so root totals stay exact through mid-tree failures.

* **Network plane** — a single event loop owns accept/read/write for
  *every* connection: frames are parsed incrementally off the stream
  buffer, no thread per socket, so the network plane scales to 10k+
  concurrent clients while the shard fold workers stay a (lock-free)
  thread pool fed through the same bounded queues.  Blocking request
  paths (QUERY/DRAIN/STATS, relay folds) hop to a small executor so the
  loop never stalls.
* **Payloads** — ``RECORDS``/``STATES``/``FORWARD`` carry ``colbin1``
  binary sections, always: a ``HELLO`` that does not offer the cap is
  refused (``code="caps"``) and a data frame without ``FLAG_BINARY`` is a
  protocol error.  Control frames and ``RESULT`` replies stay JSON.
* **Multi-tenancy** (``tenants=``) — per-tenant namespaces keyed by an
  auth token presented in HELLO.  Each tenant folds into its own
  per-shard :class:`~repro.aggregate.db.AggregationDB`, so cross-tenant
  queries can never observe each other's records; per-tenant quotas
  bound connections, queued batches, and DB entries.
* **Admission control** — when shard queues back up (or a tenant is over
  its queued-batch quota) the server answers ``BUSY`` with a
  ``retry_after`` instead of blocking the event loop; the batch is *not*
  folded and not dedup-marked, so the client's write-ahead spool replays
  it later — exactly-once semantics survive shedding.

Telemetry: the server keeps its own always-on
:class:`~repro.observe.MetricsRegistry` (connections, batches, bytes,
shard depths, merge times) and renders it as CalQL-queryable ``observe.*``
records — the same dogfooding contract as the runtime's ``--stats``.
"""

from __future__ import annotations

import asyncio
import os
import queue
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Union

from ..aggregate.db import AggregationDB
from ..aggregate.scheme import AggregationScheme
from ..common.errors import ReproError
from ..common.record import Record
from ..common.util import stable_hash64
from ..common.variant import Variant
from ..observe import MetricsRegistry, to_records as _metrics_to_records
from .protocol import (
    CAP_BINARY,
    FLAG_BINARY,
    HEADER,
    MAX_PAYLOAD,
    MessageType,
    ProtocolError,
    Truncated,
    busy_body,
    decode_binary_body,
    error_body,
    message_bytes,
    origin_from_wire,
    origins_from_wire,
    parse_body,
    parse_frame_header,
    records_from_binary,
    records_to_wire,
    require,
    states_from_binary,
)

__all__ = ["AggregationServer", "TenantQuota", "DEFAULT_TENANT"]

_KEY_SEP = "\x1f"

#: frame types whose payload must be a colbin1 binary envelope
_DATA_FRAMES = (MessageType.RECORDS, MessageType.STATES, MessageType.FORWARD)

#: the implicit namespace for token-less clients (quota-free by default)
DEFAULT_TENANT = "default"


class _Refused(ProtocolError):
    """A request refused by policy (auth / quota), not by malformed bytes.

    Carries a machine-readable ``code`` so the ERROR frame tells the client
    *why* — ``auth`` means fix your token, ``quota`` means this tenant hit a
    hard limit and retrying without intervention is pointless.
    """

    def __init__(self, message: str, code: str = "refused") -> None:
        super().__init__(message)
        self.code = code


class TenantQuota:
    """Per-tenant admission limits; ``0``/``None`` means unlimited."""

    __slots__ = ("max_connections", "max_queued", "max_entries")

    def __init__(
        self,
        max_connections: int = 0,
        max_queued: int = 0,
        max_entries: int = 0,
    ) -> None:
        self.max_connections = int(max_connections or 0)
        self.max_queued = int(max_queued or 0)
        self.max_entries = int(max_entries or 0)

    @classmethod
    def from_spec(cls, spec) -> tuple[str, "TenantQuota"]:
        """Accept ``"name"`` or ``{"name": ..., "max_queued": ...}`` specs.

        Dict specs take ``max_connections``, ``max_queued`` (alias
        ``max_queued_batches``), and ``max_entries`` (alias
        ``max_db_entries``).
        """
        if isinstance(spec, str):
            return spec, cls()
        if isinstance(spec, dict):
            name = spec.get("name")
            if not isinstance(name, str) or not name:
                raise ValueError(f"tenant spec needs a non-empty name: {spec!r}")
            return name, cls(
                max_connections=spec.get("max_connections", 0),
                max_queued=spec.get("max_queued", spec.get("max_queued_batches", 0)),
                max_entries=spec.get("max_entries", spec.get("max_db_entries", 0)),
            )
        raise ValueError(f"tenant spec must be a name or a dict, got {spec!r}")


class _TenantState:
    """Live counters for one tenant, guarded by the server's tenant lock."""

    __slots__ = ("name", "quota", "connections", "queued", "shed", "_lock")

    def __init__(self, name: str, quota: TenantQuota, lock: threading.Lock) -> None:
        self.name = name
        self.quota = quota
        self.connections = 0
        self.queued = 0
        self.shed = 0
        self._lock = lock

    def over_queue_quota(self) -> bool:
        limit = self.quota.max_queued
        return bool(limit) and self.queued >= limit

    def add_queued(self) -> None:
        with self._lock:
            self.queued += 1

    def release_batch(self) -> None:
        """Called by a shard worker once a queued batch has been folded."""
        with self._lock:
            if self.queued > 0:
                self.queued -= 1


def _window_closed(floor: float):
    """Predicate over exported key entries: window closed below ``floor``."""
    from ..window.db import window_end_of

    def closed(entries) -> bool:
        end = window_end_of(entries)
        return end is not None and end <= floor

    return closed


class _Shard:
    """One aggregation shard: a bounded queue feeding a worker thread.

    Only the worker thread ever touches ``db`` while the server runs, so
    aggregation itself is lock-free; cross-shard reads happen exclusively
    through export barriers processed in queue order.
    """

    def __init__(
        self, index: int, scheme: AggregationScheme, depth: int, metrics: MetricsRegistry
    ) -> None:
        self.index = index
        self.scheme = scheme
        #: tenant name -> that tenant's partition of this shard's key space.
        #: Only the worker thread creates or folds into these while the
        #: server runs (dict get/setdefault are GIL-atomic, so racy reads
        #: from quota checks and quiescent drains stay safe).
        self.dbs: dict[str, AggregationDB] = {DEFAULT_TENANT: AggregationDB(scheme)}
        self.queue: queue.Queue = queue.Queue(maxsize=depth)
        self.thread: Optional[threading.Thread] = None
        self.metrics = metrics
        self.num_batches = 0

    @property
    def db(self) -> AggregationDB:
        """The default tenant's DB — the whole shard for token-less servers."""
        return self.dbs[DEFAULT_TENANT]

    def db_for(self, tenant: str) -> AggregationDB:
        db = self.dbs.get(tenant)
        if db is None:
            db = self.dbs.setdefault(tenant, AggregationDB(self.scheme))
        return db

    def run(self) -> None:
        while True:
            item = self.queue.get()
            kind = item[0]
            try:
                if kind == "records":
                    _, tname, records, _tstate = item
                    db = self.db_for(tname)
                    for record in records:
                        db.process(record)
                    self.num_batches += 1
                elif kind == "states":
                    _, tname, groups, offered, processed, _tstate = item
                    self.db_for(tname).load_states(
                        groups, offered=offered, processed=processed
                    )
                    self.num_batches += 1
                elif kind == "export":
                    _, event, slot, tname = item
                    # export_states returns the live state lists; this
                    # worker resumes folding the moment the event is set,
                    # so hand the barrier deep copies or query-side reads
                    # tear against concurrent updates.
                    db = self.dbs.get(tname)
                    if db is None:
                        slot["states"], slot["offered"], slot["processed"] = [], 0, 0
                    else:
                        slot["states"] = [
                            (entries, [list(s) for s in states])
                            for entries, states in db.export_states()
                        ]
                        slot["offered"] = db.num_offered
                        slot["processed"] = db.num_processed
                    event.set()
                elif kind == "stall":
                    # Fault-injection hook: park this worker until the test
                    # sets the event, so backpressure (full queue -> BUSY
                    # shedding) can be provoked deterministically.
                    item[1].wait()
                elif kind == "export_clear":
                    # Relay-mode delta capture: hand over everything folded
                    # since the last cycle and reset to empty, so the same
                    # partial state is never forwarded twice.  Runs on the
                    # worker thread in queue order — batches acknowledged
                    # before the barrier are in this delta, later ones in
                    # the next.
                    _, event, slot = item
                    slot["states"] = [
                        (entries, [list(s) for s in states])
                        for entries, states in self.db.export_states()
                    ]
                    slot["offered"] = self.db.num_offered
                    slot["processed"] = self.db.num_processed
                    self.db.clear()
                    self.db.num_offered = 0
                    self.db.num_processed = 0
                    event.set()
                elif kind == "retire":
                    # Windowed retirement barrier: pop every entry whose
                    # window closed below the floor.  Runs on the worker
                    # thread in queue order, so every batch acknowledged
                    # before the barrier is inside the popped state.
                    _, event, slot, floor = item
                    slot["groups"] = self.db.pop_entries(_window_closed(floor))
                    event.set()
                elif kind == "stop":
                    item[1].set()
                    return
            except Exception:
                # A poisoned batch must never take the shard worker down:
                # the handler-side decoders validate shapes, but defence in
                # depth keeps one bad item from stalling every connection.
                self.metrics.count("net.errors", stage="shard")
                if kind in ("export", "export_clear", "retire"):
                    item[1].set()
            finally:
                if kind in ("records", "states"):
                    tstate = item[-1]
                    if tstate is not None:
                        tstate.release_batch()


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
        window_spec = window
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
            if window_spec is None and query.window is not None:
                # "GROUP BY k WINDOW tumbling(30s)" turns the server into a
                # windowed streaming aggregator directly from the scheme text.
                window_spec = query.window
            scheme = build_scheme(query)
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")

        # -- windowed streaming mode ------------------------------------------
        self.window_assigner = None
        self.windowed = False
        if window_spec is not None:
            from ..window import (
                DEFAULT_TIME_ATTRIBUTE,
                WatermarkTracker,
                WindowEstimator,
                make_assigner,
            )
            from ..window.db import dewindowize_scheme, windowize_scheme

            self.window_assigner = make_assigner(window_spec)
            self.windowed = True
            # The shards aggregate the *windowized* scheme: window.start/end
            # join the key, and hidden est_moments ops accumulate the
            # second moments the online estimator needs.  Producers may
            # still HELLO with the plain base scheme — they stream raw
            # records and this server stamps them.
            scheme = windowize_scheme(scheme)
            self._base_scheme_text = dewindowize_scheme(scheme).describe()
            self.window_lateness = float(lateness)
            self.window_time_attribute = time_attribute or DEFAULT_TIME_ATTRIBUTE
            self.window_confidence = float(confidence)
            self.retire_interval = retire_interval
            #: guards the tracker, per-source clocks, retired DB, and floor.
            #: Lock order: _forward_lock before _window_lock, never reversed.
            self._window_lock = threading.Lock()
            self._window_tracker = WatermarkTracker(self.window_lateness)
            self._window_clocks: dict[str, object] = {}
            self._window_estimator = WindowEstimator(
                scheme, confidence=self.window_confidence
            )
            #: retired windows' merged final states — combine semantics, so a
            #: straggler that raced a retirement barrier merges exactly into
            #: its window instead of duplicating it
            self._retired_db = AggregationDB(scheme, fold_plan="generic")
            self._retire_floor: Optional[float] = None
            self._window_late = 0
            self._retire_thread: Optional[threading.Thread] = None
        self.scheme = scheme
        self.host = host
        self.port = port
        self.max_payload = max_payload
        #: cap on *decoded* binary payload size — the envelope may compress,
        #: so the frame-length check alone cannot bound allocation
        self.max_decoded = 4 * max_payload
        #: fresh random identity per start(); clients use it to detect restarts
        self.epoch = os.urandom(8).hex()
        self.metrics = MetricsRegistry()
        self._shards = [
            _Shard(i, scheme, queue_depth, self.metrics) for i in range(shards)
        ]
        self._key_labels = scheme.key
        self._listener: Optional[socket.socket] = None
        self._seq_lock = threading.Lock()
        self._max_seq: dict[str, int] = {}
        #: dedup key -> monotonic time of last frame; idle entries past
        #: ``dedup_ttl`` are pruned so unclean disconnects (no BYE) cannot
        #: grow the map forever under client churn
        self._seq_touched: dict[str, float] = {}
        self.dedup_ttl = float(dedup_ttl)
        self._stopping = threading.Event()
        self._started = False

        # -- multi-tenancy / admission control -----------------------------------
        self.backlog = int(backlog)
        self.admission_timeout = float(admission_timeout)
        self.busy_retry_after = float(busy_retry_after)
        self.require_token = bool(require_token)
        self._tenant_lock = threading.Lock()
        #: auth token -> tenant state (token-keyed: what HELLO presents)
        self._tenants_by_token: dict[str, _TenantState] = {}
        #: tenant name -> tenant state (name-keyed: what queries scope by)
        self._tenants: dict[str, _TenantState] = {}
        default_state = _TenantState(DEFAULT_TENANT, TenantQuota(), self._tenant_lock)
        self._tenants[DEFAULT_TENANT] = default_state
        if tenants:
            if upstream is not None:
                raise ValueError("tenants are not supported in relay mode")
            if window_spec is not None:
                raise ValueError("tenants are not supported on windowed servers")
            for token, spec in tenants.items():
                if not isinstance(token, str) or not token:
                    raise ValueError(f"tenant token must be a non-empty string: {token!r}")
                name, quota = TenantQuota.from_spec(spec)
                state = self._tenants.get(name)
                if state is None:
                    state = _TenantState(name, quota, self._tenant_lock)
                    self._tenants[name] = state
                else:
                    state.quota = quota
                self._tenants_by_token[token] = state
        # event-loop plumbing (populated by start())
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._housekeeping_task: Optional[asyncio.Task] = None
        self._tasks: set = set()
        self._writers: set = set()
        self._executor: Optional[ThreadPoolExecutor] = None

        # -- reduction-tree state (relay mode when upstream is set) -------------
        self.upstream = _parse_upstream(upstream)
        self.is_relay = self.upstream is not None
        #: stable node identity across the tree (also the forward client id)
        self.forward_id = relay_id or f"node-{uuid.uuid4().hex[:10]}"
        #: depth in the tree, root = 0; -1 = unknown until the parent says
        self.level = level if level is not None else (0 if not self.is_relay else -1)
        self._level_explicit = level is not None
        self.forward_interval = forward_interval
        self.failover_after = failover_after
        self._forward_spool_dir = forward_spool_dir
        self._forward_client = None  # type: Optional[object]
        self._forward_thread: Optional[threading.Thread] = None
        #: held across a whole forward cycle (collect -> send -> flush), so a
        #: forward_now() caller waits for the periodic forwarder's in-flight
        #: delta instead of returning while it is still detached.  Outermost:
        #: taken before _forward_lock and _window_lock, never inside them.
        self._cycle_lock = threading.Lock()
        #: guards every structure below — handlers and the forwarder race
        self._forward_lock = threading.Lock()
        #: (sender, origin) -> segregated pass-through DB; sender/origin are
        #: (id, epoch) pairs.  Segregation per origin is what lets a relay
        #: retract exactly one dead subtree's contribution later.
        self._forwarded: dict[tuple, AggregationDB] = {}
        #: sender -> every origin it ever forwarded (for retraction)
        self._origins_by_sender: dict[tuple[str, str], set] = {}
        #: sender incarnations declared dead — late deltas are ACKed but dropped
        self._fenced: set = set()
        #: origins whose retraction must ride ahead of the next forward cycle
        self._pending_retracts: set = set()
        #: node id -> latest telemetry summary heard from the subtree
        self._tree_stats: dict[str, dict] = {}
        self._combine_seconds = 0.0
        self._forwards_received = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "AggregationServer":
        """Bind, spawn the shard workers, and start the event loop."""
        if self._started:
            raise ReproError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        self._listener = listener
        self.port = listener.getsockname()[1]
        for shard in self._shards:
            shard.thread = threading.Thread(
                target=shard.run, name=f"repro-net-shard-{shard.index}", daemon=True
            )
            shard.thread.start()
        # The event loop owns the listener: asyncio.start_server calls
        # listen() itself with our backlog.
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-net-blocking"
        )
        ready = threading.Event()
        boot: dict = {}
        self._loop_thread = threading.Thread(
            target=self._loop_main,
            args=(ready, boot),
            name="repro-net-loop",
            daemon=True,
        )
        self._loop_thread.start()
        ready.wait(timeout=10.0)
        self._started = True
        if "error" in boot:
            self.stop()  # tear down what came up
            raise boot["error"]
        self.metrics.gauge("net.shards", len(self._shards))
        if self.is_relay:
            from .client import FlushClient  # deferred: client imports protocol only

            self._forward_client = FlushClient(
                self.upstream[0],
                self.upstream[1],
                scheme=self.scheme.describe(),
                client_id=self.forward_id,
                spool_dir=self._forward_spool_dir,
                failover_after=self.failover_after,
                retries=1,
                backoff=0.05,
                backoff_max=0.5,
            )
            if self.forward_interval and self.forward_interval > 0:
                self._forward_thread = threading.Thread(
                    target=self._forward_loop, name="repro-net-forward", daemon=True
                )
                self._forward_thread.start()
        if (
            self.windowed
            and not self.is_relay
            and self.retire_interval
            and self.retire_interval > 0
        ):
            # Only the root retires: relays clear their shards every forward
            # cycle, so closed-window state never accumulates there.
            self._retire_thread = threading.Thread(
                target=self._retire_loop, name="repro-net-retire", daemon=True
            )
            self._retire_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` — the port is concrete once started (0 = ephemeral)."""
        return (self.host, self.port)

    def __enter__(self) -> "AggregationServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful drain: stop accepting, finish queued work, join workers.

        Open connections are closed (clients see an orderly EOF and spool
        anything unacknowledged); every batch already enqueued is folded
        before the shard threads exit, so a subsequent
        :meth:`drain_results` observes all acknowledged data.
        """
        self._stopping.set()
        self._shutdown_loop(graceful=True, timeout=timeout)
        done = []
        for shard in self._shards:
            event = threading.Event()
            shard.queue.put(("stop", event))
            done.append(event)
        for event in done:
            event.wait(timeout=timeout)
        if self._forward_thread is not None:
            self._forward_thread.join(timeout=timeout)
            self._forward_thread = None
        if self.windowed and self._retire_thread is not None:
            self._retire_thread.join(timeout=timeout)
            self._retire_thread = None
        if self.is_relay and self._forward_client is not None:
            # Final forward: the shards are quiescent now, so this ships the
            # residue (and any pending retraction) upstream before goodbye.
            try:
                self.forward_now(final=True)
            except ReproError:
                pass  # parent unreachable: the forward spool keeps the delta
            self._forward_client.close()

    def kill(self) -> None:
        """Abrupt shutdown for fault-injection tests: drop every socket now.

        No drain, no goodbye frames — clients observe a reset mid-stream,
        exactly like a crashed server process.  Shard state is abandoned.
        """
        self._stopping.set()
        self._shutdown_loop(graceful=False, timeout=5.0)
        for shard in self._shards:
            try:
                shard.queue.put_nowait(("stop", threading.Event()))
            except queue.Full:
                pass  # daemon thread; abandoned with the rest of the state
        if self._forward_client is not None:
            # A killed relay never flushes upstream: drop the connection and
            # poison the client so a racing forwarder thread cannot revive it.
            self._forward_client.abort()

    # -- network plane: one event loop for every connection ----------------------

    def _loop_main(self, ready: threading.Event, boot: dict) -> None:
        """Body of the event-loop thread: one loop owns every connection."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _boot() -> None:
            self._listener.setblocking(False)
            # start_server calls listen() on the pre-bound socket itself,
            # honoring our backlog — the port was fixed at bind time so
            # ``address`` is already concrete for callers.
            self._server = await asyncio.start_server(
                self._client_connected, sock=self._listener, backlog=self.backlog
            )

        try:
            loop.run_until_complete(_boot())
        except Exception as exc:
            boot["error"] = exc
        finally:
            ready.set()
        if "error" not in boot:
            interval = max(0.05, min(self.dedup_ttl / 4.0, 30.0)) if self.dedup_ttl else 30.0
            self._housekeeping_task = loop.create_task(self._housekeeping(interval))
            loop.run_forever()
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        except Exception:
            pass
        loop.close()

    async def _housekeeping(self, interval: float) -> None:
        """Periodic event-loop chores: prune idle dedup state."""
        try:
            while not self._stopping.is_set():
                await asyncio.sleep(interval)
                self._prune_dedup()
        except asyncio.CancelledError:
            pass

    async def _client_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self._writers.add(writer)
        self.metrics.count("net.connections")
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # kill() or shutdown cancelled us mid-frame
        except (Truncated, OSError, ValueError, ConnectionError):
            # Peer vanished (or our own shutdown closed the socket):
            # nothing to report to — drop the connection.
            self.metrics.count("net.disconnects", reason="io")
        except ProtocolError as exc:
            self.metrics.count("net.errors", stage="protocol")
            await self._send_error(writer, exc)
        except ReproError as exc:
            self.metrics.count("net.errors", stage="request")
            await self._send_error(writer, exc, code="request")
        finally:
            self._writers.discard(writer)
            self._tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _send_error(self, writer, exc, code: Optional[str] = None) -> None:
        code = code or getattr(exc, "code", None) or "protocol"
        try:
            writer.write(
                message_bytes(MessageType.ERROR, error_body(str(exc), code=code))
            )
            await writer.drain()
        except (OSError, ConnectionError):
            pass

    async def _read(self, reader) -> tuple[MessageType, dict, dict]:
        """Incremental frame parse off the stream buffer (no thread, no poll)."""
        try:
            header = await reader.readexactly(HEADER.size)
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise Truncated("connection closed mid-frame") from None
            raise Truncated("connection closed") from None
        mtype, flags, length = parse_frame_header(header, self.max_payload)
        payload = b""
        if length:
            try:
                payload = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise Truncated("connection closed mid-frame") from None
        nbytes = HEADER.size + len(payload)
        self.metrics.count("net.bytes.rx", nbytes)
        if mtype is MessageType.FORWARD:
            # Tree telemetry: wire bytes arriving as relayed partial states
            # (the Fig. 8 quantity — payload shrinks as levels combine).
            self.metrics.count("net.forward.bytes.rx", nbytes)
        if flags & FLAG_BINARY:
            body, sections = decode_binary_body(payload, max_decoded=self.max_decoded)
            return mtype, body, sections
        if mtype in _DATA_FRAMES:
            raise ProtocolError(
                f"{mtype.name} payload must be a {CAP_BINARY} binary envelope"
            )
        return mtype, parse_body(mtype, payload), {}

    async def _write(self, writer, mtype: MessageType, body: dict) -> None:
        data = message_bytes(mtype, body)
        writer.write(data)
        await writer.drain()
        self.metrics.count("net.bytes.tx", len(data))

    async def _serve_connection(self, reader, writer) -> None:
        mtype, body, _ = await self._read(reader)
        if mtype is not MessageType.HELLO:
            raise ProtocolError(f"expected HELLO, got {mtype.name}")
        client_id, tenant, ack = self._handshake(body)
        try:
            await self._write(writer, MessageType.HELLO_ACK, ack)
            loop = asyncio.get_running_loop()
            while True:
                mtype, body, sections = await self._read(reader)
                if mtype is MessageType.BYE:
                    # The client session is over and its replay window with
                    # it: drop its dedup entry so unbounded client churn
                    # (one-shot producers, live_query probes) cannot grow
                    # the map forever.
                    self._forget_client(tenant, client_id)
                    self.metrics.count("net.disconnects", reason="bye")
                    return
                if mtype is MessageType.RECORDS:
                    resp = await self._fold_records(
                        tenant, client_id, body, sections
                    )
                elif mtype is MessageType.STATES:
                    resp = await self._fold_states(
                        tenant, client_id, body, sections
                    )
                elif mtype is MessageType.FORWARD:
                    # Folding a relay delta contends on _forward_lock; queries
                    # and drains run export barriers.  All of them hop to the
                    # executor so the loop keeps absorbing reads meanwhile.
                    resp = await loop.run_in_executor(
                        self._executor, self._fold_forward, client_id, body, sections
                    )
                elif mtype is MessageType.RETRACT:
                    resp = await loop.run_in_executor(
                        self._executor, self._fold_retract, client_id, body
                    )
                elif mtype is MessageType.QUERY:
                    resp = await loop.run_in_executor(
                        self._executor, self._query_response, body, tenant
                    )
                elif mtype is MessageType.STATS:
                    resp = await loop.run_in_executor(
                        self._executor, self._stats_response
                    )
                elif mtype is MessageType.DRAIN:
                    resp = await loop.run_in_executor(
                        self._executor, self._drain_response, tenant
                    )
                else:
                    raise ProtocolError(f"unexpected {mtype.name} frame")
                await self._write(writer, *resp)
        finally:
            self._release_conn(tenant)

    def _shutdown_loop(self, graceful: bool, timeout: float) -> None:
        """Tear down the asyncio plane from the caller's (non-loop) thread."""
        loop, thread = self._loop, self._loop_thread
        if loop is None or thread is None:
            # start() never brought the loop up: just close the bare socket.
            listener, self._listener = self._listener, None
            if listener is not None:
                listener.close()
            return
        if loop.is_running():
            try:
                fut = asyncio.run_coroutine_threadsafe(
                    self._shutdown(graceful, timeout), loop
                )
                fut.result(timeout=timeout + 5.0)
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=timeout + 5.0)
        self._loop_thread = None
        self._loop = None
        self._listener = None
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=graceful)

    async def _shutdown(self, graceful: bool, timeout: float) -> None:
        current = asyncio.current_task()
        if self._housekeeping_task is not None:
            self._housekeeping_task.cancel()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in list(self._writers):
            try:
                if graceful:
                    # Orderly EOF: clients observe the close and spool
                    # anything unacknowledged for replay.
                    writer.close()
                else:
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
            except Exception:
                pass
        tasks = [t for t in self._tasks if t is not current and not t.done()]
        if graceful and tasks:
            _, pending = await asyncio.wait(tasks, timeout=min(timeout, 5.0))
            tasks = list(pending)
        for t in tasks:
            t.cancel()
        if tasks:
            await asyncio.wait(tasks, timeout=2.0)
        if server is not None:
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=2.0)
            except Exception:
                pass

    # -- routing ----------------------------------------------------------------

    def _shard_of_key(self, key_text: str) -> int:
        return stable_hash64(key_text.encode("utf-8")) % len(self._shards)

    def _record_key(self, record: Record) -> str:
        get = record.get
        return _KEY_SEP.join(get(label).to_string() for label in self._key_labels)

    def _bucket_records(self, records: list[Record]) -> list[tuple[_Shard, list[Record]]]:
        n = len(self._shards)
        if n == 1:
            return [(self._shards[0], records)]
        buckets: list[list[Record]] = [[] for _ in range(n)]
        for record in records:
            buckets[self._shard_of_key(self._record_key(record))].append(record)
        return [(s, b) for s, b in zip(self._shards, buckets) if b]

    def _bucket_states(
        self, groups: list[tuple[dict[str, Variant], list[list]]], offered: int, processed: int
    ) -> list[tuple[_Shard, list, int, int]]:
        n = len(self._shards)
        if n == 1:
            return [(self._shards[0], groups, offered, processed)]
        buckets: list[list] = [[] for _ in range(n)]
        for entries, cells in groups:
            key_text = _KEY_SEP.join(
                entries.get(label, Variant.empty()).to_string()
                for label in self._key_labels
            )
            buckets[self._shard_of_key(key_text)].append((entries, cells))
        # Stream counters are global, not per-key; attribute them to the
        # first non-empty bucket so totals stay exact after merging.
        out: list[tuple[_Shard, list, int, int]] = []
        counted = False
        for shard, bucket in zip(self._shards, buckets):
            if bucket:
                out.append(
                    (shard, bucket, 0 if counted else offered, 0 if counted else processed)
                )
                counted = True
        if not counted and (offered or processed):
            out.append((self._shards[0], [], offered, processed))
        return out

    def _enqueue(self, shard: _Shard, item: tuple) -> None:
        # Blocking put for barriers (export, retire): wake up periodically
        # so a caller waiting on a full queue still notices server shutdown.
        while True:
            try:
                shard.queue.put(item, timeout=0.2)
                return
            except queue.Full:
                if self._stopping.is_set():
                    raise ReproError("server is shutting down") from None

    async def _put(self, tenant: _TenantState, puts: list, shed: bool) -> bool:
        """Admission-controlled enqueue on the event loop: never blocks it.

        Returns False (-> BUSY) when a full shard queue outlasts
        ``admission_timeout`` — but only while *nothing* from this batch has
        committed.  Once any bucket is queued the batch must complete: a
        half-folded batch answered BUSY would double-count on redelivery
        (the seq is only marked after the last bucket lands).
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.admission_timeout
        committed = False
        for shard, item in puts:
            while True:
                try:
                    shard.queue.put_nowait(item)
                except queue.Full:
                    if self._stopping.is_set():
                        raise ReproError("server is shutting down")
                    if shed and not committed and loop.time() >= deadline:
                        return False
                    await asyncio.sleep(0.002)
                    continue
                tenant.add_queued()
                committed = True
                break
        return True

    # -- reduction tree: sending side ---------------------------------------------

    def _forward_loop(self) -> None:
        while not self._stopping.wait(timeout=self.forward_interval):
            try:
                self.forward_now()
            except ReproError:
                # Closed client during shutdown, or a parent that answered
                # with a hard refusal: either way the spool has the delta
                # and hammering the parent helps nobody this cycle.
                self.metrics.count("net.errors", stage="forward")
                if self._stopping.is_set():
                    return

    def _retire_loop(self) -> None:
        while not self._stopping.wait(timeout=self.retire_interval):
            try:
                self.retire_now()
            except ReproError:
                self.metrics.count("net.errors", stage="retire")
                if self._stopping.is_set():
                    return

    def forward_now(self, final: bool = False) -> bool:
        """Run one forward cycle: retracts first, then every pending delta.

        Exports-and-clears each shard (our own contribution since the last
        cycle), detaches the segregated pass-through DBs, and ships
        everything upstream tagged with its origin.  Returns True when the
        parent acknowledged everything; False leaves the deltas in the
        forward client's write-ahead spool for the next cycle's replay.
        Cycles are serialised: a call made while the periodic forwarder has
        a delta in flight waits for it, so everything acknowledged before
        the call is upstream (or spooled) when it returns.
        Public so tests and drains can force a deterministic cycle.
        """
        if not self.is_relay:
            raise ReproError("forward_now() requires relay mode (upstream=)")
        with self._cycle_lock:
            return self._forward_cycle(final)

    def _forward_cycle(self, final: bool) -> bool:
        """Collect -> send -> flush; the caller holds ``_cycle_lock``."""
        client = self._forward_client
        watermark = None
        if self.windowed:
            # Captured *before* the export barrier: every record that
            # advanced the tracker to this mark was folded before the
            # barrier, so the delta carrying the mark also carries all data
            # below it — the invariant root-side retirement relies on.
            with self._window_lock:
                watermark = self._window_tracker.watermark()
        with self._forward_lock:
            retracts = sorted(self._pending_retracts)
            self._pending_retracts.clear()
            detached, self._forwarded = self._forwarded, {}
        ok = True
        if retracts:
            # Must precede any re-forwarded data; both ride the client's
            # sequence stream, so spooled ordering survives parent outages.
            ok = client.send_retract(retracts, from_epoch=self.epoch) and ok
        own_groups: list = []
        own_offered = 0
        own_processed = 0
        for slot in self._collect_shard_deltas(final=final):
            own_groups.extend(slot["states"])
            own_offered += slot["offered"]
            own_processed += slot["processed"]
        for (sender, origin), db in sorted(detached.items()):
            if not (db.num_entries or db.num_offered or db.num_processed):
                continue
            ok = (
                client.send_forward(
                    db.export_states(),
                    origin=origin,
                    from_epoch=self.epoch,
                    level=self.level,
                    offered=db.num_offered,
                    processed=db.num_processed,
                )
                and ok
            )
        if own_groups or own_offered or own_processed or final or watermark is not None:
            # Sent last so the piggybacked telemetry already counts this
            # cycle's pass-through traffic (it can never include itself).
            # A windowed relay forwards even an empty cycle: the piggybacked
            # watermark is what lets the root retire windows.
            ok = (
                client.send_forward(
                    own_groups,
                    origin=(self.forward_id, self.epoch),
                    from_epoch=self.epoch,
                    level=self.level,
                    offered=own_offered,
                    processed=own_processed,
                    telemetry=self._tree_telemetry(),
                    watermark=watermark,
                )
                and ok
            )
        if client.num_spooled:
            # Nothing new may be pending this cycle, but earlier deltas can
            # still sit in the spool behind a dead parent: every cycle must
            # retry them, because redelivery is also what drives the
            # failure window towards re-parenting.
            ok = client.flush() and ok
        self._refresh_level()
        self.metrics.gauge("net.forward.spooled", client.num_spooled)
        return ok

    def _collect_shard_deltas(self, final: bool = False) -> list[dict]:
        """Export-and-clear barrier on every shard (direct when quiescent)."""
        pending: list[tuple[Optional[threading.Event], dict, "_Shard"]] = []
        for shard in self._shards:
            if shard.thread is None or not shard.thread.is_alive():
                slot = {
                    "states": shard.db.export_states(),
                    "offered": shard.db.num_offered,
                    "processed": shard.db.num_processed,
                }
                shard.db.clear()
                shard.db.num_offered = 0
                shard.db.num_processed = 0
                pending.append((None, slot, shard))
                continue
            event = threading.Event()
            slot = {}
            self._enqueue(shard, ("export_clear", event, slot))
            pending.append((event, slot, shard))
        slots = []
        for event, slot, shard in pending:
            if event is not None:
                while not event.wait(timeout=0.2):
                    if shard.thread is None or not shard.thread.is_alive():
                        # Worker exited with the barrier still queued (server
                        # stopping): the DB is quiescent, take it directly.
                        slot = {
                            "states": shard.db.export_states(),
                            "offered": shard.db.num_offered,
                            "processed": shard.db.num_processed,
                        }
                        shard.db.clear()
                        shard.db.num_offered = 0
                        shard.db.num_processed = 0
                        break
            slots.append(slot if slot else {"states": [], "offered": 0, "processed": 0})
        return slots

    def _refresh_level(self) -> None:
        """Derive our depth from the parent's advertised level (root = 0)."""
        if self._level_explicit or self._forward_client is None:
            return
        parent_level = self._forward_client.server_info.get("level")
        if isinstance(parent_level, int) and parent_level >= 0:
            self.level = parent_level + 1

    def _tree_summary(self) -> dict:
        """This node's own line of per-level tree telemetry."""
        counters = self._forward_client.counters if self._forward_client else {}
        return {
            "node": self.forward_id,
            "level": self.level,
            "forwarded_batches": counters.get("batches", 0),
            "forwarded_bytes": counters.get("wire_bytes", 0),
            "combine_seconds": self._combine_seconds,
            "forwards_received": self._forwards_received,
            "failovers": counters.get("failovers", 0),
        }

    def _tree_telemetry(self) -> list[dict]:
        """Everything we know about the subtree, ourselves included.

        Piggybacks on the own-origin FORWARD each cycle so the root can
        answer per-level CalQL queries (levels, forwarded wire bytes,
        combine time) without a separate telemetry channel.
        """
        with self._forward_lock:
            downstream = [dict(summary) for summary in self._tree_stats.values()]
        return [self._tree_summary()] + downstream

    # -- merged views ------------------------------------------------------------

    def _snapshot_states(
        self, timeout: float = 30.0, tenant: str = DEFAULT_TENANT
    ) -> list[dict]:
        """Export barrier on every shard: a consistent cross-shard snapshot.

        Scoped to one tenant's namespace — the barrier only ever exports
        that tenant's per-shard DB, which is what makes cross-tenant reads
        structurally impossible rather than merely filtered.
        """

        def _quiescent(shard: _Shard) -> dict:
            db = shard.dbs.get(tenant)
            if db is None:
                return {"states": [], "offered": 0, "processed": 0}
            return {
                "states": db.export_states(),
                "offered": db.num_offered,
                "processed": db.num_processed,
            }

        pending: list[tuple[Optional[threading.Event], dict]] = []
        for shard in self._shards:
            if shard.thread is None or not shard.thread.is_alive():
                # Quiescent shard (drained by stop()): its worker is gone and
                # nothing mutates the DB anymore, so read it directly.
                pending.append((None, _quiescent(shard)))
                continue
            event = threading.Event()
            slot: dict = {}
            self._enqueue(shard, ("export", event, slot, tenant))
            pending.append((event, slot))
        slots = []
        for shard, (event, slot) in zip(self._shards, pending):
            if event is not None:
                deadline = time.monotonic() + timeout
                while not event.wait(timeout=0.2):
                    if shard.thread is None or not shard.thread.is_alive():
                        # Worker exited between enqueue and barrier (server
                        # stopping): the DB is quiescent, read it directly.
                        slot = _quiescent(shard)
                        break
                    if time.monotonic() > deadline:
                        raise ReproError("timed out waiting for a shard snapshot")
            slots.append(slot)
        # Forwarded (reduction-tree) partial DBs live outside the shards so
        # they stay retractable per origin; a consistent merged view must
        # include them.  Deep-copy under the lock — FORWARD handlers fold
        # into these DBs concurrently.  Relay mode forbids tenants, so the
        # forwarded DBs belong to the default namespace only.
        if tenant == DEFAULT_TENANT:
            with self._forward_lock:
                for db in self._forwarded.values():
                    slots.append(
                        {
                            "states": [
                                (entries, [list(s) for s in states])
                                for entries, states in db.export_states()
                            ],
                            "offered": db.num_offered,
                            "processed": db.num_processed,
                        }
                    )
        return slots

    def merged_db(self, tenant: str = DEFAULT_TENANT) -> AggregationDB:
        """A consistent merge of all shards (ingestion keeps running)."""
        start = time.perf_counter()
        db = AggregationDB(self.scheme)
        for slot in self._snapshot_states(tenant=tenant):
            db.load_states(
                slot["states"], offered=slot["offered"], processed=slot["processed"]
            )
        if self.windowed:
            # Retired windows were popped out of the shards; totals must
            # still include them.
            with self._window_lock:
                retired = [
                    (entries, [list(s) for s in states])
                    for entries, states in self._retired_db.export_states()
                ]
            db.load_states(retired)
        self.metrics.timing("net.merge", time.perf_counter() - start)
        return db

    def drain_results(self, tenant: str = DEFAULT_TENANT) -> list[Record]:
        """Flushed output records over everything ingested so far."""
        return self.merged_db(tenant=tenant).flush()

    # -- windowed streaming: watermarks, retirement, estimates --------------------

    def watermark(self) -> Optional[float]:
        """The current global event-time watermark (None before any event)."""
        if not self.windowed:
            return None
        with self._window_lock:
            return self._window_tracker.watermark()

    def retire_now(self) -> list[Record]:
        """Finalize every window closed below the current watermark.

        Pops closed windows' state out of the shards and the forwarded
        per-origin DBs, merges it into the retired-results DB, and returns
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
        watermark and is dropped as late by :meth:`_window_stamp` /
        :meth:`_on_forward`.
        """
        if not self.windowed:
            raise ReproError("retire_now() requires a windowed server")
        if self.is_relay:
            raise ReproError("relays do not retire windows; query the root")
        with self._window_lock:
            mark = self._window_tracker.watermark()
        if mark is None:
            return []
        popped: list = []
        pending: list[tuple[Optional[threading.Event], dict, "_Shard"]] = []
        closed = _window_closed(mark)
        for shard in self._shards:
            if shard.thread is None or not shard.thread.is_alive():
                pending.append((None, {"groups": shard.db.pop_entries(closed)}, shard))
                continue
            event = threading.Event()
            slot: dict = {}
            self._enqueue(shard, ("retire", event, slot, mark))
            pending.append((event, slot, shard))
        for event, slot, shard in pending:
            if event is not None:
                while not event.wait(timeout=0.2):
                    if shard.thread is None or not shard.thread.is_alive():
                        slot["groups"] = shard.db.pop_entries(closed)
                        break
            popped.extend(slot.get("groups", ()))
        with self._forward_lock:
            for db in self._forwarded.values():
                popped.extend(db.pop_entries(closed))
        with self._window_lock:
            if self._retire_floor is None or mark > self._retire_floor:
                self._retire_floor = mark
        if not popped:
            return []
        fresh = AggregationDB(self.scheme, fold_plan="generic")
        fresh.load_states(popped)
        with self._window_lock:
            self._retired_db.load_states(
                [
                    (entries, [list(s) for s in states])
                    for entries, states in fresh.export_states()
                ]
            )
        records = fresh.flush()
        windows = {
            (r.get("window.start").value, r.get("window.end").value) for r in records
        }
        self.metrics.count("window.retired", len(windows))
        return records

    def retired_results(self) -> list[Record]:
        """Final records for every window retired so far."""
        if not self.windowed:
            raise ReproError("retired_results() requires a windowed server")
        with self._window_lock:
            return self._retired_db.flush()

    def estimate_results(self) -> list[Record]:
        """Open windows' partial aggregates plus confidence intervals.

        A consistent snapshot of the open-window state (shards + forwarded
        DBs, *excluding* retired windows) rendered through the PF-OLA
        estimator: every record carries ``est#...``/``est.lo#...``/
        ``est.hi#...`` columns plus ``est.fraction`` and ``est.samples``.
        """
        if not self.windowed:
            raise ReproError("estimate_results() requires a windowed server")
        db = AggregationDB(self.scheme, fold_plan="generic")
        for slot in self._snapshot_states():
            db.load_states(slot["states"])
        with self._window_lock:
            mark = self._window_tracker.watermark()
        return self._window_estimator.estimate_records(db.export_states(), mark)

    def run_query(
        self, text: str, target: str = "aggregate", tenant: str = DEFAULT_TENANT
    ):
        """Run CalQL against the live merged state (or the telemetry).

        ``target="aggregate"`` queries the flushed output of a consistent
        merged snapshot — the two-stage workflow of Section VI-B with the
        first stage still running.  ``target="telemetry"`` queries the
        server's own ``observe.*`` metric records instead.  Windowed servers
        add ``target="estimate"`` (open windows with confidence intervals)
        and ``target="retired"`` (finalized windows only).
        """
        from ..query.engine import QueryEngine  # deferred: query sits above net

        start = time.perf_counter()
        if target == "telemetry":
            records = self.stats_records()
        elif target == "aggregate":
            records = self.drain_results(tenant=tenant)
        elif target == "estimate":
            records = self.estimate_results()
        elif target == "retired":
            records = self.retired_results()
        else:
            raise ProtocolError(f"unknown query target {target!r}")
        result = QueryEngine(text).run(records)
        self.metrics.timing("net.query", time.perf_counter() - start, target=target)
        self.metrics.count("net.queries", target=target)
        return result

    # -- telemetry ---------------------------------------------------------------

    def stats_records(self) -> list[Record]:
        """Server telemetry as CalQL-queryable ``observe.*`` records."""
        for shard in self._shards:
            self.metrics.gauge(
                "net.shard.depth", shard.queue.qsize(), shard=shard.index
            )
            self.metrics.gauge(
                "net.shard.entries", shard.db.num_entries, shard=shard.index
            )
        with self._tenant_lock:
            tenant_rows = [
                (t.name, t.connections, t.queued, t.shed)
                for t in self._tenants.values()
            ]
        if len(tenant_rows) > 1:
            for name, conns, queued, shed in tenant_rows:
                self.metrics.gauge("net.tenant.connections", conns, tenant=name)
                self.metrics.gauge("net.tenant.queued", queued, tenant=name)
                self.metrics.gauge("net.tenant.shed", shed, tenant=name)
                self.metrics.gauge(
                    "net.tenant.entries",
                    sum(
                        shard.dbs[name].num_entries
                        for shard in self._shards
                        if name in shard.dbs
                    ),
                    tenant=name,
                )
        records = _metrics_to_records(self.metrics)
        summary = {
            "observe.kind": Variant.of("server"),
            "observe.epoch": Variant.of(self.epoch),
            "observe.shards": Variant.of(len(self._shards)),
            "observe.scheme": Variant.of(self.scheme.describe()),
            "observe.entries": Variant.of(
                sum(shard.db.num_entries for shard in self._shards)
            ),
            "observe.batches": Variant.of(
                sum(shard.num_batches for shard in self._shards)
            ),
        }
        if self.windowed:
            with self._window_lock:
                mark = self._window_tracker.watermark()
                late = self._window_late
                retired = self._retired_db.num_entries
            summary["observe.window.late"] = Variant.of(late)
            summary["observe.window.retired"] = Variant.of(retired)
            if mark is not None:
                summary["observe.window.watermark"] = Variant.of(mark)
        records.append(Record.from_variants(summary))
        with self._forward_lock:
            tree_nodes = [self._tree_summary()] + [
                dict(s) for s in self._tree_stats.values()
            ]
        if self.is_relay or len(tree_nodes) > 1:
            # One record per known tree node — per-level combine time and
            # forwarded wire bytes become ordinary CalQL-queryable facts
            # (``... WHERE observe.kind = tree GROUP BY observe.level``).
            for node in tree_nodes:
                records.append(
                    Record.from_variants(
                        {
                            "observe.kind": Variant.of("tree"),
                            "observe.node": Variant.of(str(node.get("node", ""))),
                            "observe.level": Variant.of(int(node.get("level", -1))),
                            "observe.forward.batches": Variant.of(
                                int(node.get("forwarded_batches", 0))
                            ),
                            "observe.forward.bytes": Variant.of(
                                int(node.get("forwarded_bytes", 0))
                            ),
                            "observe.combine.seconds": Variant.of(
                                float(node.get("combine_seconds", 0.0))
                            ),
                            "observe.forwards": Variant.of(
                                int(node.get("forwards_received", 0))
                            ),
                            "observe.failovers": Variant.of(
                                int(node.get("failovers", 0))
                            ),
                        }
                    )
                )
        return records

    # -- handshake, tenancy, and dedup state --------------------------------------

    def _resolve_tenant(self, body: dict) -> _TenantState:
        token = body.get("token")
        if token is not None and not isinstance(token, str):
            raise ProtocolError("HELLO token must be a string")
        if token:
            state = self._tenants_by_token.get(token)
            if state is None:
                raise _Refused("unknown auth token", code="auth")
            return state
        if self.require_token:
            raise _Refused("this server requires an auth token", code="auth")
        return self._tenants[DEFAULT_TENANT]

    def _handshake(self, body: dict) -> tuple[str, _TenantState, dict]:
        """Shared HELLO processing: auth, quota admission, capability ack.

        On success the tenant's connection count is already incremented —
        the caller owns the matching :meth:`_release_conn`.
        """
        client_id = str(require(body, "client", (str,)))
        client_caps = body.get("caps")
        if not isinstance(client_caps, list) or CAP_BINARY not in client_caps:
            raise _Refused(
                f"this server requires the {CAP_BINARY!r} capability in HELLO caps",
                code="caps",
            )
        tenant = self._resolve_tenant(body)
        with self._tenant_lock:
            limit = tenant.quota.max_connections
            if limit and tenant.connections >= limit:
                raise _Refused(
                    f"tenant {tenant.name!r} is at its connection quota ({limit})",
                    code="quota",
                )
            tenant.connections += 1
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
                self._retract_sender(origin_from_wire(failover_from))
            ack = {
                "epoch": self.epoch,
                "shards": len(self._shards),
                "scheme": self.scheme.describe(),
                "level": self.level,
                "caps": [CAP_BINARY],
            }
            if tenant.name != DEFAULT_TENANT:
                ack["tenant"] = tenant.name
            if self.sampling_budget_ns is not None:
                ack["sampling_budget_ns"] = self.sampling_budget_ns
            if self.is_relay:
                # Advertise our own parent so children can re-parent to
                # their grandparent if we die (the root advertises nothing:
                # there is no level above it to fail over to).
                ack["relay_id"] = self.forward_id
                ack["upstream"] = [self.upstream[0], self.upstream[1]]
        except BaseException:
            self._release_conn(tenant)
            raise
        return client_id, tenant, ack

    def _release_conn(self, tenant: _TenantState) -> None:
        with self._tenant_lock:
            if tenant.connections > 0:
                tenant.connections -= 1

    def _check_entries_quota(self, tenant: _TenantState) -> None:
        limit = tenant.quota.max_entries
        if not limit:
            return
        total = 0
        for shard in self._shards:
            db = shard.dbs.get(tenant.name)
            if db is not None:
                total += db.num_entries
        if total >= limit:
            # Entries never drain on their own (unlike queue depth), so a
            # BUSY retry loop would spin forever: refuse hard instead.
            raise _Refused(
                f"tenant {tenant.name!r} is at its entry quota ({limit})",
                code="quota",
            )

    def _busy(self, tenant: _TenantState, seq: int) -> tuple[MessageType, dict]:
        with self._tenant_lock:
            tenant.shed += 1
        self.metrics.count("net.shed", tenant=tenant.name)
        return (MessageType.BUSY, busy_body(seq, self.busy_retry_after))

    def _forget_client(self, tenant: _TenantState, client_id: str) -> None:
        key = self._dedup_key(tenant, client_id)
        with self._seq_lock:
            self._max_seq.pop(key, None)
            self._seq_touched.pop(key, None)

    def _check_scheme(self, text: str) -> None:
        from ..calql import parse_scheme

        try:
            theirs = parse_scheme(text)
        except ReproError as exc:
            raise ProtocolError(f"unparseable client scheme {text!r}: {exc}") from exc
        ours = {self.scheme.describe()}
        if self.windowed:
            # Record producers speak the base (un-windowized) scheme; the
            # window keys and moments op are a server-side augmentation.
            ours.add(self._base_scheme_text)
        if theirs.describe() not in ours:
            raise ProtocolError(
                f"scheme mismatch: server aggregates {self.scheme.describe()!r}, "
                f"client sent {theirs.describe()!r}"
            )

    def _dedup_key(self, tenant: _TenantState, client_id: str) -> str:
        # The default namespace keeps bare client ids (wire/debug/test
        # compatibility); named tenants prefix theirs so two tenants' "node-1"
        # clients can never collide in the replay-dedup map.
        if tenant.name == DEFAULT_TENANT:
            return client_id
        return f"{tenant.name}{_KEY_SEP}{client_id}"

    def _dedup_peek(self, key: str, seq: int) -> bool:
        """True if this batch was already folded (ACK but skip).

        Peek only — the seq is *marked* separately after the batch commits,
        so a shed (BUSY) or a failed route leaves no trace and the client's
        redelivery folds normally.
        """
        with self._seq_lock:
            self._seq_touched[key] = time.monotonic()
            return seq <= self._max_seq.get(key, -1)

    def _dedup_mark(self, key: str, seq: int) -> None:
        with self._seq_lock:
            if seq > self._max_seq.get(key, -1):
                self._max_seq[key] = seq

    def _prune_dedup(self) -> None:
        """Drop dedup/seq state for clients idle past ``dedup_ttl``.

        Unclean disconnects (no BYE) would otherwise pin their replay
        window forever; under client churn that is an unbounded leak.  A
        pruned client that replays after sitting idle longer than the TTL
        re-folds — the TTL is the documented replay-window bound.
        """
        if not self.dedup_ttl:
            return
        now = time.monotonic()
        with self._seq_lock:
            stale = [
                key
                for key, touched in self._seq_touched.items()
                if now - touched > self.dedup_ttl
            ]
            for key in stale:
                self._seq_touched.pop(key, None)
                self._max_seq.pop(key, None)
        if stale:
            self.metrics.count("net.dedup.pruned", len(stale))

    def _window_stamp(self, source: str, records: list[Record]) -> list[Record]:
        """Assign incoming records to windows, advancing *source*'s watermark.

        Lateness is judged per source (more than ``lateness`` behind that
        source's own stream front) so a re-parented client replaying its
        spool after a failover folds its history exactly; stamped copies
        for windows already retired are dropped regardless — their final
        results are immutable, and the replayed data is already inside
        them.  Late and un-timed records are counted, never folded.
        """
        from ..window.assign import WINDOW_END, EventClock, stamp_record

        stamped: list[Record] = []
        late = untimed = 0
        with self._window_lock:
            clock = self._window_clocks.get(source)
            if clock is None:
                clock = EventClock(self.window_time_attribute)
                self._window_clocks[source] = clock
            tracker = self._window_tracker
            floor = self._retire_floor
            for record in records:
                t = clock.event_time(record)
                if t is None:
                    untimed += 1
                    continue
                if tracker.is_late(t, source):
                    late += 1
                    continue
                tracker.observe(source, t)
                folded = False
                for copy in stamp_record(record, t, self.window_assigner):
                    if floor is not None:
                        end = copy.get(WINDOW_END)
                        if end.is_numeric and float(end.value) <= floor:
                            continue
                    stamped.append(copy)
                    folded = True
                if not folded:
                    late += 1
            self._window_late += late
        if late:
            self.metrics.count("window.late", late, what="records")
        if untimed:
            self.metrics.count("window.untimed", untimed)
        return stamped

    async def _fold_records(
        self, tenant: _TenantState, client_id: str, body: dict, sections: dict
    ) -> tuple[MessageType, dict]:
        """RECORDS handler: admission control instead of blocking the loop."""
        seq = int(require(body, "seq", (int,)))
        records = records_from_binary(_section(sections, "records"), self.max_decoded)
        key = self._dedup_key(tenant, client_id)
        if self._dedup_peek(key, seq):
            self.metrics.count("net.duplicates")
            return (
                MessageType.ACK,
                {"seq": seq, "count": len(records), "duplicate": True},
            )
        self._check_entries_quota(tenant)
        if tenant.over_queue_quota():
            return self._busy(tenant, seq)
        routed = self._window_stamp(client_id, records) if self.windowed else records
        if routed:
            # Windowed stamping already advanced the watermark, so a windowed
            # batch can no longer be shed — it waits for queue space instead.
            puts = [
                (shard, ("records", tenant.name, bucket, tenant))
                for shard, bucket in self._bucket_records(routed)
            ]
            if not await self._put(tenant, puts, shed=not self.windowed):
                return self._busy(tenant, seq)
        self._dedup_mark(key, seq)
        self.metrics.count("net.batches", kind="records")
        self.metrics.count("net.records", len(records))
        return (
            MessageType.ACK,
            {"seq": seq, "count": len(records), "duplicate": False},
        )

    def _validate_states(self, groups) -> None:
        """Shape-check incoming states against the scheme's operators.

        Exported states are positional; a malformed batch must be refused
        here, at the connection boundary, rather than crash a shard worker.
        """
        widths = [op.state_width() for op in self.scheme.ops]
        for entries, cells in groups:
            if len(cells) != len(widths):
                raise ProtocolError(
                    f"state group has {len(cells)} operator states, "
                    f"scheme has {len(widths)} operators"
                )
            for op_state, width in zip(cells, widths):
                if len(op_state) != width:
                    raise ProtocolError(
                        f"operator state has {len(op_state)} cells, expected {width}"
                    )

    async def _fold_states(
        self, tenant: _TenantState, client_id: str, body: dict, sections: dict
    ) -> tuple[MessageType, dict]:
        """STATES handler: admission control instead of blocking the loop."""
        seq = int(require(body, "seq", (int,)))
        groups = self._groups_from(sections)
        self._check_scheme(str(require(body, "scheme", (str,))))
        self._validate_states(groups)
        offered = int(body.get("offered", 0))
        processed = int(body.get("processed", 0))
        key = self._dedup_key(tenant, client_id)
        if self._dedup_peek(key, seq):
            self.metrics.count("net.duplicates")
            return (
                MessageType.ACK,
                {"seq": seq, "count": len(groups), "duplicate": True},
            )
        self._check_entries_quota(tenant)
        if tenant.over_queue_quota():
            return self._busy(tenant, seq)
        puts = [
            (shard, ("states", tenant.name, bucket, off, proc, tenant))
            for shard, bucket, off, proc in self._bucket_states(groups, offered, processed)
        ]
        if not await self._put(tenant, puts, shed=True):
            return self._busy(tenant, seq)
        self._dedup_mark(key, seq)
        self.metrics.count("net.batches", kind="states")
        self.metrics.count("net.groups", len(groups))
        return (
            MessageType.ACK,
            {"seq": seq, "count": len(groups), "duplicate": False},
        )

    # -- reduction tree: receiving side -------------------------------------------

    def _groups_from(self, sections: dict) -> list:
        """Decode exported states from the frame's ``groups`` section."""
        return states_from_binary(_section(sections, "groups"), self.max_decoded)

    def _fold_forward(
        self, client_id: str, body: dict, sections: dict
    ) -> tuple[MessageType, dict]:
        """Fold a downstream relay's delta, segregated per (sender, origin).

        Tree traffic always lives in the default namespace (relay mode
        forbids tenants) and is never shed — dropping a relay delta would
        stall the whole subtree behind the spool's redelivery cadence.
        """
        seq = int(require(body, "seq", (int,)))
        from_epoch = str(require(body, "from_epoch", (str,)))
        origin = origin_from_wire(require(body, "origin", (list,)))
        groups = self._groups_from(sections)
        self._check_scheme(str(require(body, "scheme", (str,))))
        self._validate_states(groups)
        offered = int(body.get("offered", 0))
        processed = int(body.get("processed", 0))
        watermark = body.get("watermark")
        if not isinstance(watermark, (int, float)) or isinstance(watermark, bool):
            watermark = None
        sender = (client_id, from_epoch)
        duplicate = self._dedup_peek(client_id, seq)
        fenced = False
        if not duplicate:
            if self.windowed:
                # States for already-retired windows (a spool replay after a
                # mid-tree failover re-delivers data that is inside the
                # retired result) must not fold twice: drop them as late.
                # Lock order: _window_lock is taken and released *before*
                # _forward_lock, never nested inside it.
                with self._window_lock:
                    floor = self._retire_floor
                if floor is not None:
                    closed = _window_closed(floor)
                    kept = [g for g in groups if not closed(g[0])]
                    dropped = len(groups) - len(kept)
                    if dropped:
                        groups = kept
                        self.metrics.count("window.late", dropped, what="states")
            start = time.perf_counter()
            with self._forward_lock:
                if sender in self._fenced:
                    # A zombie: this incarnation was declared dead and its
                    # data retracted.  ACK (so a stuck spool drains) but
                    # drop — the children's replay owns this data now.
                    fenced = True
                else:
                    db = self._forwarded.get((sender, origin))
                    if db is None:
                        db = AggregationDB(self.scheme)
                        self._forwarded[(sender, origin)] = db
                    db.load_states(
                        groups,
                        offered=offered,
                        processed=processed,
                        source=(client_id, from_epoch, seq),
                    )
                    self._origins_by_sender.setdefault(sender, set()).add(origin)
                    self._cache_telemetry(body.get("telemetry"))
            elapsed = time.perf_counter() - start
            self._combine_seconds += elapsed
            self._forwards_received += 1
            self.metrics.timing("net.forward.combine", elapsed)
            if fenced:
                self.metrics.count("net.fenced")
            else:
                self.metrics.count("net.batches", kind="forward")
                self.metrics.count("net.groups", len(groups))
                if self.windowed and watermark is not None:
                    # The delta carrying mark w was exported after w was
                    # captured downstream, so it contains everything below w
                    # from that subtree — safe to advance our view of it.
                    with self._window_lock:
                        self._window_tracker.update(client_id, float(watermark))
            self._dedup_mark(client_id, seq)
        else:
            self.metrics.count("net.duplicates")
        return (
            MessageType.ACK,
            {"seq": seq, "count": len(groups), "duplicate": duplicate},
        )

    def _fold_retract(self, client_id: str, body: dict) -> tuple[MessageType, dict]:
        """Drop forwarded origins a downstream relay declared dead."""
        seq = int(require(body, "seq", (int,)))
        from_epoch = str(require(body, "from_epoch", (str,)))
        origins = origins_from_wire(require(body, "origins", (list,)))
        sender = (client_id, from_epoch)
        duplicate = self._dedup_peek(client_id, seq)
        if not duplicate:
            with self._forward_lock:
                if sender not in self._fenced:
                    self._drop_origins(origins)
            self._dedup_mark(client_id, seq)
            self.metrics.count("net.retracts", len(origins))
        else:
            self.metrics.count("net.duplicates")
        return (
            MessageType.ACK,
            {"seq": seq, "count": len(origins), "duplicate": duplicate},
        )

    def _drop_origins(self, origins) -> None:
        """Remove every segregated DB holding these origins (lock held).

        If we are a relay ourselves, queue the retraction for the next
        forward cycle — it must reach our parent before any of the
        re-delivered data does, which the cycle's retract-first ordering and
        the forward client's sequence stream guarantee.
        """
        doomed = set(origins)
        for key in [k for k in self._forwarded if k[1] in doomed]:
            del self._forwarded[key]
        for sender_origins in self._origins_by_sender.values():
            sender_origins -= doomed
        if self.is_relay:
            self._pending_retracts |= doomed

    def _retract_sender(self, dead: tuple[str, str]) -> None:
        """Fence a dead relay incarnation and retract its contribution.

        Called when one of its children shows up here with
        ``failover_from``.  Everything the dead incarnation forwarded —
        its own partial aggregates *and* deltas it passed through for its
        descendants — is dropped; the re-parented children replay their
        spools and re-deliver all of it directly.
        """
        with self._forward_lock:
            if dead in self._fenced:
                return  # a sibling already announced this death
            self._fenced.add(dead)
            origins = set(self._origins_by_sender.pop(dead, set()))
            origins.add(dead)  # its own origin, even if it never got a cycle out
            self._drop_origins(origins)
        if self.windowed:
            # A dead sender must stop holding the global watermark back; its
            # re-parented children report their own marks directly.
            with self._window_lock:
                self._window_tracker.remove(dead[0])
                self._window_clocks.pop(dead[0], None)
        self.metrics.count("net.failover.retractions")

    def _cache_telemetry(self, summaries) -> None:
        """Keep the latest per-node tree telemetry heard from downstream."""
        if not isinstance(summaries, list):
            return
        for summary in summaries:
            if not isinstance(summary, dict):
                continue
            node = summary.get("node")
            if not isinstance(node, str) or not node:
                continue
            clean = {"node": node}
            for field in (
                "level",
                "forwarded_batches",
                "forwarded_bytes",
                "combine_seconds",
                "forwards_received",
                "failovers",
            ):
                value = summary.get(field)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    clean[field] = value
            self._tree_stats[node] = clean

    def _query_response(
        self, body: dict, tenant: _TenantState
    ) -> tuple[MessageType, dict]:
        text = str(require(body, "q", (str,)))
        target = str(body.get("target", "aggregate"))
        result = self.run_query(text, target, tenant=tenant.name)
        return self._result_frame(
            result.records, result.preferred_columns, result.format
        )

    def _stats_response(self) -> tuple[MessageType, dict]:
        return self._result_frame(self.stats_records(), [], None)

    def _drain_response(self, tenant: _TenantState) -> tuple[MessageType, dict]:
        return self._result_frame(
            self.drain_results(tenant=tenant.name),
            list(self.scheme.output_labels),
            None,
        )

    def _result_frame(self, records, columns, fmt) -> tuple[MessageType, dict]:
        return (
            MessageType.RESULT,
            {
                "records": records_to_wire(records),
                "columns": list(columns),
                "format": fmt,
            },
        )

    def __repr__(self) -> str:
        return (
            f"AggregationServer({self.scheme.describe()!r}, "
            f"addr={self.address}, shards={len(self._shards)})"
        )


def _parse_upstream(
    upstream: Union[tuple[str, int], str, None],
) -> Optional[tuple[str, int]]:
    """Accept ``(host, port)`` or ``"host:port"`` parent addresses."""
    if upstream is None:
        return None
    if isinstance(upstream, str):
        host, sep, port = upstream.rpartition(":")
        if not sep or not host:
            raise ValueError(f"upstream must be host:port, got {upstream!r}")
        return (host, int(port))
    host, port = upstream
    return (str(host), int(port))


def _section(sections: dict, name: str):
    try:
        return sections[name]
    except KeyError:
        raise ProtocolError(f"frame carries no {name!r} binary section") from None
