"""The admission plane: tenants, quotas, the replay-dedup window, BUSY.

Everything that decides whether a frame may fold, before any shard sees it:

* **Multi-tenancy** — an auth token presented in HELLO names a tenant, each
  with its own per-shard :class:`~repro.aggregate.db.AggregationDB` (so
  cross-tenant queries can never observe each other's records) and a
  :class:`TenantQuota` bounding connections, queued batches and DB entries.
* **Exactly-once** — batches carry client-assigned sequence numbers; the
  :class:`DedupWindow` remembers the highest one folded per client stream
  *within this server epoch* and duplicates are acknowledged but skipped,
  so a client replaying after a lost ACK cannot double-count.
* **Admission control** — when shard queues back up (or a tenant is over
  its queued-batch quota) the answer is ``BUSY`` with a ``retry_after``
  instead of a blocked event loop; the batch is *not* folded and not
  dedup-marked, so the client's write-ahead spool replays it later.

Locks: ``Admission._lock`` guards the tenants' counters, ``DedupWindow._lock``
its two maps; neither is ever held while taking another lock.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from typing import Callable, Optional

from ..common.errors import ReproError
from ..observe import MetricsRegistry
from .protocol import MessageType, ProtocolError, busy_body
from .shards import DEFAULT_TENANT, KEY_SEP, ShardPlane

__all__ = ["Admission", "DedupWindow", "Refused", "TenantQuota", "ack"]


class Refused(ProtocolError):
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

    __slots__ = ("max_connections", "max_queued", "max_db_entries")

    def __init__(
        self, max_connections: int = 0, max_queued: int = 0, max_db_entries: int = 0
    ) -> None:
        self.max_connections = int(max_connections or 0)
        self.max_queued = int(max_queued or 0)
        self.max_db_entries = int(max_db_entries or 0)

    @classmethod
    def from_spec(cls, spec) -> tuple[str, "TenantQuota"]:
        """Accept ``"name"`` or ``{"name": ..., "max_queued": ...}`` specs.

        Dict specs take ``name`` plus any of the three quota keys; any other
        key is an error (a misspelt quota must not silently mean "unlimited").
        """
        if isinstance(spec, str):
            return spec, cls()
        if isinstance(spec, dict):
            limits = dict(spec)
            name = limits.pop("name", None)
            if not isinstance(name, str) or not name:
                raise ValueError(f"tenant spec needs a non-empty name: {spec!r}")
            unknown = sorted(set(limits) - set(cls.__slots__))
            if unknown:
                raise ValueError(
                    f"tenant {name!r}: unknown quota key(s) {unknown}, known: {list(cls.__slots__)}"
                )
            return name, cls(**limits)
        raise ValueError(f"tenant spec must be a name or a dict, got {spec!r}")


class _TenantState:
    """Live counters for one tenant, guarded by the admission lock."""

    __slots__ = ("name", "quota", "connections", "queued", "shed", "_lock")

    def __init__(self, name: str, quota: TenantQuota, lock: threading.Lock) -> None:
        self.name = name
        self.quota = quota
        self.connections = 0
        self.queued = 0
        self.shed = 0
        self._lock = lock

    def dedup_key(self, client_id: str) -> str:
        # The default namespace keeps bare client ids (wire/debug
        # compatibility); named tenants prefix theirs so two tenants' "node-1"
        # clients can never collide in the replay-dedup map.
        if self.name == DEFAULT_TENANT:
            return client_id
        return f"{self.name}{KEY_SEP}{client_id}"

    def release_batch(self) -> None:
        """Called by a shard worker once a queued batch has been folded."""
        with self._lock:
            if self.queued > 0:
                self.queued -= 1


def ack(seq: int, count: int, duplicate: bool) -> tuple[MessageType, dict]:
    return (MessageType.ACK, {"seq": seq, "count": count, "duplicate": duplicate})


class DedupWindow:
    """Highest sequence folded per client stream, pruned after ``ttl`` idle
    seconds.  A stream is one client instance (HELLO's ``stream`` id): each
    numbers its batches from 0, so a client restarted under the same id is
    a new stream, not a replay."""

    def __init__(self, ttl: float, metrics: MetricsRegistry) -> None:
        self.ttl = float(ttl)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._max_seq: dict[tuple[str, str], int] = {}
        #: (dedup key, stream) -> monotonic time of last frame; idle entries
        #: past ``ttl`` are pruned so unclean disconnects (no BYE) cannot
        #: grow the map forever under client churn
        self._touched: dict[tuple[str, str], float] = {}

    def __contains__(self, key: str) -> bool:
        """Whether any stream of this client has a batch folded (a scan: for
        inspection, not the frame path)."""
        with self._lock:
            return any(client == key for client, _stream in self._max_seq)

    def seen(self, key: str, seq: int, stream: str = "") -> bool:
        """True if this batch was already folded (ACK but skip).  Peek only:
        the seq is *marked* after the batch commits, so a shed (BUSY) leaves
        no trace and the client's redelivery folds normally."""
        with self._lock:
            self._touched[(key, stream)] = time.monotonic()
            return seq <= self._max_seq.get((key, stream), -1)

    def mark(self, key: str, seq: int, stream: str = "") -> None:
        with self._lock:
            if seq > self._max_seq.get((key, stream), -1):
                self._max_seq[(key, stream)] = seq

    def once(self, key: str, seq: int, count: int, apply: Callable[[], int], stream: str = ""):
        """Run ``apply`` unless ``(key, stream, seq)`` already folded; ACK what
        it returns, or ``count`` for a duplicate.  For never-shed tree traffic."""
        duplicate = self.seen(key, seq, stream)
        if duplicate:
            self._metrics.count("net.duplicates")
        else:
            count = apply()
            self.mark(key, seq, stream)
        return ack(seq, count, duplicate)

    def forget(self, key: str, stream: str = "") -> None:
        """The client said BYE: its replay window ends with its session."""
        with self._lock:
            self._max_seq.pop((key, stream), None)
            self._touched.pop((key, stream), None)

    def prune(self) -> None:
        """Drop the state of streams idle past ``ttl``.  A pruned stream that
        replays after sitting idle longer re-folds — the TTL is the
        documented replay-window bound."""
        now = time.monotonic()
        with self._lock:
            stale = [k for k, touched in self._touched.items() if now - touched > self.ttl]
            for key in stale:
                self._touched.pop(key, None)
                self._max_seq.pop(key, None)
        if stale:
            self._metrics.count("net.dedup.pruned", len(stale))


class Admission:
    """Tenant table, quotas and the data-frame admission sequence."""

    def __init__(
        self, shards: ShardPlane, dedup_ttl: float = 900.0, tenants: Optional[dict] = None,
        require_token: bool = False, admission_timeout: float = 1.0,
        busy_retry_after: float = 0.25,
    ) -> None:
        self._shards = shards
        self._metrics = shards.metrics
        self.dedup = DedupWindow(dedup_ttl, shards.metrics)
        self.require_token = bool(require_token)
        self.admission_timeout = float(admission_timeout)
        self.busy_retry_after = float(busy_retry_after)
        self._lock = threading.Lock()
        #: tenant name -> tenant state (name-keyed: what queries scope by)
        self.tenants = {DEFAULT_TENANT: _TenantState(DEFAULT_TENANT, TenantQuota(), self._lock)}
        #: auth token -> tenant state (token-keyed: what HELLO presents)
        self._by_token: dict[str, _TenantState] = {}
        for token, spec in (tenants or {}).items():
            if not isinstance(token, str) or not token:
                raise ValueError(f"tenant token must be a non-empty string: {token!r}")
            name, quota = TenantQuota.from_spec(spec)
            state = self.tenants.setdefault(name, _TenantState(name, quota, self._lock))
            state.quota = quota
            self._by_token[token] = state

    # -- connections -------------------------------------------------------------

    def connect(self, token) -> _TenantState:
        """Resolve a HELLO token to its tenant and take a connection slot."""
        if token is not None and not isinstance(token, str):
            raise ProtocolError("HELLO token must be a string")
        if token:
            tenant = self._by_token.get(token)
            if tenant is None:
                raise Refused("unknown auth token", code="auth")
        elif self.require_token:
            raise Refused("this server requires an auth token", code="auth")
        else:
            tenant = self.tenants[DEFAULT_TENANT]
        with self._lock:
            limit = tenant.quota.max_connections
            if limit and tenant.connections >= limit:
                raise Refused(
                    f"tenant {tenant.name!r} is at its connection quota ({limit})",
                    code="quota",
                )
            tenant.connections += 1
        return tenant

    def release(self, tenant: _TenantState) -> None:
        with self._lock:
            if tenant.connections > 0:
                tenant.connections -= 1

    def publish_gauges(self) -> None:
        """Refresh the ``net.tenant.*`` gauges (multi-tenant servers only)."""
        with self._lock:
            rows = [(t.name, t.connections, t.queued, t.shed) for t in self.tenants.values()]
        if len(rows) > 1:
            for name, connections, queued, shed in rows:
                self._metrics.gauge("net.tenant.connections", connections, tenant=name)
                self._metrics.gauge("net.tenant.queued", queued, tenant=name)
                self._metrics.gauge("net.tenant.shed", shed, tenant=name)
                self._metrics.gauge("net.tenant.entries", self._shards.entries(name), tenant=name)

    # -- the data-frame admission sequence -----------------------------------------

    async def admit(
        self, tenant: _TenantState, client_id: str, seq: int, kind: str, count: int,
        route: Callable[[], list], shed: bool = True, stream: str = "",
    ) -> tuple[MessageType, dict]:
        """Fold one decoded data frame exactly once, or shed it with BUSY.

        ``kind`` is ``"records"`` or ``"states"`` and ``count`` how many of
        them the frame decoded to.  ``route()`` is called only for a batch
        that may fold and returns the ``(shard, queue item)`` puts.  With
        ``shed=False`` the batch waits for queue space instead.
        """
        key = tenant.dedup_key(client_id)
        if self.dedup.seen(key, seq, stream):
            self._metrics.count("net.duplicates")
            return ack(seq, count, True)
        self._check_entries_quota(tenant)
        limit = tenant.quota.max_queued
        if (limit and tenant.queued >= limit) or not await self._put(tenant, route(), shed):
            with self._lock:
                tenant.shed += 1
            self._metrics.count("net.shed", tenant=tenant.name)
            return (MessageType.BUSY, busy_body(seq, self.busy_retry_after))
        self.dedup.mark(key, seq, stream)
        self._metrics.count("net.batches", kind=kind)
        self._metrics.count("net.records" if kind == "records" else "net.groups", count)
        return ack(seq, count, False)

    def _check_entries_quota(self, tenant: _TenantState) -> None:
        limit = tenant.quota.max_db_entries
        if limit and self._shards.entries(tenant.name) >= limit:
            # Entries never drain on their own (unlike queue depth), so a
            # BUSY retry loop would spin forever: refuse hard instead.
            raise Refused(
                f"tenant {tenant.name!r} is at its entry quota ({limit})", code="quota"
            )

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
                    if self._shards.stopping.is_set():
                        raise ReproError("server is shutting down")
                    if shed and not committed and loop.time() >= deadline:
                        return False
                    await asyncio.sleep(0.002)
                    continue
                with self._lock:
                    tenant.queued += 1
                committed = True
                break
        return True
