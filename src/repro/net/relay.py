"""The relay plane: one node's place in a reduction tree.

With ``upstream`` set the server is an interior node of the paper's Fig. 6
reduction tree over TCP: it folds incoming records and states into its
shards as usual, but periodically takes the accumulated *delta* out of the
shards' state tables (:meth:`~repro.aggregate.table.StateTable.take`: a
slice, the shard left empty) and forwards the per-key partial states to its
parent through a :class:`~repro.net.client.FlushClient` (write-ahead
spooled, replayed, exactly-once), encoded straight from the columns.
Every node — the root included — also *receives*: FORWARD deltas from
downstream relays are decoded into state tables and merged by column into
one table per ``(sender, origin)``, passed through with their origin
intact, which is what makes
*retraction* possible: when a relay dies, its children re-parent to this
node (their grandparent), announce the dead incarnation, and this node
drops everything that incarnation forwarded — the children's spool replay
re-delivers all of it first-hand, so root totals stay exact through
mid-tree failures.

Locks, outermost first: ``_cycle_lock`` (a whole forward cycle, shard
barrier included), then one of two leaves never held together: ``_lock``
(everything received) or the window front's ``lock``.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Optional, Union

import numpy as np

from ..aggregate.table import StateTable
from ..common.errors import ReproError
from ..common.record import Record
from ..common.variant import Variant
from ..window.assign import WINDOW_END
from ..window.db import WindowFront
from .admission import DedupWindow
from .client import FlushClient
from .protocol import origin_from_wire, origins_from_wire, require
from .shards import Shard, ShardPlane

__all__ = ["RelayPlane"]

#: per-node tree telemetry: summary field -> (``observe.*`` label, type, default)
_TREE_FIELDS = {
    "level": ("observe.level", int, -1),
    "forwarded_batches": ("observe.forward.batches", int, 0),
    "forwarded_bytes": ("observe.forward.bytes", int, 0),
    "combine_seconds": ("observe.combine.seconds", float, 0.0),
    "forwards_received": ("observe.forwards", int, 0),
    "failovers": ("observe.failovers", int, 0),
}


def _take_delta(shard: Shard) -> StateTable:
    """Barrier call: hand over everything folded since the last cycle and
    reset to empty, so the same partial state is never forwarded twice."""
    return shard.table.take()


class RelayPlane:
    """Forward cycle, per-``(sender, origin)`` DBs, fencing, retraction."""

    def __init__(
        self, shards: ShardPlane, dedup: DedupWindow, window: Optional[WindowFront], epoch: str,
        upstream: Union[tuple[str, int], str, None] = None, forward_interval: float = 0.5,
        failover_after: Optional[float] = None, relay_id: Optional[str] = None,
        level: Optional[int] = None, spool_dir: Optional[str] = None,
    ) -> None:
        self._shards = shards
        self._metrics = shards.metrics
        self._dedup = dedup
        self._window = window
        self.epoch = epoch
        self.upstream = _parse_upstream(upstream)
        self.is_relay = self.upstream is not None
        #: stable node identity across the tree (also the forward client id)
        self.forward_id = relay_id or f"node-{uuid.uuid4().hex[:10]}"
        #: depth in the tree, root = 0; -1 = unknown until the parent says
        self.level = level if level is not None else (0 if not self.is_relay else -1)
        self._level_explicit = level is not None
        self.forward_interval = forward_interval
        self._client_options = dict(
            scheme=shards.scheme.describe(), client_id=self.forward_id, spool_dir=spool_dir,
            failover_after=failover_after, retries=1, backoff=0.05, backoff_max=0.5,
        )
        self.client: Optional[FlushClient] = None
        self.forward_thread: Optional[threading.Thread] = None
        #: held across a whole forward cycle (collect -> send -> flush), so a
        #: forward_now() caller waits for the periodic forwarder's in-flight
        #: delta instead of returning while it is still detached
        self._cycle_lock = threading.Lock()
        #: guards every structure below — handlers and the forwarder race
        self._lock = threading.Lock()
        #: (sender, origin) -> segregated pass-through table; sender/origin
        #: are (id, epoch) pairs.  Segregation per origin is what lets a
        #: relay retract exactly one dead subtree's contribution later.
        self._forwarded: dict[tuple, StateTable] = {}
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

    def start(self) -> None:
        if not self.is_relay:
            return
        self.client = FlushClient(*self.upstream, **self._client_options)
        # A failed cycle (closed client during shutdown, a hard refusal from
        # the parent) is only counted: the spool has the delta, and hammering
        # the parent helps nobody this cycle.
        self.forward_thread = self._shards.every(self.forward_interval, self.forward_now, "forward")

    def stop(self, timeout: float) -> None:
        """Join the forwarder, ship the residue upstream, say goodbye."""
        if self.forward_thread is not None:
            self.forward_thread.join(timeout=timeout)
            self.forward_thread = None
        if self.client is not None:
            # Final forward: the shards are quiescent now, so this ships the
            # residue (and any pending retraction) upstream before goodbye.
            try:
                self.forward_now(final=True)
            except ReproError:
                pass  # parent unreachable: the forward spool keeps the delta
            self.client.close()

    def kill(self) -> None:
        """A killed relay never flushes upstream: drop the connection and
        poison the client so a racing forwarder thread cannot revive it."""
        if self.client is not None:
            self.client.abort()

    # -- sending side --------------------------------------------------------------

    def forward_now(self, final: bool = False) -> bool:
        """Run one forward cycle: retracts first, then every pending delta.

        Takes each shard's table (our own contribution since the last
        cycle), detaches the segregated pass-through tables, and ships
        everything upstream tagged with its origin.  Returns True when the
        parent acknowledged everything; False leaves the deltas in the
        forward client's write-ahead spool for the next cycle's replay.
        Cycles are serialised: a call made while the periodic forwarder has
        a delta in flight waits for it, so everything acknowledged before
        the call is upstream (or spooled) when it returns.
        """
        if not self.is_relay:
            raise ReproError("forward_now() requires relay mode (upstream=)")
        with self._cycle_lock:
            return self._cycle(final)

    def _cycle(self, final: bool) -> bool:
        """Collect -> send -> flush; the caller holds ``_cycle_lock``."""
        client = self.client
        watermark = None
        if self._window is not None:
            # Captured *before* the export barrier: every record that
            # advanced the tracker to this mark was folded before the
            # barrier, so the delta carrying the mark also carries all data
            # below it — the invariant root-side retirement relies on.
            with self._window.lock:
                watermark = self._window.watermark()
        # The barrier can fail (worker error, timeout); nothing is detached
        # before it succeeds, so a failed cycle loses nothing.
        own, *rest = self._shards.call(_take_delta)
        for delta in rest:
            own.merge(delta)
        with self._lock:
            retracts = sorted(self._pending_retracts)
            self._pending_retracts.clear()
            detached, self._forwarded = self._forwarded, {}
        ok = True
        if retracts:
            # Must precede any re-forwarded data; both ride the client's
            # sequence stream, so spooled ordering survives parent outages.
            ok = client.send_retract(retracts, from_epoch=self.epoch) and ok

        def send(table, origin, **extras) -> bool:
            return client.send_forward(
                table, origin=origin, from_epoch=self.epoch, level=self.level, **extras
            )

        def pending(table) -> bool:
            return bool(len(table) or table.num_offered or table.num_processed)

        for (_sender, origin), table in sorted(detached.items()):
            if pending(table):
                ok = send(table, origin) and ok
        if pending(own) or final or watermark is not None:
            # Sent last so the piggybacked telemetry already counts this
            # cycle's pass-through traffic (it can never include itself).
            # A windowed relay forwards even an empty cycle: the piggybacked
            # watermark is what lets the root retire windows.
            ok = send(
                own, (self.forward_id, self.epoch),
                telemetry=self.tree_nodes(), watermark=watermark,
            ) and ok
        if client.num_spooled:
            # Nothing new may be pending this cycle, but earlier deltas can
            # still sit in the spool behind a dead parent: every cycle must
            # retry them, because redelivery is also what drives the
            # failure window towards re-parenting.
            ok = client.flush() and ok
        if not self._level_explicit:
            # Derive our depth from the parent's advertised level (root = 0).
            parent_level = client.server_info.get("level")
            if isinstance(parent_level, int) and parent_level >= 0:
                self.level = parent_level + 1
        self._metrics.gauge("net.forward.spooled", client.num_spooled)
        return ok

    # -- receiving side ------------------------------------------------------------

    def on_forward(self, client_id: str, body: dict, table: StateTable, stream: str = ""):
        """Merge a downstream relay's decoded delta (its stream counters
        included), segregated per (sender, origin).

        Tree traffic always lives in the default namespace (relay mode
        forbids tenants) and is never shed — dropping a relay delta would
        stall the whole subtree behind the spool's redelivery cadence.
        """
        seq = int(require(body, "seq", (int,)))
        sender = (client_id, str(require(body, "from_epoch", (str,))))
        origin = origin_from_wire(require(body, "origin", (list,)))
        fold = lambda: self._fold_forward(sender, origin, seq, table, body)  # noqa: E731
        return self._dedup.once(client_id, seq, len(table), fold, stream)

    def _fold_forward(self, sender, origin, seq: int, table: StateTable, body: dict) -> int:
        window = self._window
        rows, kept = None, len(table)
        if window is not None:
            # States for already-retired windows (a spool replay after a
            # mid-tree failover re-delivers data that is inside the retired
            # result) must not fold twice: drop them as late.
            with window.lock:
                floor = window.retire_floor
            if floor is not None:
                closed = table.at_or_below(WINDOW_END, floor)
                if closed.any():
                    rows = np.flatnonzero(~closed)
                    self._metrics.count("window.late", kept - len(rows), what="states")
                    kept = len(rows)
        start = time.perf_counter()
        with self._lock:
            # A fenced sender is a zombie: this incarnation was declared
            # dead and its data retracted.  ACK (so a stuck spool drains)
            # but drop — the children's replay owns this data now.
            fenced = sender in self._fenced
            if not fenced:
                merged = self._forwarded.get((sender, origin))
                if merged is None:
                    merged = self._forwarded[(sender, origin)] = StateTable(self._shards.scheme)
                merged.merge(table, rows, source=(*sender, seq))
                self._origins_by_sender.setdefault(sender, set()).add(origin)
                self._cache_telemetry(body.get("telemetry"))
            # Under the lock: FORWARD handlers run on several executor
            # threads, and += on a shared float loses updates.
            elapsed = time.perf_counter() - start
            self._combine_seconds += elapsed
            self._forwards_received += 1
        self._metrics.timing("net.forward.combine", elapsed)
        if fenced:
            self._metrics.count("net.fenced")
            return kept
        self._metrics.count("net.batches", kind="forward")
        self._metrics.count("net.groups", kept)
        watermark = body.get("watermark")
        if window is not None and _is_number(watermark):
            # The delta carrying mark w was exported after w was captured
            # downstream, so it contains everything below w from that
            # subtree — safe to advance our view of it.
            with window.lock:
                window.tracker.update(sender[0], float(watermark))
        return kept

    def on_retract(self, client_id: str, body: dict, stream: str = ""):
        """Drop forwarded origins a downstream relay declared dead."""
        seq = int(require(body, "seq", (int,)))
        sender = (client_id, str(require(body, "from_epoch", (str,))))
        origins = origins_from_wire(require(body, "origins", (list,)))

        def apply() -> int:
            with self._lock:
                if sender not in self._fenced:
                    self._drop_origins(origins)
            self._metrics.count("net.retracts", len(origins))
            return len(origins)

        return self._dedup.once(client_id, seq, len(origins), apply, stream)

    def _drop_origins(self, origins) -> None:
        """Remove every segregated table holding these origins (lock held).

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

    def retract_sender(self, dead: tuple[str, str]) -> None:
        """Fence a dead relay incarnation and retract its contribution.

        Called when one of its children shows up here with
        ``failover_from``.  Everything the dead incarnation forwarded —
        its own partial aggregates *and* deltas it passed through for its
        descendants — is dropped; the re-parented children replay their
        spools and re-deliver all of it directly.
        """
        with self._lock:
            if dead in self._fenced:
                return  # a sibling already announced this death
            self._fenced.add(dead)
            origins = set(self._origins_by_sender.pop(dead, set()))
            origins.add(dead)  # its own origin, even if it never got a cycle out
            self._drop_origins(origins)
        if self._window is not None:
            # Its re-parented children report their own marks directly.
            with self._window.lock:
                self._window.forget_source(dead[0])
        self._metrics.count("net.failover.retractions")

    # -- what the merged views and window retirement read ---------------------------

    def snapshot(self) -> list[StateTable]:
        """Copies of every forwarded table (FORWARD handlers merge into
        them concurrently, so the copies are taken under the lock)."""
        with self._lock:
            return [table.copy() for table in self._forwarded.values()]

    def pop_closed(self, mark: float) -> list[StateTable]:
        """Pop the forwarded slots of every window closed below ``mark``."""
        with self._lock:
            return [table.pop(WINDOW_END, mark) for table in self._forwarded.values()]

    # -- tree telemetry ------------------------------------------------------------

    def tree_nodes(self) -> list[dict]:
        """Everything we know about the subtree, ourselves first.

        Piggybacks on the own-origin FORWARD each cycle so the root can
        answer per-level CalQL queries (levels, forwarded wire bytes,
        combine time) without a separate telemetry channel.
        """
        counters = self.client.counters if self.client else {}
        with self._lock:
            own = {
                "node": self.forward_id,
                "level": self.level,
                "forwarded_batches": counters.get("batches", 0),
                "forwarded_bytes": counters.get("wire_bytes", 0),
                "combine_seconds": self._combine_seconds,
                "forwards_received": self._forwards_received,
                "failovers": counters.get("failovers", 0),
            }
            return [own] + [dict(summary) for summary in self._tree_stats.values()]

    def tree_records(self) -> list[Record]:
        """One ``observe.kind=tree`` record per known tree node — per-level
        combine time and forwarded wire bytes become ordinary CalQL-queryable
        facts (``... WHERE observe.kind = tree GROUP BY observe.level``)."""
        nodes = self.tree_nodes()
        if not self.is_relay and len(nodes) == 1:
            return []
        records = []
        for node in nodes:
            row = {
                "observe.kind": Variant.of("tree"),
                "observe.node": Variant.of(str(node.get("node", ""))),
            }
            for field, (label, cast, default) in _TREE_FIELDS.items():
                row[label] = Variant.of(cast(node.get(field, default)))
            records.append(Record.from_variants(row))
        return records

    def _cache_telemetry(self, summaries) -> None:
        """Keep the latest per-node tree telemetry heard from downstream."""
        for summary in summaries if isinstance(summaries, list) else ():
            node = summary.get("node") if isinstance(summary, dict) else None
            if isinstance(node, str) and node:
                fields = {f: summary[f] for f in _TREE_FIELDS if _is_number(summary.get(f))}
                self._tree_stats[node] = {"node": node, **fields}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
