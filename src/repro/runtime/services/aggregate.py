"""The on-line aggregation service (the paper's Section IV-B).

Receives snapshot records, extracts the aggregation key, and streams the
aggregation attributes into an in-memory :class:`AggregationDB` — input
records are never stored.  One database exists per monitored thread, so the
hot path takes no locks; consequently (and faithfully to the paper) values
are *not* aggregated across threads at runtime: flushed records carry a
``thread.id`` entry when more than one thread contributed, and a
post-processing query merges them.

**Context-key caching.**  The blackboard's contribution to the aggregation
key only changes at ``begin``/``end``/``set``, and the blackboard interns
nested path values, so re-entering a region puts the *identical* ``Variant``
objects back into the snapshot.  The service exploits this: per thread it
memoizes ``id`` tuples of the GROUP BY entry values -> the entry's state
lists, so steady-state snapshots skip key extraction (tuple building,
``Variant`` hashing, table lookup) entirely — mirroring Caliper's
incremental key-node update.  The memo holds strong references to the keyed
variants, which makes the ``id`` comparison sound: a live object's address
cannot be reused.  Invalidation: :attr:`AggregationDB.table_epoch` (bumped
by ``clear()``) drops the memo, and a size cap bounds it under churning
non-interned key values.

Config keys (prefix ``aggregate.``):

``config``
    CalQL text of the aggregation scheme, e.g.
    ``"AGGREGATE count, sum(time.duration) GROUP BY function"``.  A
    pre-built :class:`AggregationScheme` may be passed instead via the
    ``scheme`` key.
``rename_count``
    When true (default), the flushed ``count`` column is renamed to
    ``aggregate.count``.  This matches Caliper, whose two-stage workflows
    the paper demonstrates as
    ``AGGREGATE sum(aggregate.count) GROUP BY kernel`` over per-process
    profiles produced by ``AGGREGATE count GROUP BY kernel``.
"""

from __future__ import annotations

import threading

from ... import observe
from ...aggregate.db import AggregationDB
from ...aggregate.scheme import AggregationScheme
from ...common.errors import ConfigError
from ...common.record import Record
from ...common.variant import ValueType, Variant
from .base import Service

__all__ = ["AggregateService"]

#: memo size cap per thread — bounds growth when key values churn (e.g.
#: iteration counters as GROUP BY attributes defeat interning)
_KEY_CACHE_LIMIT = 4096


class _ThreadState:
    """Per-thread aggregation state: the DB plus the context-key memo."""

    __slots__ = ("db", "memo", "epoch", "hits", "misses", "update", "lookup")

    def __init__(self, db: AggregationDB) -> None:
        self.db = db
        # id-tuple of GROUP BY entry variants -> (variants, state lists).
        # The variants are stored to keep them alive — that is what makes
        # keying on object identity sound.
        self.memo: dict = {}
        self.epoch = db.table_epoch
        self.hits = 0
        self.misses = 0
        # Bound once: per-record fold entry points.
        self.update = db.plan.update
        self.lookup = db.lookup_states


class AggregateService(Service):
    name = "aggregate"
    #: snapshot records are folded synchronously and never retained, so the
    #: channel may hand this service the blackboard's live record
    folds_immediately = True

    def __init__(self, channel) -> None:
        super().__init__(channel)
        scheme = self.config.get("scheme")
        if scheme is None:
            text = self.config.get_string("config", "")
            if not text:
                raise ConfigError(
                    "aggregate service needs 'aggregate.config' (CalQL text) "
                    "or 'aggregate.scheme' (AggregationScheme object)"
                )
            from ...calql import parse_scheme  # local import: calql builds on aggregate

            scheme = parse_scheme(text)
        elif not isinstance(scheme, AggregationScheme):
            raise ConfigError(f"'aggregate.scheme' must be an AggregationScheme, got {scheme!r}")
        self.scheme: AggregationScheme = scheme
        self._rename_count = self.config.get_bool("rename_count", True)
        self._key_labels = tuple(scheme.key)
        self._predicate = scheme.predicate
        self._tls = threading.local()
        # A closure specialized for this service's scheme (single vs
        # multi-label key, predicate presence) — the per-snapshot path
        # re-reads none of it.
        self.process = self._make_process()
        # Keyed by a unique per-thread sequence number, NOT the OS thread
        # ident: idents are reused after a thread exits, and keying by them
        # would silently drop a finished thread's aggregation results.
        self._all_dbs: dict[int, AggregationDB] = {}
        self._all_states: dict[int, _ThreadState] = {}
        self._next_thread_seq = 0
        self._dbs_lock = threading.Lock()

    # -- hot path ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(AggregationDB(self.scheme))
            self._tls.state = state
            # Registration takes the lock once per thread lifetime, not per
            # snapshot — the paper's "per-thread DB avoids thread locks".
            with self._dbs_lock:
                self._all_dbs[self._next_thread_seq] = state.db
                self._all_states[self._next_thread_seq] = state
                self._next_thread_seq += 1
        return state

    def wants(self, hook: str) -> bool:
        # ``process`` exists only as the per-instance closure bound in
        # __init__, which the class-level override check cannot see.
        return hook == "process" or super().wants(hook)

    def _make_process(self):
        """Build the per-record fold entry point for this scheme."""
        tls = self._tls
        make_state = self._state
        predicate = self._predicate
        labels = self._key_labels
        single = labels[0] if len(labels) == 1 else None
        limit = _KEY_CACHE_LIMIT

        def process(record: Record) -> None:
            state = getattr(tls, "state", None)
            if state is None:
                state = make_state()
            db = state.db
            db.num_offered += 1
            if predicate is not None and not predicate(record):
                return
            if state.epoch != db.table_epoch:
                state.memo.clear()
                state.epoch = db.table_epoch
            entries = record._entries
            if single is not None:
                variants = entries.get(single)
                ids = id(variants)
            else:
                variants = tuple(entries.get(lbl) for lbl in labels)
                ids = tuple(map(id, variants))
            memo = state.memo
            hit = memo.get(ids)
            if hit is None:
                states = state.lookup(record)
                if len(memo) >= limit:
                    memo.clear()
                memo[ids] = (variants, states)
                state.misses += 1
            else:
                states = hit[1]
                state.hits += 1
            db.num_processed += 1
            state.update(states, record)

        return process

    # -- flush ----------------------------------------------------------------

    def flush(self) -> list[Record]:
        with self._dbs_lock:
            dbs = dict(self._all_dbs)
            states = list(self._all_states.values())
        observe.gauge(
            "aggregate.keycache.hits",
            sum(s.hits for s in states),
            channel=self.channel.name,
        )
        observe.gauge(
            "aggregate.keycache.misses",
            sum(s.misses for s in states),
            channel=self.channel.name,
        )
        multi = len(dbs) > 1
        out: list[Record] = []
        for tid, db in sorted(dbs.items()):
            for record in db.flush():
                if self._rename_count and "count" in record:
                    entries = record.as_dict()
                    entries["aggregate.count"] = entries.pop("count")
                    record = Record.from_variants(entries)
                if multi:
                    record = record.with_entries(
                        {"thread.id": Variant(ValueType.INT, tid)}
                    )
                out.append(record)
        return out

    def databases(self) -> list[AggregationDB]:
        """The per-thread partial databases (mergeable via ``load_states``)."""
        with self._dbs_lock:
            return [db for _, db in sorted(self._all_dbs.items())]

    # -- introspection -------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Unique aggregation keys across all per-thread databases."""
        with self._dbs_lock:
            return sum(db.num_entries for db in self._all_dbs.values())

    @property
    def num_processed(self) -> int:
        with self._dbs_lock:
            return sum(db.num_processed for db in self._all_dbs.values())

    def stats(self) -> dict[str, object]:
        """Per-channel aggregation cost figures (the paper's Table I row).

        Summed across the per-thread databases: unique entries, stream
        counters, state-cell memory footprint, estimated wire size, the
        number of entries whose key was only partially extractable
        (records missing one or more GROUP BY attributes), plus the
        context-key cache hit/miss counters.
        """
        with self._dbs_lock:
            dbs = list(self._all_dbs.values())
            states = list(self._all_states.values())
        return {
            "db.threads": len(dbs),
            "db.entries": sum(db.num_entries for db in dbs),
            "db.offered": sum(db.num_offered for db in dbs),
            "db.processed": sum(db.num_processed for db in dbs),
            "db.memory_footprint": sum(db.memory_footprint() for db in dbs),
            "db.wire_size": sum(db.wire_size() for db in dbs),
            "db.key_misses": sum(db.num_partial_keys for db in dbs),
            "keycache.hits": sum(s.hits for s in states),
            "keycache.misses": sum(s.misses for s in states),
        }
