"""The on-line aggregation service (the paper's Section IV-B).

Receives snapshots, extracts the aggregation key, and streams the
aggregation attributes into an in-memory :class:`StateTable` — input
records are never stored.  One table exists per monitored thread, so the
hot path takes no locks; consequently (and faithfully to the paper) values
are *not* aggregated across threads at runtime: flushed records carry a
``thread.id`` entry when more than one thread contributed, and a
post-processing query merges them.

**The ring.**  A snapshot is one row appended to its thread's ring, a list
of at most :data:`RING_CAPACITY` rows.  A row holds what the scheme reads:

* the *key code*, one int standing for the tuple of GROUP BY values;
* one raw float per numeric operator argument (``time.duration`` as the
  timer measured it — no ``Variant`` is built for it);
* a ``Variant`` (or ``None``) per other label the scheme reads: operator
  arguments read as values, WHERE labels, ``sample.weight``.

The ring drains as one :class:`~repro.io.colfile.ColumnStore` — the key
codes mapped to one dictionary column per key label, the floats a typed
column — into the thread's table through :meth:`StateTable.fold`, with the
scheme's WHERE.  It drains when full, and before :meth:`flush`,
:meth:`stats` and :meth:`databases`.  A channel whose snapshots are
records (a retaining sibling service such as trace) hands them to
:meth:`process`, which fills the same row from the record's entries.

**Context-key memo.**  The blackboard's contribution to the key only
changes at ``begin``/``end``/``set``; the blackboard interns nested path
values and :meth:`Attribute.check` interns strings and ints, so re-entering
a region puts the *identical* ``Variant`` objects back into the snapshot.
Per thread, the service memoizes ``id`` tuples of the GROUP BY values ->
key code, so steady-state snapshots skip key encoding entirely.  The memo
holds strong references to the keyed variants, which makes the ``id``
comparison sound: a live object's address cannot be reused.  A size cap
bounds it under churning key values.  Key codes themselves are assigned by
exact value (one ``_Dictionary`` per key label), so a cleared memo never
changes what a code stands for.

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
import time
from typing import Callable, Optional, Sequence

import numpy as np

from ... import observe
from ...aggregate.ops import WEIGHT_LABEL
from ...aggregate.scheme import AggregationScheme
from ...aggregate.table import StateTable, _cell_types, _First, _States
from ...common.errors import ConfigError
from ...common.record import Record
from ...common.variant import ValueType, Variant
from ...io import colfile
from ...io.colfile import ColumnStore, _DictColumn, _Dictionary, _first_use_column, _NumColumn
from .base import Service

__all__ = ["AggregateService", "RING_CAPACITY"]

#: rows a thread's ring holds before they are folded into its table (read
#: when a channel builds its snapshot closure)
RING_CAPACITY = 16384

#: memo size cap per thread — bounds growth when key values churn (e.g.
#: float GROUP BY values, which are not interned)
_KEY_CACHE_LIMIT = 4096

_INV, _INT, _UINT, _DOUBLE = ValueType.INV, ValueType.INT, ValueType.UINT, ValueType.DOUBLE

#: write(ring, entries, measured, weight): append one snapshot's row
Writer = Callable[["_Ring", dict, Optional[tuple], Optional[Variant]], None]


class _Ring:
    """One thread's pending rows, its key codes and the table they fold into.

    Only the owning thread appends rows and assigns key codes (both
    append-only); whoever drains or reads the table holds :attr:`lock`.
    """

    __slots__ = (
        "rows", "table", "lock", "memo", "misses", "dictionaries", "key_columns",
        "key_arrays", "key_codes", "rejected", "drained", "drain_seconds",
    )

    def __init__(self, scheme: AggregationScheme) -> None:
        width = len(scheme.key)
        self.rows: list[tuple] = []
        self.table = StateTable(scheme)
        self.lock = threading.Lock()
        #: id (or id tuple) of the GROUP BY values -> (values, key code)
        self.memo: dict = {}
        self.misses = 0
        #: per key label: exact value -> code (absent: -1)
        self.dictionaries = [_Dictionary() for _ in range(width)]
        #: per key label: key code -> code into that label's dictionary
        self.key_columns: list[list[int]] = [[] for _ in range(width)]
        #: the drain side's int64 copies of :attr:`key_columns`
        self.key_arrays = [np.zeros(0, dtype=np.int64) for _ in range(width)]
        #: tuple of per-label codes -> key code
        self.key_codes: dict[tuple, int] = {}
        #: snapshots a hand-written predicate dropped before the ring, and
        #: rows drained so far
        self.rejected = self.drained = 0
        #: time the drains took
        self.drain_seconds = 0.0

    def key_code(self, values: tuple) -> int:
        """The key code of a tuple of GROUP BY values (``None``: absent)."""
        codes = tuple(d.encode((v,))[0] for d, v in zip(self.dictionaries, values))
        code = self.key_codes.get(codes)
        if code is None:
            code = len(self.key_codes)
            # columns first: a drain reads them for every row it can see
            for column, c in zip(self.key_columns, codes):
                column.append(c)
            self.key_codes[codes] = code
        return code

    def key_column(self, index: int) -> np.ndarray:
        """Key label ``index``'s codes by key code (drain side, locked)."""
        done = self.key_arrays[index]
        column = self.key_columns[index]
        if len(column) > len(done):
            done = self.key_arrays[index] = np.concatenate(
                (done, np.array(column[len(done):], dtype=np.int64))
            )
        return done


def _raw(v: Optional[Variant]):
    """A float-slot value: a number as its float, absent as ``None``, and any
    other value (a bool, a string) as the Variant itself."""
    if v is None or v.type is _INV:
        return None
    t = v.type
    if t is _DOUBLE or t is _INT or t is _UINT:
        return float(v.value)
    return v


def _variant_column(values: Sequence[Optional[Variant]]) -> _DictColumn:
    """A dictionary column of per-row Variants (``None``: absent), encoded
    once per distinct object."""
    ids = np.fromiter(map(id, values), dtype=np.int64, count=len(values))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    dictionary = _Dictionary()
    distinct = np.array(dictionary.encode([values[i] for i in first.tolist()]), dtype=np.int64)
    return _first_use_column(distinct[inverse], dictionary.values)


def _float_column(values: Sequence) -> colfile._Column:
    """A float slot's column where some row holds no float: masked while the
    others hold floats, else (a bool or string arrived in the slot)
    Variants."""
    if all(x is None or x.__class__ is float for x in values):
        present = np.fromiter((x is not None for x in values), bool, len(values))
        filled = np.fromiter((0.0 if x is None else x for x in values), np.float64, len(values))
        return _NumColumn(_DOUBLE, filled, None if present.all() else present)
    return _variant_column(
        [Variant.double(float(x)) if x.__class__ in (float, int) else x for x in values]
    )


class AggregateService(Service):
    name = "aggregate"
    #: snapshots are folded, never retained, so the channel may hand this
    #: service the blackboard's live entries
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
        predicate = scheme.predicate
        where = getattr(predicate, "conditions", None)
        #: a hand-written predicate callable: evaluated on each record before
        #: its row is written (a row holds only what the scheme declares)
        self._filter = predicate if predicate is not None and where is None else None
        self._where = () if self._filter is not None else None
        self._floats, self._others = self._row_labels(where or ())
        self._tls = threading.local()
        # Keyed by a unique per-thread sequence number, NOT the OS thread
        # ident: idents are reused after a thread exits, and keying by them
        # would silently drop a finished thread's aggregation results.
        self._rings: dict[int, _Ring] = {}
        self._rings_lock = threading.Lock()

    def _row_labels(self, where: Sequence) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """``(float labels, other labels)`` of a row beside its key and its
        ``sample.weight``: an argument only numeric kernels read gets a
        float slot; every other argument and each WHERE label a Variant."""
        skip = {*self._key_labels, WEIGHT_LABEL}
        numeric: dict[str, None] = {}
        valued: dict[str, None] = {}
        for op in self.scheme.ops:
            cells = _cell_types(op)
            by_value = _First in cells or _States in cells
            for label in op.inputs:
                (valued if by_value else numeric).setdefault(label)
        for cond in where:
            while not hasattr(cond, "label"):  # not(...)
                cond = cond.inner
            valued.setdefault(cond.label)
        floats = tuple(label for label in numeric if label not in valued and label not in skip)
        return floats, tuple(label for label in valued if label not in skip)

    # -- the row ------------------------------------------------------------------

    def thread_ring(self) -> _Ring:
        """The calling thread's ring (registered on first use)."""
        ring = getattr(self._tls, "ring", None)
        if ring is None:
            ring = self._tls.ring = _Ring(self.scheme)
            # Registration takes the lock once per thread lifetime, not per
            # snapshot — the paper's "per-thread DB avoids thread locks".
            with self._rings_lock:
                self._rings[len(self._rings)] = ring
        return ring

    def accepts_rows(self, raw_labels: tuple[str, ...]) -> bool:
        """Whether snapshots whose ``raw_labels`` are measured as raw floats
        can be rows read from live entries: not when a raw label is read
        other than as a number, nor under a hand-written predicate
        callable — those snapshots need records (:meth:`process`)."""
        return (
            self._filter is None
            and WEIGHT_LABEL not in self._key_labels
            and not set(raw_labels) & (set(self._key_labels) | set(self._others))
        )

    def thread_writer(self, raw_labels: tuple[str, ...] = (), complete: bool = True) -> Writer:
        """``write(entries, measured, weight)`` for the calling thread: append
        one snapshot's row to its ring.

        ``entries`` are the snapshot's values (the blackboard's live entries,
        or a record's); ``measured`` what a contributor measured for
        ``raw_labels`` — a bare float for one label, else a tuple — or
        ``None`` when ``entries`` hold every value; ``complete`` is false
        when a measured value may be ``None``, where ``entries`` then show
        through; ``weight`` the sampling weight (``None``: as ``entries``
        have it)."""
        writers = getattr(self._tls, "writers", None)
        if writers is None:
            writers = self._tls.writers = {}
        write = writers.get((raw_labels, complete))
        if write is None:
            write = writers[raw_labels, complete] = self._make_writer(
                self.thread_ring(), raw_labels, complete
            )
        return write

    def _make_writer(self, ring: _Ring, raw_labels: tuple[str, ...], complete: bool) -> Writer:
        keys, floats, others = self._key_labels, self._floats, self._others
        slots = tuple(raw_labels.index(f) if f in raw_labels else None for f in floats)
        single = len(raw_labels) == 1
        # the common row: one float slot the contributor measures as it is
        direct = floats == raw_labels and single and complete
        capacity, limit = RING_CAPACITY, _KEY_CACHE_LIMIT
        rows, memo, drain = ring.rows, ring.memo, self._drain
        append = rows.append

        def miss(ids, values: tuple) -> int:
            if len(memo) >= limit:
                memo.clear()
            code = ring.key_code(values)
            memo[ids] = (values, code)
            ring.misses += 1
            return code

        def floats_of(entries: dict, measured) -> tuple:
            if single:
                measured = (measured,)
            out = []
            for label, slot in zip(floats, slots):
                x = None if measured is None or slot is None else measured[slot]
                out.append(_raw(entries.get(label)) if x is None else x)
            return tuple(out)

        def write(entries: dict, measured, weight: Optional[Variant]) -> None:
            get = entries.get
            values = tuple(map(get, keys))
            ids = tuple(map(id, values))
            hit = memo.get(ids)
            code = miss(ids, values) if hit is None else hit[1]
            if weight is None:
                weight = get(WEIGHT_LABEL)
            if direct and measured is not None:
                append((code, measured, weight, *map(get, others)))
            else:
                append((code, *floats_of(entries, measured), weight, *map(get, others)))
            if len(rows) >= capacity:
                drain(ring)

        return write

    def thread_row_cost(self) -> Callable[[], float]:
        """``cost()`` for the calling thread: the seconds its drains have
        spent per row so far (0.0 before the first).  A row's fold runs
        later, on whichever snapshot fills the ring, so the channel adds
        this to each kept probe to charge the sampling budget a kept
        snapshot's whole cost."""
        tls = self._tls

        def cost() -> float:
            ring = getattr(tls, "ring", None)  # registered by the first row
            return ring.drain_seconds / ring.drained if ring is not None and ring.drained else 0.0

        return cost

    def process(self, record: Record) -> None:
        """Fill a row from a snapshot record's entries (a channel that
        retains its records, or whose snapshots need them)."""
        if self._filter is not None and not self._filter(record):
            self.thread_ring().rejected += 1
            return
        self.thread_writer()(record._entries, None, None)

    def wants(self, hook: str) -> bool:
        return hook == "process" or super().wants(hook)

    # -- the drain ------------------------------------------------------------------

    def _drain(self, ring: _Ring) -> None:
        """Fold every row ``ring`` holds into its table."""
        with ring.lock:
            rows = ring.rows
            n = len(rows)
            if not n:
                return
            # Rows appended meanwhile land past ``n``: the slice and the
            # delete each run under the GIL, so none is lost or read twice.
            start = time.perf_counter()
            batch = rows[:n]
            del rows[:n]
            ring.table.fold(self._store(ring, batch), where=self._where)
            ring.drained += n
            ring.drain_seconds += time.perf_counter() - start

    def _store(self, ring: _Ring, batch: list[tuple]) -> ColumnStore:
        """The rows as one store: key codes through the key columns, float
        slots typed, Variant slots interned."""
        n = len(batch)
        columns = list(zip(*batch))
        codes = np.fromiter(columns[0], dtype=np.int64, count=n)
        out: dict[str, colfile._Column] = {}
        for i, (label, dictionary) in enumerate(zip(self._key_labels, ring.dictionaries)):
            out[label] = _first_use_column(ring.key_column(i)[codes], dictionary.values)
        width = len(self._floats)
        for label, values in zip(self._floats, columns[1 : 1 + width]):
            try:
                if None not in values:  # fromiter would read it as NaN
                    out[label] = _NumColumn(_DOUBLE, np.fromiter(values, np.float64, n), None)
                    continue
            except TypeError:  # a bool or string Variant
                pass
            out[label] = _float_column(values)
        for label, values in zip((WEIGHT_LABEL, *self._others), columns[1 + width :]):
            if values.count(None) < n and label not in out:  # else no row holds it
                out[label] = _variant_column(values)
        return ColumnStore(n, out)

    def _drained(self) -> list[tuple[int, _Ring]]:
        """Every thread's ring, in registration order, each drained."""
        with self._rings_lock:
            rings = sorted(self._rings.items())
        for _, ring in rings:
            self._drain(ring)
        return rings

    # -- flush ----------------------------------------------------------------

    def flush(self) -> list[Record]:
        rings = self._drained()
        hits, misses = self._memo_counts(rings)
        observe.gauge("aggregate.keycache.hits", hits, channel=self.channel.name)
        observe.gauge("aggregate.keycache.misses", misses, channel=self.channel.name)
        multi = len(rings) > 1
        out: list[Record] = []
        for tid, ring in rings:
            with ring.lock:
                store = ring.table.render()
            columns = dict(store.columns)
            if self._rename_count and "count" in columns:
                columns["aggregate.count"] = columns.pop("count")
            store = ColumnStore(len(store), columns)
            if multi:
                store = store.with_constants({"thread.id": Variant(_INT, tid)})
            out.extend(colfile.result_records(store))
        return out

    def databases(self) -> list[StateTable]:
        """The per-thread partial tables (what ``netflush.payload=states``
        ships through ``FlushClient.send_states``, as their ``to_binary()``)."""
        return [ring.table for _, ring in self._drained()]

    # -- introspection -------------------------------------------------------------

    @staticmethod
    def _memo_counts(rings: list[tuple[int, _Ring]]) -> tuple[int, int]:
        """Memo ``(hits, misses)``: every row drained looked its key up once."""
        misses = sum(ring.misses for _, ring in rings)
        return sum(ring.drained for _, ring in rings) - misses, misses

    def stats(self) -> dict[str, object]:
        """Per-channel aggregation cost figures (the paper's Table I row).

        Summed across the per-thread tables: unique entries, stream
        counters, state-cell memory footprint, estimated wire size, the
        number of entries whose key was only partially extractable
        (records missing one or more GROUP BY attributes), plus the
        context-key memo hit/miss counters.
        """
        rings = self._drained()
        tables = [ring.table for _, ring in rings]
        hits, misses = self._memo_counts(rings)
        return {
            "db.threads": len(tables),
            "db.entries": sum(t.num_entries for t in tables),
            "db.offered": sum(t.num_offered for t in tables) + sum(r.rejected for _, r in rings),
            "db.processed": sum(t.num_processed for t in tables),
            "db.memory_footprint": sum(t.memory_footprint() for t in tables),
            "db.wire_size": sum(t.wire_size() for t in tables),
            "db.key_misses": sum(t.num_partial_keys for t in tables),
            "keycache.hits": hits,
            "keycache.misses": misses,
        }
