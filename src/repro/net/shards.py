"""The shard fold plane: N lock-free aggregation workers behind one barrier.

Each :class:`Shard` is one :class:`~repro.aggregate.db.AggregationDB` per
tenant plus one worker thread fed by a bounded queue, so the fold takes no
locks (the same design that gives the runtime its per-thread databases).
A queue carries four item kinds: ``store`` (a decoded wire batch — window-
stamped as columns on a windowed server — and the rows of it this shard
owns), ``states``, ``call`` (the barrier) and ``stop``.  A worker folds its
rows through the column kernels, WHERE evaluated as column masks; only for a
scheme with an operator that has no vector kernel, or a hand-written
predicate callable, does it hydrate *its* rows into records and fold those.
A store, stamped or not, is shared by every shard its rows went to: workers
only read it — its lazily filled ``interned``/``numeric`` caches are pure
functions of the immutable columns, stored with one GIL-atomic dict
assignment, so two workers filling the same entry at once both end up with
equal arrays and nobody sees a partial one.  :class:`ShardPlane` owns the
shards and what every other plane needs from them:

* **Routing** — each GROUP BY value's text is hashed with the
  process-stable FNV hash and the hashes of a key's values are mixed in
  64-bit arithmetic (:func:`_shard_of`, the one definition of "the shard
  of a key"); identical keys always land in the same shard whichever frame
  kind carried them, so shard databases partition the key space and merge
  without overlap.
* **The barrier** — :meth:`ShardPlane.call`, the only way another thread
  reads or mutates shard state: snapshots, relay deltas and window
  retirement each see everything acknowledged before them.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeout
from typing import Callable, Optional

import numpy as np

from ..aggregate.db import AggregationDB
from ..aggregate.scheme import AggregationScheme
from ..common.errors import ReproError
from ..common.util import stable_hash64
from ..common.variant import Variant
from ..io import colfile
from ..io.colfile import ColumnStore
from ..observe import MetricsRegistry
from ..query.columnar import ColumnFold, supports_scheme

__all__ = ["Shard", "ShardPlane", "copy_states", "DEFAULT_TENANT", "KEY_SEP"]

KEY_SEP = "\x1f"

#: the implicit namespace for token-less clients (quota-free by default)
DEFAULT_TENANT = "default"

#: how long a barrier caller waits for a wedged worker before giving up
BARRIER_TIMEOUT = 30.0


def copy_states(db: Optional[AggregationDB]) -> tuple[list, int, int]:
    """``(states, offered, processed)`` of ``db``, deep-copied.

    ``export_states`` returns the live state lists, so whoever reads them
    after the owner resumes folding needs copies or the read tears.  Run it
    where the owner cannot fold: on the shard worker, or under its lock.
    """
    if db is None:
        return [], 0, 0
    states = [(entries, [list(s) for s in cells]) for entries, cells in db.export_states()]
    return states, db.num_offered, db.num_processed


class Shard:
    """One aggregation shard: a bounded queue feeding a worker thread.

    Only the worker thread ever touches ``dbs`` while it runs, so
    aggregation itself is lock-free; cross-shard reads happen exclusively
    through barrier calls processed in queue order.
    """

    def __init__(
        self, index: int, scheme: AggregationScheme, depth: int, metrics: MetricsRegistry
    ) -> None:
        self.index = index
        self.scheme = scheme
        #: tenant name -> that tenant's partition of this shard's key space.
        #: Only the worker thread creates or folds into these while the
        #: server runs (dict get/setdefault are GIL-atomic, so racy reads
        #: from quota checks stay safe).
        self.dbs: dict[str, AggregationDB] = {DEFAULT_TENANT: AggregationDB(scheme)}
        #: tenant name -> the column fold over that tenant's DB (its interned
        #: key values and slot cache live as long as the DB does)
        self._folds: dict[str, ColumnFold] = {}
        #: whether a routed batch folds as columns (see the module docstring)
        self._columnar = supports_scheme(scheme) and (
            scheme.predicate is None or hasattr(scheme.predicate, "conditions")
        )
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

    def fold_store(self, tenant: str, store: ColumnStore, rows: Optional[np.ndarray]) -> None:
        """Fold this shard's ``rows`` of a routed batch (``None``: all of it)."""
        if not self._columnar:
            process = self.db_for(tenant).process
            for record in colfile.records_from_store(store, rows):
                process(record)
            return
        fold = self._folds.get(tenant)
        if fold is None:
            fold = self._folds[tenant] = ColumnFold(self.db_for(tenant))
        fold.feed(store, rows=rows)

    @property
    def quiescent(self) -> bool:
        """No worker is (any longer) folding: safe to touch ``dbs`` directly."""
        return self.thread is None or not self.thread.is_alive()

    def run_call(self, fn: Callable[["Shard"], object], future: Future) -> None:
        """Run one barrier call; its outcome (or exception) lands in ``future``."""
        try:
            future.set_result(fn(self))
        except Exception as exc:
            self.metrics.count("net.errors", stage="shard")
            future.set_exception(exc)

    def run(self) -> None:
        while True:
            item = self.queue.get()
            kind = item[0]
            if kind == "stop":
                return
            if kind == "call":
                self.run_call(item[1], item[2])
                continue
            tenant = item[1]  # a data batch: (kind, tenant state, payload...)
            try:
                if kind == "store":
                    self.fold_store(tenant.name, item[2], item[3])
                else:
                    self.db_for(tenant.name).load_states(
                        item[2], offered=item[3], processed=item[4]
                    )
                self.num_batches += 1
            except Exception:
                # A poisoned batch must never take the shard worker down:
                # the handler-side decoders validate shapes, but defence in
                # depth keeps one bad item from stalling every connection.
                self.metrics.count("net.errors", stage="shard")
            finally:
                tenant.release_batch()


class ShardPlane:
    """The shards of one server, their routing function and their barrier —
    plus what every plane feeding them shares: ``metrics`` and ``stopping``."""

    def __init__(
        self, scheme: AggregationScheme, shards: int, depth: int, metrics: MetricsRegistry
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.scheme = scheme
        self.metrics = metrics
        self.stopping = threading.Event()
        self._shards = [Shard(i, scheme, depth, metrics) for i in range(shards)]
        #: (type, value) of a key value -> the hash of its text; filled by
        #: whichever thread routes (GIL-atomic gets and sets), emptied when full
        self._value_hashes: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._shards)

    def __getitem__(self, index: int) -> Shard:
        return self._shards[index]

    def entries(self, tenant: str = DEFAULT_TENANT) -> int:
        """How many entries ``tenant`` holds across the shards (a racy read)."""
        return sum(s.dbs[tenant].num_entries for s in self._shards if tenant in s.dbs)

    def start(self) -> None:
        for shard in self._shards:
            shard.thread = threading.Thread(
                target=shard.run, name=f"repro-net-shard-{shard.index}", daemon=True
            )
            shard.thread.start()

    def stop(self, timeout: Optional[float]) -> None:
        """Ask every worker to exit after what is queued.  Waiting is the
        graceful drain; ``timeout=None`` does not wait and abandons the state
        with the daemon threads, as a crashed process would."""
        for shard in self._shards:
            try:
                shard.queue.put(("stop",), block=timeout is not None)
            except queue.Full:
                pass
        if timeout is not None:
            for shard in self._shards:
                if shard.thread is not None:
                    shard.thread.join(timeout)

    def every(self, interval: float, fn: Callable[[], object], stage: str):
        """Run ``fn`` every ``interval`` seconds on a daemon thread until the
        server stops (forward cycles, window retirement); a ``ReproError``
        skips the cycle and counts as ``net.errors{stage}``.  Returns the
        thread, or ``None`` when ``interval`` is not positive."""
        if not interval or interval <= 0:
            return None

        def loop() -> None:
            while not self.stopping.wait(timeout=interval):
                try:
                    fn()
                except ReproError:
                    self.metrics.count("net.errors", stage=stage)

        thread = threading.Thread(target=loop, name=f"repro-net-{stage}", daemon=True)
        thread.start()
        return thread

    # -- routing ----------------------------------------------------------------

    def route_store(
        self, store: ColumnStore, rows: Optional[np.ndarray] = None
    ) -> list[tuple[Shard, Optional[np.ndarray]]]:
        """Split ``rows`` of a decoded batch (``None``: every row) by the
        shard each row's GROUP BY key hashes to: ``(shard, row indices)``
        pairs, the caller's ``rows`` untouched on a one-shard plane.  One
        hash per distinct key value, none per row."""
        n = len(self._shards)
        count = len(store) if rows is None else len(rows)
        if not count:
            return []
        if n == 1:
            return [(self._shards[0], rows)]
        columns = []
        for label in self.scheme.key:
            codes, values = store.interned(label)
            if rows is not None:
                codes = codes[rows]
            table = np.array([_EMPTY_HASH, *map(self._value_hash, values)], dtype=np.uint64)
            columns.append(table[codes + 1])
        target = _shard_of(columns, count, n)
        routed = []
        for shard in self._shards:
            picked = np.flatnonzero(target == shard.index)
            if len(picked):
                routed.append((shard, picked if rows is None else rows[picked]))
        return routed

    def bucket(self, groups: list) -> list[tuple[Shard, list]]:
        """Split exported ``(entries, states)`` groups by the shard their
        GROUP BY key hashes to; a missing label reads as empty."""
        n = len(self._shards)
        if not groups:
            return []
        if n == 1:
            return [(self._shards[0], groups)]
        value_hash = self._value_hash
        columns = [
            np.array([value_hash(entries.get(label)) for entries, _ in groups], dtype=np.uint64)
            for label in self.scheme.key
        ]
        buckets: list[list] = [[] for _ in range(n)]
        for group, index in zip(groups, _shard_of(columns, len(groups), n).tolist()):
            buckets[index].append(group)
        return [(s, b) for s, b in zip(self._shards, buckets) if b]

    def _value_hash(self, value: Optional[Variant]) -> int:
        """The process-stable hash of one key value's text (missing = empty)."""
        if value is None:
            return _EMPTY_HASH
        key = (value.type, value.value)
        cached = self._value_hashes.get(key)
        if cached is None:
            if len(self._value_hashes) >= _HASH_CACHE_SIZE:
                self._value_hashes.clear()
            cached = self._value_hashes[key] = stable_hash64(value.to_string().encode("utf-8"))
        return cached

    # -- the barrier --------------------------------------------------------------

    def call(self, fn: Callable[[Shard], object], timeout: float = BARRIER_TIMEOUT) -> list:
        """Run ``fn(shard)`` on every shard in queue order; return the results.

        Each call runs on its shard's worker after everything enqueued
        before it.  A quiescent shard (never started, or drained by
        ``stop()``) runs ``fn`` on the caller's thread instead: nothing else
        touches its DBs anymore.  An exception from ``fn``, a worker that
        does not reach the barrier within ``timeout`` seconds, and a shutdown
        under a full queue all raise :class:`ReproError`.
        """
        deadline = time.monotonic() + timeout
        futures = [Future() for _ in self._shards]
        for shard, future in zip(self._shards, futures):
            while not shard.quiescent:
                try:
                    shard.queue.put(("call", fn, future), timeout=0.2)
                    break
                except queue.Full:
                    if self.stopping.is_set():
                        raise ReproError("server is shutting down") from None
                    _check(deadline)
        for shard, future in zip(self._shards, futures):
            while not future.done():
                if shard.quiescent:
                    # Never started, or the worker exited with the call
                    # still queued (server stopping) — unless it answered
                    # between the two checks.
                    if not future.done():
                        shard.run_call(fn, future)
                    break
                try:
                    future.exception(timeout=0.2)
                except FutureTimeout:
                    _check(deadline)
        try:
            return [future.result() for future in futures]
        except Exception as exc:
            raise ReproError(f"shard barrier call failed: {exc!r}") from exc


_EMPTY_HASH = stable_hash64(b"")
_FNV_PRIME = np.uint64(0x100000001B3)
_HASH_CACHE_SIZE = 1 << 16


def _shard_of(columns: list[np.ndarray], keys: int, shards: int) -> np.ndarray:
    """The shard index of each of ``keys`` keys, from its values' text
    hashes (one ``uint64`` column per GROUP BY label): the one definition of
    where a key lives, shared by the rows of a store and by state groups."""
    mixed = np.full(keys, _EMPTY_HASH, dtype=np.uint64)
    for column in columns:
        mixed *= _FNV_PRIME  # wraps modulo 2**64
        mixed += column
    mixed ^= mixed >> np.uint64(32)  # the modulus only sees low bits
    return mixed % np.uint64(shards)


def _check(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise ReproError("timed out waiting for a shard barrier")
