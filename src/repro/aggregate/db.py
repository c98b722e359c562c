"""The in-memory aggregation database.

This is the heart of the paper's Section IV-B: a hash table mapping each
unique aggregation key to an *aggregation record* — the intermediate
reduction state of every operator.  ``process`` is the streaming path (one
call per snapshot record, never storing the input); ``combine`` merges two
databases (the cross-process reduction step); ``flush`` reconstructs the key
attributes and renders operator results, producing one output record per
unique key.

The implementation is deliberately allocation-light: operator kernels are
shared across keys, per-key state is a flat list of small lists, and the hot
loop does one dict lookup plus one fused fold (see
:mod:`repro.aggregate.plan`).  ``AggregationDB(scheme, fold_plan="generic")``
builds the reference per-operator dispatch loop instead: the equivalence
tests fold through it.

This is the per-record form of the state, the reference the tests fold
through.  Everywhere else — the runtime's per-thread channel state, a
server's shards, relays and root, the off-line partial query API, its
process pool and MPI reduction, the window front and the sampled query —
state lives in a :class:`~repro.aggregate.table.StateTable`, one numpy
array per operator state cell.  :meth:`export_states` / :meth:`load_states`
/ :meth:`combine` are the list form, kept for the tests' reference
reduction and the benchmark's replays;
``StateTable.export_states`` / ``StateTable.from_states`` convert.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .. import observe
from ..common.errors import AggregationError
from ..common.record import Record
from ..common.variant import Variant
from .key import make_extractor
from .plan import make_plan
from .scheme import AggregationScheme

__all__ = ["AggregationDB"]


class AggregationDB:
    """Streaming aggregation over one :class:`AggregationScheme`.

    >>> scheme = AggregationScheme(ops=["count"], key=["function"])
    >>> db = AggregationDB(scheme)
    >>> db.process(Record({"function": "foo"}))
    >>> db.process(Record({"function": "foo"}))
    >>> [r.to_plain() for r in db.flush()]
    [{'function': 'foo', 'count': 2}]

    ``process(record)`` folds one input record into the database; it is a
    closure built once per database from the fold plan, so the per-record
    path re-resolves nothing.
    """

    def __init__(self, scheme: AggregationScheme, fold_plan: str = "compiled") -> None:
        self.scheme = scheme
        self._ops = scheme.fresh_kernels()
        self._extractor = make_extractor(scheme.key)
        self._table: dict[Hashable, list[list]] = {}
        # Cached once: wire_size() is read on every channel stats flush, and
        # re-running every kernel's init() there is measurable overhead.
        self._state_cells = sum(op.state_width() for op in self._ops)
        #: records offered to the DB (including ones rejected by the predicate)
        self.num_offered = 0
        #: records actually folded into some aggregation entry
        self.num_processed = 0
        # Per-stream invariants, bound once — never re-resolved per record.
        self._predicate = scheme.predicate
        self._extract = self._extractor.extract
        self._plan = make_plan(scheme.ops, fold_plan)
        self.process = self._make_process()
        observe.count(
            "aggregate.plan", plan=self._plan.kind, fast_ops=self._plan.num_fast_ops
        )

    # -- streaming path ------------------------------------------------------

    def _make_process(self):
        """The fused per-record fold closure (the paper's sub-µs hot path)."""
        table = self._table
        extract = self._extract
        predicate = self._predicate
        # The plan's fused update owns the per-record concerns (sample.weight
        # detection), whichever plan it is.
        update = self._plan.update
        init_states = self._plan.init_states
        if predicate is None:

            def process(record: Record, _db=self) -> None:
                _db.num_offered += 1
                _db.num_processed += 1
                key = extract(record)
                states = table.get(key)
                if states is None:
                    states = init_states()
                    table[key] = states
                update(states, record)

        else:

            def process(record: Record, _db=self) -> None:
                _db.num_offered += 1
                if not predicate(record):
                    return
                _db.num_processed += 1
                key = extract(record)
                states = table.get(key)
                if states is None:
                    states = init_states()
                    table[key] = states
                update(states, record)

        return process

    def process_all(self, records: Iterable[Record]) -> None:
        """Fold a whole record stream (convenience for the off-line path).

        Loop invariants (table, extractor, plan, counters) are hoisted out of
        the per-record iteration.
        """
        table = self._table
        extract = self._extract
        predicate = self._predicate
        update = self._plan.update
        init_states = self._plan.init_states
        offered = 0
        processed = 0
        for record in records:
            offered += 1
            if predicate is not None and not predicate(record):
                continue
            processed += 1
            key = extract(record)
            states = table.get(key)
            if states is None:
                states = init_states()
                table[key] = states
            update(states, record)
        self.num_offered += offered
        self.num_processed += processed

    # -- combine path (cross-process reduction) -------------------------------

    def combine(self, other: "AggregationDB") -> None:
        """Merge ``other``'s partial results into this database.

        Both databases must use the same scheme (same operators and key).
        ``other`` is left unmodified.
        """
        if other.scheme.key != self.scheme.key or other.scheme.ops != self.scheme.ops:
            raise AggregationError(
                "cannot combine aggregation databases with different schemes: "
                f"{self.scheme.describe()!r} vs {other.scheme.describe()!r}"
            )
        rekey = self._extractor.rekey  # the other DB's NaNs are other objects
        for key, other_states in other._table.items():
            key = rekey(key)
            states = self._table.get(key)
            if states is None:
                # Deep-copy the states so later combines into self never
                # alias other's mutable state lists.
                self._table[key] = [list(s) for s in other_states]
            else:
                for op, state, ostate in zip(self._ops, states, other_states):
                    op.combine(state, ostate)
        # Carry the stream counters so a combined DB reports how many input
        # records it stands for.
        self.num_offered += other.num_offered
        self.num_processed += other.num_processed

    # -- partial-state transfer (columnar backend, process pools) ----------------

    def export_states(self) -> list[tuple[dict[str, Variant], list[list]]]:
        """Portable ``(key entries, operator states)`` pairs for every entry.

        Keys are rendered back to their attribute entries so the
        representation is self-describing across processes.  The
        states are the live lists — callers transferring between processes
        get fresh copies from pickling anyway; same-process callers must
        treat them as read-only.
        """
        entries_of = self._extractor.entries
        return [
            (dict(entries_of(key)), states) for key, states in self._table.items()
        ]

    def load_states(
        self,
        groups: Iterable[tuple[dict[str, Variant], list[list]]],
        offered: int = 0,
        processed: int = 0,
    ) -> None:
        """Merge externally computed per-key partial states into this DB.

        The inverse of :meth:`export_states` with :meth:`combine` semantics:
        states for keys already present are merged through each operator's
        ``combine``; new keys get deep-copied state lists.  ``offered`` /
        ``processed`` carry the producing side's stream counters.  (A
        networked state stream's replay guard is ``StateTable.merge``'s
        ``source``.)
        """
        key_of = self._extractor.from_entries
        for entries, in_states in groups:
            key = key_of(entries)
            states = self._table.get(key)
            if states is None:
                self._table[key] = [list(s) for s in in_states]
            else:
                for op, state, other in zip(self._ops, states, in_states):
                    op.combine(state, other)
        self.num_offered += offered
        self.num_processed += processed

    # -- flush ----------------------------------------------------------------

    def flush(self) -> list[Record]:
        """Render one output record per unique aggregation key.

        Key attributes are reconstructed from the lookup key; operator
        results are appended.  Operators flagged ``needs_global_total``
        (percent_total) get a second pass with the total across all keys.
        """
        totals: dict[int, float] = {}
        for i, op in enumerate(self._ops):
            if getattr(op, "needs_global_total", False):
                totals[i] = sum(states[i][1] for states in self._table.values())

        out: list[Record] = []
        entries_of = self._extractor.entries
        for key, states in self._table.items():
            data: dict[str, Variant] = dict(entries_of(key))
            for i, (op, state) in enumerate(zip(self._ops, states)):
                if i in totals:
                    results = op.results_with_total(state, totals[i])  # type: ignore[attr-defined]
                else:
                    results = op.results(state)
                for label, value in results:
                    data[label] = value
            out.append(Record.from_variants(data))
        return out

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._table.clear()

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of unique aggregation keys currently held."""
        return len(self._table)

    @property
    def num_entries(self) -> int:
        return len(self._table)

    @property
    def num_partial_keys(self) -> int:
        """Entries whose records lacked one or more GROUP BY attributes.

        Computed lazily by scanning the table (key-extraction misses must
        not cost anything on the per-record hot path); the observability
        layer surfaces this as ``db.key_misses`` in channel stats records.
        """
        n_labels = len(self._extractor.key_labels)
        if n_labels == 0:
            return 0
        entries_of = self._extractor.entries
        return sum(1 for key in self._table if len(entries_of(key)) < n_labels)

    def memory_footprint(self) -> int:
        """Rough number of state cells held (for the overhead study)."""
        return sum(sum(len(s) for s in states) for states in self._table.values())

    def wire_size(self) -> int:
        """Estimated serialized size in bytes (used by the MPI simulator's
        network model when partial databases travel up the reduction tree).

        Estimate: 8 bytes per key slot and per operator state cell, plus a
        small fixed header per entry.  Only relative magnitudes matter — the
        network model multiplies this by a bandwidth term.
        """
        key_width = max(1, len(self.scheme.key))
        return 16 + len(self._table) * (8 * key_width + 8 * self._state_cells + 8)

    def __repr__(self) -> str:
        return (
            f"AggregationDB({self.scheme.describe()!r}, entries={len(self)}, "
            f"processed={self.num_processed})"
        )
