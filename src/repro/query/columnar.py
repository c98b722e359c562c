"""Columnar (vectorized) aggregation backend.

The row-at-a-time :class:`~repro.aggregate.db.AggregationDB` is the right
engine where records arrive one by one and must never be stored.  Where a
whole batch is in hand as columns — off-line, the dataset; on the
aggregation server, a decoded wire batch — the classic scientific-Python
optimization applies: aggregate with numpy group-by primitives instead of
a Python-level loop.

This backend covers **every built-in operator** (``count``, ``sum``,
``min``, ``max``, ``avg``, ``variance``, ``stddev``, ``histogram``,
``first``/``any``, ``ratio``, ``scale``, ``percent_total`` — plus their
aliased forms) and evaluates WHERE clauses vectorized, by pushing each
condition down onto the interned code columns: the predicate runs once per
*distinct* value, then broadcasts through the codes.

Equivalence with the streaming engine is by construction, not by parallel
reimplementation: :class:`ColumnFold` folds into the *same per-key operator
states* an :class:`AggregationDB` holds (``np.add.at`` adds in input order
onto the running value, so float sums are bit-identical), and the final
values are rendered by each operator's own ``results()`` — the exact code
path :meth:`AggregationDB.flush` uses.  ``QueryEngine``
auto-dispatches here via :func:`supports_scheme`, a plain aggregation
server's shard workers feed it the batches they were sent;
``bench_columnar.py`` and the ``offline_query`` / ``stream_tree`` workloads
of ``benchmarks/suite`` quantify the speedup.

Pipeline:

1. read each attribute as a dictionary column of a
   :class:`~repro.io.colfile.ColumnStore` — decoded from ``.rcf`` or the
   wire, or built once per attribute from records (``from_records``,
   cached per :class:`~repro.io.dataset.Dataset`);
2. evaluate WHERE vectorized over the code columns;
3. collapse the key-code matrix into one composite group id per record
   (mixed-radix packing — collision-free by construction);
4. find (or create) each group's live state lists in the DB — a one-shot
   :func:`columnar_aggregate` keeps them in a plain list instead;
5. one ``np.add.at`` / ``np.bincount`` / sorted-``reduceat`` pass per
   operator moment, continuing from the states' running values;
6. render per-group states through the operators' own ``results()``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .. import observe
from ..aggregate.db import AggregationDB
from ..aggregate.ops import (
    WEIGHT_LABEL,
    AggregateOp,
    AliasedOp,
    AvgOp,
    CountOp,
    FirstOp,
    HistogramOp,
    MaxOp,
    MinOp,
    MomentsOp,
    PercentTotalOp,
    RatioOp,
    ScaleOp,
    StddevOp,
    SumOp,
    VarianceOp,
)
from ..aggregate.scheme import AggregationScheme
from ..calql.ast import Compare, Condition, Exists, NotCond
from ..calql.semantics import compare_variants
from ..common.errors import QueryError
from ..common.record import Record
from ..common.variant import ValueType, Variant
from ..io.colfile import ColumnStore

__all__ = [
    "ColumnFold",
    "columnar_aggregate",
    "columnar_db",
    "columnar_feed",
    "supports_scheme",
    "unsupported_ops",
]

#: Exact kernel types with a vectorized implementation.  Exact types, not
#: isinstance: a user subclass may override ``update`` semantics the vector
#: kernels know nothing about, so it must fall back to the row engine.
_SUPPORTED = frozenset(
    {
        CountOp,
        SumOp,
        MinOp,
        MaxOp,
        AvgOp,
        VarianceOp,
        StddevOp,
        MomentsOp,
        HistogramOp,
        FirstOp,
        RatioOp,
        ScaleOp,
        PercentTotalOp,
    }
)

Source = Union[ColumnStore, Iterable[Record]]

_INT, _UINT, _DOUBLE, _STRING = (
    ValueType.INT, ValueType.UINT, ValueType.DOUBLE, ValueType.STRING
)


def _unwrap(op: AggregateOp) -> AggregateOp:
    return op.inner if isinstance(op, AliasedOp) else op


def supports_scheme(scheme: AggregationScheme) -> bool:
    """True when every operator has a vectorized implementation.

    Predicates (WHERE) never disqualify a scheme — AST conditions are
    evaluated vectorized, and opaque compiled predicates are applied
    row-wise up front.
    """
    return all(type(_unwrap(op)) in _SUPPORTED for op in scheme.ops)


def unsupported_ops(scheme: AggregationScheme) -> list[str]:
    """Spec strings of the operators that force the row engine (may be [])."""
    return [
        op.spec_string()
        for op in scheme.ops
        if type(_unwrap(op)) not in _SUPPORTED
    ]


def _as_store(source: Source) -> ColumnStore:
    if isinstance(source, ColumnStore):
        return source
    return ColumnStore.from_records(source)


# -- vectorized WHERE -------------------------------------------------------------


def _condition_mask(
    cond: Condition, store: ColumnStore, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask over ``rows`` of the store (default: every row) for one
    WHERE condition (predicate pushdown).

    Compare/Exists evaluate per distinct interned value, then broadcast
    through the code column; a missing attribute (code -1) is always False
    for them, and ``not(...)`` is plain mask negation — exactly the row
    semantics of :func:`repro.calql.semantics.compile_conditions`.
    """
    if isinstance(cond, NotCond):
        return ~_condition_mask(cond.inner, store, rows)
    if not isinstance(cond, (Exists, Compare)):
        raise QueryError(f"unknown condition type {type(cond).__name__}")
    codes, values = store.interned(cond.label)
    if rows is not None:
        codes = codes[rows]
    if isinstance(cond, Exists):
        return codes >= 0
    truth = np.zeros(len(values) + 1, dtype=bool)  # slot 0 = missing
    for i, v in enumerate(values):
        truth[i + 1] = compare_variants(v, cond.op, cond.value)
    return truth[codes + 1]


def _select_rows(
    store: ColumnStore,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]],
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Indices of the rows the aggregation folds: those of ``rows`` (default:
    every row) that pass the filter.

    ``where`` is the query's AST condition list; ``None`` falls back to the
    conditions the scheme's predicate was compiled from, and for a
    hand-written predicate callable to calling it row by row on hydrated
    records.  When both exist they are the same filter (the scheme's
    predicate is compiled from the WHERE clause), so only one is applied.
    """
    predicate = scheme.predicate
    if where is None and predicate is not None:
        where = getattr(predicate, "conditions", None)
        if where is None:
            records = store.records
            offered = range(len(store)) if rows is None else rows.tolist()
            return np.fromiter((i for i in offered if predicate(records[i])), dtype=np.int64)
    mask: Optional[np.ndarray] = None
    for cond in where or ():
        m = _condition_mask(cond, store, rows)
        mask = m if mask is None else mask & m
    if mask is None:
        return np.arange(len(store), dtype=np.int64) if rows is None else rows
    return np.flatnonzero(mask) if rows is None else rows[mask]


# -- grouping ---------------------------------------------------------------------


def _equality_classes(
    values: Sequence[Variant], table: dict[object, int]
) -> tuple[np.ndarray, int]:
    """Collapse distinct interned values into Variant-equality classes.

    Interned codes are exact — ``int 1`` and ``double 1.0`` are distinct —
    but GROUP BY identity follows :class:`Variant` equality, where numeric
    values compare as floats across int/uint/double.  Returns a lookup
    table mapping ``code + 1`` (slot 0 = missing) to a class id, plus the
    radix (class count + 1).  ``table`` holds the classes seen so far and
    grows in place: a fold that outlives one store passes the same table
    every time, so a value keeps its id from batch to batch.  Runs once per
    *distinct* value, so the per-record work stays vectorized.
    """
    classes = [0]  # the missing slot is its own class
    for v in values:
        t = v.type
        if t is _STRING:
            key = v.value  # a bare str: apart from the float and tuple keys
        elif t is _INT or t is _UINT or t is _DOUBLE:
            key = float(v.value)
        else:
            key = (t, v.value)
        classes.append(table.setdefault(key, len(table) + 1))
    return np.array(classes, dtype=np.int64), len(table) + 1


#: Mixed-radix packed group ids stay below this, clear of int64 overflow.
_PACK_LIMIT = 2**62


class _Groups:
    """Selected rows collapsed to dense group ids, with reduceat views."""

    __slots__ = ("sel", "inverse", "count", "_columns", "_representatives", "_runs")

    def __init__(
        self,
        store: ColumnStore,
        scheme: AggregationScheme,
        sel: np.ndarray,
        tables: Sequence[dict[object, int]],
    ):
        self.sel = sel
        n = len(sel)
        packed = np.zeros(n, dtype=np.int64)
        span = 1  # every packed id is in range(span)
        #: per key column: the selected rows' codes, the code -> Variant
        #: table and the rows' equality-class ids
        self._columns: list[tuple[np.ndarray, list[Variant], np.ndarray]] = []
        for label, table in zip(scheme.key, tables):
            codes, values = store.interned(label)
            codes = codes[sel]
            # Group by Variant-equality classes, not raw codes: the exact
            # interning keeps int 1 / double 1.0 as distinct codes, but the
            # streaming engine merges them into one group.
            classes, radix = _equality_classes(values, table)
            class_ids = classes[codes + 1]
            self._columns.append((codes, values, class_ids))
            if span * radix > _PACK_LIMIT:
                # Wide, high-cardinality keys: rank the ids so far (order
                # kept, at most n of them) so the packing cannot overflow.
                packed = np.unique(packed, return_inverse=True)[1]
                span = int(packed.max()) + 1
            packed *= radix
            packed += class_ids
            span *= radix
        # Dense ids in sorted order of the packed value, i.e. lexicographic
        # in the per-column classes: this fixes the output row order.
        unique_ids, inverse = np.unique(packed, return_inverse=True)
        count = len(unique_ids)
        self.inverse = inverse
        self.count = count
        self._runs: Optional[tuple[np.ndarray, np.ndarray]] = None
        # one representative (first) row per group: its key is the group's
        representatives = np.full(count, -1, dtype=np.int64)
        representatives[inverse[::-1]] = np.arange(n - 1, -1, -1)
        self._representatives = representatives

    def class_keys(self) -> list[tuple[int, ...]]:
        """Each group's tuple of per-column equality-class ids: the group's
        identity under the ``tables`` it was built with, no Variant hashed."""
        rows = self._representatives
        columns = [class_ids[rows].tolist() for _codes, _values, class_ids in self._columns]
        return list(zip(*columns)) if columns else [()] * self.count

    def keys(self, which: Sequence[int]) -> list[tuple]:
        """The aggregation key of each group in ``which`` as the key extractor
        builds it: the first row's Variants, ``None`` where it has none."""
        rows = self._representatives[which]
        columns = [
            [values[code] if code >= 0 else None for code in codes[rows].tolist()]
            for codes, values, _class_ids in self._columns
        ]
        return list(zip(*columns)) if columns else [()] * len(which)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, starts)``: the rows stably sorted by group and where each
        group's run starts — what ``reduceat`` needs.  Only min/max/first
        reduce that way, so the sort waits until one of them asks."""
        if self._runs is None:
            order = np.argsort(self.inverse, kind="stable")
            boundaries = np.flatnonzero(np.diff(self.inverse[order])) + 1
            self._runs = (order, np.concatenate(([0], boundaries)))
        return self._runs


# -- vectorized operator kernels --------------------------------------------------
#
# A kernel folds the selected rows into ``cells``: one live state list per
# group, for one operator.  Counts and float accumulators continue from the
# cell's running value, adding row by row in input order (``np.add.at`` is
# unbuffered) — the streaming fold's own association, so a state reached
# batch by batch is bit-identical to the row engine's.  The moments no
# rounding touches (min, max, first, histogram bins) reduce the batch first
# and merge the partial through the operator's ``combine``.


#: state [count, total] / [count, total, sum of squares]
_SUM_FAMILY = (SumOp, AvgOp, ScaleOp, PercentTotalOp)
_VARIANCE_FAMILY = (VarianceOp, StddevOp, MomentsOp)


def _metric(store: ColumnStore, sel: np.ndarray, label: str, include_bool: bool = True):
    values, mask = store.numeric(label, include_bool)
    return values[sel], mask[sel]


def _set_cells(cells: list[list], index: int, values: np.ndarray) -> None:
    for cell, value in zip(cells, values.tolist()):
        cell[index] = value


def _count_into(
    cells: list[list], index: int, inverse: np.ndarray, weights: Optional[np.ndarray]
) -> None:
    """``cells[g][index] +=`` group g's rows — Σw once ``sample.weight`` is in play.

    Integer counts add exactly.  A float count (this batch carries weights, or
    an earlier one left a float behind) accumulates like any other float, an
    unweighted row adding 1.0.
    """
    running = np.array([cell[index] for cell in cells])
    if weights is None and running.dtype.kind == "i":
        running += np.bincount(inverse, minlength=len(cells))
    else:
        running = running.astype(np.float64)
        np.add.at(running, inverse, 1.0 if weights is None else weights)
    _set_cells(cells, index, running)


def _add_into(cells: list[list], index: int, inverse: np.ndarray, values: np.ndarray) -> None:
    """``cells[g][index] +=`` group g's values, one by one in row order."""
    running = np.array([cell[index] for cell in cells], dtype=np.float64)
    np.add.at(running, inverse, values)
    _set_cells(cells, index, running)


def _keep_first_zero(extrema: np.ndarray, ordered: np.ndarray, starts: np.ndarray) -> None:
    """Give each zero extremum the sign of its run's first zero: the row
    engine keeps the first of equal extrema, ``np.minimum`` may not."""
    zero = np.flatnonzero(extrema == 0)
    if len(zero):
        n = len(ordered)
        position = np.where(ordered == 0, np.arange(n), n)
        extrema[zero] = ordered[np.minimum.reduceat(position, starts)[zero]]


def _fold_op(
    kernel: AggregateOp,
    store: ColumnStore,
    groups: _Groups,
    weights: Optional[np.ndarray],
    cells: list[list],
) -> None:
    """Fold the selected rows into one operator's per-group states.

    Afterwards each of ``cells`` holds what the row engine's ``update`` loop
    over the same rows would have left there.

    ``weights`` (aligned with the selected rows, 1.0 where absent) carries
    ``sample.weight``: the extensive operators accumulate Σw / Σw·x instead
    of counts and plain sums, exactly like the weighted streaming kernels.
    """
    sel, inverse, n_groups = groups.sel, groups.inverse, groups.count
    t = type(kernel)
    if t is CountOp:
        _count_into(cells, 0, inverse, weights)
    elif t in _SUM_FAMILY or t in _VARIANCE_FAMILY:
        values, mask = _metric(store, sel, kernel.args[0])
        inv_m, val_m = inverse[mask], values[mask]
        w_m = None if weights is None else weights[mask]
        wval = val_m if w_m is None else w_m * val_m
        _count_into(cells, 0, inv_m, w_m)
        _add_into(cells, 1, inv_m, wval)
        if t in _VARIANCE_FAMILY:
            _add_into(cells, 2, inv_m, wval * val_m)
    elif t in (MinOp, MaxOp):
        values, mask = _metric(store, sel, kernel.args[0])
        fill = np.inf if t is MinOp else -np.inf
        order, starts = groups.runs()
        reducer = np.minimum if t is MinOp else np.maximum
        ordered = np.where(mask, values, fill)[order]
        extrema = reducer.reduceat(ordered, starts)
        _keep_first_zero(extrema, ordered, starts)
        seen = np.bincount(inverse[mask], minlength=n_groups)
        for cell, extremum, n in zip(cells, extrema.tolist(), seen.tolist()):
            if n:
                kernel.combine(cell, [extremum])
    elif t is RatioOp:
        xs, xmask = _metric(store, sel, kernel.args[0], include_bool=False)
        ys, ymask = _metric(store, sel, kernel.args[1], include_bool=False)
        if weights is not None:
            xs = weights * xs
            ys = weights * ys
        _add_into(cells, 0, inverse[xmask], xs[xmask])
        _add_into(cells, 1, inverse[ymask], ys[ymask])
    elif t is FirstOp:
        codes, values = store.interned(kernel.args[0])
        codes = codes[sel]
        n = len(sel)
        # position of the first non-empty value per group, in input order
        position = np.where(codes >= 0, np.arange(n), n)
        order, starts = groups.runs()
        firsts = np.minimum.reduceat(position[order], starts)
        for cell, first in zip(cells, firsts.tolist()):
            if first < n:
                kernel.combine(cell, [values[codes[first]]])
    elif t is HistogramOp:
        values, mask = _metric(store, sel, kernel.args[0])
        inv_m, val_m = inverse[mask], values[mask]
        bins = kernel.bins
        # Same slot arithmetic as the streaming update (including the edge
        # where float rounding pushes an in-range value into the overflow
        # slot): 0 = underflow, 1..bins = bins, bins+1 = overflow.
        in_range = (val_m >= kernel.lo) & (val_m < kernel.hi)
        mid = np.zeros(len(val_m), dtype=np.int64)
        mid[in_range] = (
            (val_m[in_range] - kernel.lo) * kernel._scale
        ).astype(np.int64) + 1
        slots = np.where(val_m < kernel.lo, 0, np.where(val_m >= kernel.hi, bins + 1, mid))
        width = bins + 2
        flat = np.bincount(inv_m * width + slots, minlength=n_groups * width)
        for cell, counts in zip(cells, flat.reshape(n_groups, width).tolist()):
            kernel.combine(cell, counts)
    else:
        raise NotImplementedError(
            f"columnar backend does not support: {kernel.spec_string()}"
        )  # pragma: no cover - guarded by supports_scheme


def _weights(store: ColumnStore, sel: np.ndarray) -> Optional[np.ndarray]:
    """The selected rows' sampling weights, or ``None`` when none carries one.

    Bool weights are excluded (matching the streaming plans' _weight_value)
    and missing or non-numeric weights fold as 1.0.
    """
    wvals, wmask = store.numeric(WEIGHT_LABEL, False)
    if wmask.any():
        sel_mask = wmask[sel]
        if sel_mask.any():
            return np.where(sel_mask, wvals[sel], 1.0)
    return None


# -- entry points -----------------------------------------------------------------


def _require_kernels(scheme: AggregationScheme) -> None:
    unsupported = unsupported_ops(scheme)
    if unsupported:
        raise NotImplementedError(
            "columnar backend does not support: " + ", ".join(unsupported)
        )


def _fold_store(
    source: Source,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]],
    rows: Optional[np.ndarray],
    tables: Sequence[dict[object, int]],
    states_of,
) -> tuple[Optional[_Groups], list[list[list]], int, int]:
    """The pass every entry point shares: pick the rows, group them, fold
    each operator into the per-group state lists ``states_of(groups)`` hands
    back.  Returns ``(groups, those state lists, offered, processed)``;
    ``groups`` is ``None`` when no row was left to fold.

    ``rows`` (default: every row) are the rows offered — a shard's share of a
    routed batch; the ones that pass the filter (see :func:`_select_rows`)
    are processed.
    """
    with observe.span("columnar.convert", cached=isinstance(source, ColumnStore)):
        store = _as_store(source)
    offered = len(store) if rows is None else len(rows)
    with observe.span("columnar.where"):
        rows = _select_rows(store, scheme, where, rows)
    if not len(rows):
        return None, [], offered, 0
    with observe.span("columnar.group"):
        groups = _Groups(store, scheme, rows, tables)
        states = states_of(groups)
    # like Python floats: overflow -> inf and inf - inf -> nan, silently
    with observe.span("columnar.ops"), np.errstate(over="ignore", invalid="ignore"):
        weights = _weights(store, rows)
        for i, op in enumerate(scheme.ops):
            _fold_op(_unwrap(op), store, groups, weights, [group[i] for group in states])
    return groups, states, offered, len(rows)


class ColumnFold:
    """The vector kernels bound to one :class:`AggregationDB`'s live states.

    :meth:`feed` folds a store's rows into the states ``db`` holds — no
    partial DB in between — and leaves them bit-identical to
    ``for r in rows: db.process(r)``, floats included.  A fold that outlives
    one store (a shard worker's, one per tenant DB) finds a group's live
    state list without hashing a :class:`Variant`: each key column's distinct
    values are interned to Variant-equality class ids (``int 1`` and
    ``double 1.0`` share one; the DB keeps the first Variant it saw as the
    key), and the tuple of class ids is the slot.  Slots are references into
    the DB's table, so they go when ``db.table_epoch`` moves (``clear()``,
    ``pop_entries()``), and the interned values with them.  Between feeds
    anything else may fold into the DB too (``process``, ``load_states``):
    the slots are the DB's own lists.
    """

    def __init__(self, db: AggregationDB) -> None:
        _require_kernels(db.scheme)
        self.db = db
        self._forget()

    def _forget(self) -> None:
        self._epoch = self.db.table_epoch
        #: per key column: Variant-equality class key -> class id
        self._tables: list[dict[object, int]] = [{} for _ in self.db.scheme.key]
        #: tuple of a key's class ids -> its live state lists in the DB
        self._slots: dict[tuple[int, ...], list[list]] = {}

    def feed(
        self,
        source: Source,
        where: Optional[Sequence[Condition]] = None,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Fold the rows of ``source`` (of ``rows``, when given) that pass the
        filter, and count offered and processed into the DB's stream counters
        as ``db.process`` would, row by row."""
        db = self.db
        if db.table_epoch != self._epoch:
            self._forget()
        _groups, _states, offered, processed = _fold_store(
            source, db.scheme, where, rows, self._tables, self._live_states
        )
        db.num_offered += offered
        db.num_processed += processed

    def _live_states(self, groups: _Groups) -> list[list[list]]:
        """The DB's state lists for each group, created where it had none."""
        slots = self._slots
        class_keys = groups.class_keys()
        live = [slots.get(class_key) for class_key in class_keys]
        new = [g for g, states in enumerate(live) if states is None]
        for g, key in zip(new, groups.keys(new)):
            live[g] = slots[class_keys[g]] = self.db.states_at(key)
        return live


def columnar_aggregate(
    source: Source,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]] = None,
) -> list[Record]:
    """Aggregate ``source`` under ``scheme`` with numpy group-by.

    ``source`` is a record iterable or a prebuilt (cached)
    :class:`~repro.io.colfile.ColumnStore`.  Raises
    :class:`NotImplementedError` for schemes :func:`supports_scheme`
    rejects; results match :func:`repro.aggregate.aggregate_records` exactly
    (up to record order, with float reductions subject only to the global
    ``percent_total`` denominator's summation order).  One shot, so the
    groups' states live in a plain list: no keyed table is built for them.
    """
    _require_kernels(scheme)
    ops = scheme.ops
    groups, states, _offered, _processed = _fold_store(
        source, scheme, where, None, [{} for _ in scheme.key],
        lambda groups: [[op.init() for op in ops] for _ in range(groups.count)],
    )
    if groups is None:
        return []
    # Global totals for percent_total — mirrors AggregationDB.flush.
    totals: dict[int, float] = {}
    for i, op in enumerate(ops):
        if getattr(op, "needs_global_total", False):
            totals[i] = sum(group_states[i][1] for group_states in states)
    out: list[Record] = []
    for key, group_states in zip(groups.keys(range(groups.count)), states):
        data = {label: value for label, value in zip(scheme.key, key) if value is not None}
        for i, (op, state) in enumerate(zip(ops, group_states)):
            if i in totals:
                results = op.results_with_total(state, totals[i])  # type: ignore[attr-defined]
            else:
                results = op.results(state)
            for label, value in results:
                data[label] = value
        out.append(Record.from_variants(data))
    return out


def columnar_feed(
    db: AggregationDB,
    source: Source,
    where: Optional[Sequence[Condition]] = None,
) -> None:
    """Vectorized equivalent of ``db.process_all(records)``.

    The fast path :meth:`QueryEngine.feed` dispatches to, so even the
    partial-aggregation steps the MPI query application composes benefit
    from vectorization.  One-shot use of :class:`ColumnFold`.
    """
    ColumnFold(db).feed(source, where)


def columnar_db(
    source: Source,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]] = None,
) -> AggregationDB:
    """A fresh :class:`AggregationDB` holding the vectorized result.

    Interchangeable with a DB the streaming path filled: it can be
    ``combine``-d, flushed, or fed further records.
    """
    db = AggregationDB(scheme)
    columnar_feed(db, source, where)
    return db
