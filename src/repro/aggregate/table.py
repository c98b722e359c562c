"""The partial-aggregate state table: one struct-of-arrays per scheme.

An :class:`~repro.aggregate.db.AggregationDB` is the paper's hash table as
``dict[key tuple -> list of state lists]``: right for one event at a time,
but every layer of the server path would pay per group in Python to fold,
copy, encode, decode and merge it.  A :class:`StateTable` holds the same
partial aggregates as columns instead:

* **slots** — each distinct key is a dense slot number.  A key column's
  values are interned to Variant-equality class ids (``int 1`` and
  ``double 1.0`` share one, as they share a DB entry), and the tuple of
  class ids is the slot; each key label keeps a column of the first-seen
  (representative) Variant, the key a DB would keep;
* **cells** — one growable numpy array per (operator, state cell): counts
  ``int64`` until a weighted row or a float count reaches the slot and
  ``float64`` from then on (exactly where the row engine's Python int turns
  float), sums ``float64``, min / max ``float64`` plus a seen mask,
  histogram bins a 2-D ``int64`` array, ``first`` an object array of
  Variants.  An operator without a vector kernel keeps an object array of
  its own state lists and folds hydrated rows through its ``update``.

:meth:`StateTable.fold` runs the vector kernels straight into the cells
(``np.add.at`` adds in input order onto the running value, so float sums
are bit-identical to the row engine's), :meth:`~StateTable.merge` routes
another table's keys through the same slot lookup and combines cell by
cell, :meth:`~StateTable.take` / :meth:`~StateTable.copy` /
:meth:`~StateTable.pop` export by slicing, and the ``RSB1`` codec reads and
writes the cells as they are (:meth:`~StateTable.to_binary`,
:meth:`~StateTable.from_binary`).  Every partial state off the per-event
path is a table: a server's shards, relays and root, the off-line partial
query API, its process pool and MPI reduction, the window front's retired
windows, the sampled query and, fed by a ring of snapshot rows, each
on-line channel thread's state.  :meth:`~StateTable.export_states` /
:meth:`~StateTable.from_states` are the boundary to the list form, which
only the row-engine oracle and the benchmark's replays still hold.

The output leaves as columns too: :meth:`~StateTable.render` computes each
operator's results for every slot at once (a
:class:`~repro.io.colfile.ColumnStore` of key and output columns, typed as
the operators' ``results()`` type each value), which a second-stage query
folds as it is; :meth:`~StateTable.flush` is that store hydrated into one
record per slot.

A table decoded from the wire, built from list-form states or popped is a
*source*: its slots are not indexed and may repeat a key (a list of groups
may), which merging resolves in order; folding or merging *into* it indexes
it first.  A :meth:`~StateTable.copy` or :meth:`~StateTable.take` keeps the
slot index and can be merged into as it is.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .. import observe
from ..common.errors import AggregationError, QueryError
from ..common.record import Record
from ..common.variant import ValueType, Variant
from ..io import colfile
from ..io.colfile import (
    ColfileError,
    ColumnStore,
    DecodeLimits,
    _Column,
    _DictColumn,
    _Dictionary,
    _first_use,
    _NumColumn,
    _dense_unique,
    _table_span,
)
from .ops import (
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
from .plan import _weight_value
from .scheme import AggregationScheme

__all__ = ["StateTable", "where_rows"]

Source = Union[ColumnStore, Iterable[Record]]

#: state [count, total] / [count, total, sum of squares]
_SUM_FAMILY = (SumOp, AvgOp, ScaleOp, PercentTotalOp)
_VARIANCE_FAMILY = (VarianceOp, StddevOp, MomentsOp)

_INT, _UINT, _DOUBLE, _STRING = (
    ValueType.INT, ValueType.UINT, ValueType.DOUBLE, ValueType.STRING
)
_F64 = struct.Struct("<d")


def _unwrap(op: AggregateOp) -> AggregateOp:
    return op.inner if isinstance(op, AliasedOp) else op


# -- vectorized WHERE ---------------------------------------------------------------


def _condition_mask(cond, store: ColumnStore, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean mask over ``rows`` of the store (default: every row) for one
    WHERE condition (predicate pushdown).

    Compare/Exists evaluate per distinct interned value, then broadcast
    through the code column; a missing attribute (code -1) is always False
    for them, and ``not(...)`` is plain mask negation — exactly the row
    semantics of :func:`repro.calql.semantics.compile_conditions`.
    """
    from ..calql.ast import Compare, Exists, NotCond  # deferred: calql builds on aggregate
    from ..calql.semantics import compare_variants

    if isinstance(cond, NotCond):
        return ~_condition_mask(cond.inner, store, rows)
    if not isinstance(cond, (Exists, Compare)):
        raise QueryError(f"unknown condition type {type(cond).__name__}")
    codes, values = store.interned(cond.label)
    if rows is not None:
        codes = codes[rows]
    if isinstance(cond, Exists):
        return codes >= 0
    truth = np.zeros(len(values) + 1, dtype=bool)  # the last entry: code -1, missing
    for i, v in enumerate(values):
        truth[i] = compare_variants(v, cond.op, cond.value)
    return truth[codes]


def _select_rows(
    store: ColumnStore,
    scheme: AggregationScheme,
    where: Optional[Sequence] = None,
    rows: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Indices of the rows the aggregation folds: :func:`where_rows` of
    ``rows`` (default: every row).

    ``where`` is the query's AST condition list; ``None`` falls back to the
    conditions the scheme's predicate was compiled from, and for a
    hand-written predicate callable to calling it on the offered rows,
    hydrated.  When both exist they are the same filter (the scheme's
    predicate is compiled from the WHERE clause), so only one is applied.
    """
    predicate = scheme.predicate
    mask: Optional[np.ndarray] = None
    if where is None and predicate is not None:
        where = getattr(predicate, "conditions", None)
        if where is None:
            records = _hydrate(store, rows)
            mask = np.fromiter(map(predicate, records), dtype=bool, count=len(records))
    return where_rows(store, where, rows, mask)


def where_rows(
    store: ColumnStore,
    where: Optional[Sequence],
    rows: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Indices of the rows of ``rows`` (default: every row) that pass every
    WHERE condition in ``where``, as column masks (and ``mask``, when
    given); ``None`` when that is every row of the store, in order, so a
    reader takes its columns without a gather."""
    for cond in where or ():
        m = _condition_mask(cond, store, rows)
        mask = m if mask is None else mask & m
    if mask is None:
        return rows
    if rows is None:
        return None if mask.all() else np.flatnonzero(mask)
    return rows[mask]


def _hydrate(store: ColumnStore, rows: Optional[np.ndarray]) -> list[Record]:
    if rows is None or (len(rows) == len(store) and np.array_equal(rows, np.arange(len(store)))):
        return store.records
    return colfile.records_from_store(store, rows)


# -- grouping -----------------------------------------------------------------------


def _equality_classes(
    values: Sequence[Variant], table: dict[object, int]
) -> tuple[np.ndarray, int]:
    """Collapse distinct interned values into Variant-equality classes.

    Interned codes are exact — ``int 1`` and ``double 1.0`` are distinct —
    but GROUP BY identity follows :class:`Variant` equality, where numeric
    values compare as floats across int/uint/double (a NaN, equal to
    nothing, by its bit pattern: same-bit NaNs from any batch share a class,
    as they share an ``AggregationDB`` entry).  Returns a lookup
    table mapping each code to a class id — its last entry, which code -1
    indexes, is the missing class 0, so no ``codes + 1`` temporary is
    needed — plus the radix (class count + 1).  ``table`` holds the classes
    seen so far and grows in place, so a value keeps its id from batch to
    batch.  Runs once per *distinct* value, so the per-record work stays
    vectorized.
    """
    classes = []
    for v in values:
        t = v.type
        if t is _STRING:
            key = v.value  # a bare str: apart from the float and tuple keys
        elif t is _INT or t is _UINT or t is _DOUBLE:
            key = float(v.value)
            if key != key:  # NaN equals nothing: one class per bit pattern
                key = (_DOUBLE, _F64.pack(key))
        else:
            key = (t, v.value)
        classes.append(table.setdefault(key, len(table) + 1))
    classes.append(0)  # the missing slot is its own class
    return np.array(classes, dtype=np.int64), len(table) + 1


#: Mixed-radix packed group ids stay below this, clear of int64 overflow.
_PACK_LIMIT = 2**62


def _stable_order(ids: np.ndarray, count: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for ids in ``range(count)``.

    A stable sort's permutation is unique, and numpy's stable sort of an
    8- or 16-bit key is a radix sort: past 2**16 ids, two stable 16-bit
    passes (low half, then high half) give the same permutation.
    """
    if count <= 2**8:
        return np.argsort(ids.astype(np.uint8), kind="stable")
    if count <= 2**16:
        return np.argsort(ids.astype(np.uint16), kind="stable")
    if count <= 2**32:
        low = np.argsort(ids.astype(np.uint16), kind="stable")
        return low[np.argsort((ids[low] >> 16).astype(np.uint16), kind="stable")]
    return np.argsort(ids, kind="stable")


class _Groups:
    """Selected rows collapsed to dense group ids, with reduceat views.

    The key columns' equality-class ids pack mixed-radix into one int64 per
    row, which :func:`~repro.io.colfile._dense_unique` numbers: by presence
    table, with no sort, while the span is within
    :func:`~repro.io.colfile._table_span` of the row count.  Before a
    column would push a span still within the bound past it, the ids so
    far are ranked by table (order kept, at most one per row), so a wide
    key stays sort-free as long as it can; before the span would pass
    :data:`_PACK_LIMIT` they are ranked whatever it costs.
    """

    __slots__ = ("sel", "inverse", "count", "_columns", "_representatives", "_runs")

    def __init__(
        self,
        store: ColumnStore,
        key: Sequence[str],
        sel: Optional[np.ndarray],
        tables: Sequence[dict[object, int]],
    ):
        self.sel = sel
        n = len(store) if sel is None else len(sel)
        bound = _table_span(n)
        packed = np.zeros(n, dtype=np.int64)  # no key column: one group
        span = 1  # every packed id is in range(span)
        #: per key column: the selected rows' codes, the code -> Variant
        #: table and the code -> equality-class lookup
        self._columns: list[tuple[np.ndarray, list[Variant], np.ndarray]] = []
        for label, table in zip(key, tables):
            codes, values = store.interned(label)
            if sel is not None:
                codes = codes[sel]
            classes, radix = _equality_classes(values, table)
            self._columns.append((codes, values, classes))
            if span == 1:
                packed = classes[codes]
            else:
                wider = span * radix
                if wider > _PACK_LIMIT or span <= bound < wider:
                    distinct, packed = _dense_unique(packed, span)
                    span = len(distinct)
                packed *= radix
                packed += classes[codes]
            span *= radix
        # Dense ids in sorted order of the packed value, i.e. lexicographic
        # in the per-column classes: this fixes the slot order of new keys.
        unique_ids, inverse = _dense_unique(packed, span)
        count = len(unique_ids)
        self.inverse = inverse
        self.count = count
        self._runs: Optional[tuple[np.ndarray, np.ndarray]] = None
        # one representative (first) row per group: its key is the group's
        representatives = np.full(count, -1, dtype=np.int64)
        representatives[inverse[::-1]] = np.arange(n - 1, -1, -1)
        self._representatives = representatives

    def class_columns(self) -> list[np.ndarray]:
        """Each group's equality-class id, one array per key column."""
        rows = self._representatives
        return [classes[codes[rows]] for codes, _values, classes in self._columns]

    def representatives(self, which: np.ndarray) -> list[tuple[np.ndarray, list[Variant]]]:
        """Per key column, the first row's code (-1: absent) of each group in
        ``which`` and the values the codes index."""
        rows = self._representatives[which]
        return [(codes[rows], values) for codes, values, _classes in self._columns]

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, starts)``: the rows stably sorted by group and where each
        group's run starts — what ``reduceat`` needs.  The order is a radix
        sort of the group ids (:func:`_stable_order`), and the starts are the
        running sum of the group sizes (every id has a row).  Only
        min/max/first reduce that way, so the sort waits until one of them
        asks."""
        if self._runs is None:
            order = _stable_order(self.inverse, self.count)
            starts = np.zeros(self.count, dtype=np.int64)
            np.cumsum(np.bincount(self.inverse, minlength=self.count)[:-1], out=starts[1:])
            self._runs = (order, starts)
        return self._runs


class _Batch:
    """The rows one fold folds: their groups, each group's slot, and what
    the kernels read from the store, each computed once."""

    def __init__(self, store: ColumnStore, groups: _Groups, slots: np.ndarray) -> None:
        self.store = store
        self.sel = groups.sel
        self.groups = groups
        #: the slot of each group, and of each selected row (a fresh
        #: table's slots are the group ids themselves)
        self.slots = slots
        identity = np.array_equal(slots, np.arange(len(slots)))
        self.slot_rows = groups.inverse if identity else slots[groups.inverse]
        present = store.present(WEIGHT_LABEL)
        #: rows carrying a ``sample.weight`` entry (None: no selected row
        #: does), and every row's weight: a numeric, non-bool one as it is,
        #: 1.0 otherwise — the row plans' ``_weight_value``
        self.weighted: Optional[np.ndarray] = None
        self.weights: Optional[np.ndarray] = None
        if present is not None and self.selected(present).any():
            self.weighted = self.selected(present)
            values, numeric = store.numeric(WEIGHT_LABEL, False)
            self.weights = np.where(self.selected(numeric), self.selected(values), 1.0)
        self._records: Optional[list[Record]] = None

    def selected(self, column: np.ndarray) -> np.ndarray:
        """The selected rows of a column over the store (no copy when every
        row is selected; the kernels never write into it)."""
        return column if self.sel is None else column[self.sel]

    def metric(self, label: str, include_bool: bool = True) -> tuple[np.ndarray, np.ndarray]:
        values, mask = self.store.numeric(label, include_bool)
        return self.selected(values), self.selected(mask)

    def scaled(self, values: np.ndarray) -> np.ndarray:
        """Each row's contribution ``w·x`` (``x`` unweighted: ``1.0·x == x``)."""
        return values if self.weights is None else self.weights * values

    def records(self) -> list[Record]:
        if self._records is None:
            self._records = _hydrate(self.store, self.sel)
        return self._records


# -- state cells ----------------------------------------------------------------------
#
# A cell holds one operator state cell (a histogram's bins and a kernel-less
# operator's state lists: several) for every slot.  ``copy`` puts rows of
# another table's cell into slots a merge just created, as ``load_states``
# copies a new key's lists; ``combine`` merges rows into distinct held
# slots as the operator's ``combine`` would; ``slots`` / ``fill`` convert to
# and from the codec's slots.


class _Cell:
    #: ``(attribute, dtype, initial value)`` of each array
    ARRAYS: tuple = ()
    width = 1
    shape: tuple = ()

    def __init__(self, op: AggregateOp, capacity: int) -> None:
        self.op = op
        for name, dtype, fill in self.ARRAYS:
            setattr(self, name, np.full((capacity, *self.shape), fill, dtype=dtype))

    def resize(self, capacity: int, n: int) -> None:
        for name, dtype, fill in self.ARRAYS:
            old = getattr(self, name)
            new = np.full((capacity, *self.shape), fill, dtype=dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def take(self, rows: np.ndarray) -> "_Cell":
        """A copy holding ``rows`` of this cell, in that order."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        for name, _dtype, _fill in self.ARRAYS:
            setattr(out, name, getattr(self, name)[rows])
        return out

    def init(self, start: int, stop: int) -> None:
        """Slots ``start:stop`` were just created (arrays hold their fills)."""

    def copy(self, dest: np.ndarray, src: "_Cell", rows: np.ndarray) -> None:
        for name, _dtype, _fill in self.ARRAYS:
            getattr(self, name)[dest] = getattr(src, name)[rows]


def _typed(slot: tuple, dtype, what: str) -> np.ndarray:
    """Every cell of ``slot`` as ``dtype``; an absent or ill-typed one is an
    error.  A list slot takes ints (a float slot also floats), no bool."""
    if slot[0] == "o":
        cells = slot[1]
        allowed = (int,) if dtype is np.int64 else (int, float)
        if any(type(c) not in allowed for c in cells):
            names = " or ".join(t.__name__ for t in allowed)
            raise ColfileError(f"{what} state cells must be {names}")
        try:
            return np.array(cells, dtype=dtype)
        except OverflowError:
            raise ColfileError(f"{what} state cell outside 64 bits") from None
    letter, values, mask = slot
    if mask is not None or (letter == "f" and dtype is np.int64):
        raise ColfileError(f"{what} state cells must all be present and {np.dtype(dtype).name}")
    return values.astype(dtype, copy=False)


class _Count(_Cell):
    """A count: ``int64`` while the row engine's cell is an int, ``float64``
    (``is_float``) once a weighted row or a float count reached the slot."""

    ARRAYS = (("ints", np.int64, 0), ("floats", np.float64, 0.0), ("is_float", bool, False))

    def fold(self, slot_rows: np.ndarray, batch: _Batch, rows: Optional[np.ndarray] = None) -> None:
        """Count ``rows`` of the batch (default: all) into their slots —
        Σw once a row carrying ``sample.weight`` reaches the slot."""
        weighted = batch.weighted
        if weighted is not None and rows is not None:
            weighted = weighted[rows]
        if weighted is None or not weighted.any():
            if self.is_float.any():  # per slot: no pass over the rows otherwise
                floating = self.is_float[slot_rows]
                np.add.at(self.floats, slot_rows[floating], 1.0)
                slot_rows = slot_rows[~floating]
            np.add.at(self.ints, slot_rows, 1)
            return
        weights = batch.weights if rows is None else batch.weights[rows]
        # A slot's rows before its first weighted row add as ints; from that
        # row on (or throughout, for a float count) they add as floats.
        position = np.arange(len(slot_rows))
        touched, inverse = _dense_unique(slot_rows)
        first = np.full(len(touched), len(slot_rows))
        np.minimum.at(first, inverse[weighted], position[weighted])
        floating = self.is_float[slot_rows] | (position >= first[inverse])
        np.add.at(self.ints, slot_rows[~floating], 1)
        turning = touched[(first < len(slot_rows)) & ~self.is_float[touched]]
        self.floats[turning] = self.ints[turning]
        self.is_float[turning] = True
        np.add.at(self.floats, slot_rows[floating], weights[floating])  # 1.0 unweighted

    def combine(self, dest, src: "_Count", rows) -> None:
        s_float, d_float = src.is_float[rows], self.is_float[dest]
        if not (s_float.any() or d_float.any()):
            np.add.at(self.ints, dest, src.ints[rows])
            return
        # int + float is float(int) + float, as in Python
        s_value = np.where(s_float, src.floats[rows], src.ints[rows])
        d_value = np.where(d_float, self.floats[dest], self.ints[dest])
        self.ints[dest] += src.ints[rows]
        self.floats[dest] = d_value + s_value
        self.is_float[dest] = s_float | d_float

    def slots(self, n: int) -> list[tuple]:
        floating = self.is_float[:n]
        if not floating.any():
            return [("i", self.ints[:n], None)]
        if floating.all():
            return [("f", self.floats[:n], None)]
        cells = self.ints[:n].tolist()
        floats = self.floats[:n].tolist()
        for i in np.flatnonzero(floating).tolist():
            cells[i] = floats[i]
        return [("o", cells)]

    def fill(self, slots: list[tuple], n: int) -> None:
        (slot,) = slots
        if slot[0] == "f":
            self.floats[:n] = _typed(slot, np.float64, "count")
            self.is_float[:n] = True
        elif slot[0] == "i":
            self.ints[:n] = _typed(slot, np.int64, "count")
        else:
            cells = slot[1]
            floating = np.array([type(c) is float for c in cells], dtype=bool)
            self.is_float[:n] = floating
            self.floats[:n] = _typed(slot, np.float64, "count")
            self.ints[:n] = _typed(("o", [0 if f else c for c, f in zip(cells, floating.tolist())]),
                                   np.int64, "count")


class _Float(_Cell):
    """A float accumulator (a sum, a sum of squares, a ratio's sums)."""

    ARRAYS = (("values", np.float64, 0.0),)

    def add(self, slot_rows: np.ndarray, values: np.ndarray) -> None:
        np.add.at(self.values, slot_rows, values)  # unbuffered: in input order

    def combine(self, dest, src: "_Float", rows) -> None:
        np.add.at(self.values, dest, src.values[rows])

    def slots(self, n: int) -> list[tuple]:
        return [("f", self.values[:n], None)]

    def fill(self, slots: list[tuple], n: int) -> None:
        (slot,) = slots
        self.values[:n] = _typed(slot, np.float64, "sum")


class _Extremum(_Cell):
    """``min`` / ``max``: the value, and whether the slot has seen one."""

    ARRAYS = (("values", np.float64, 0.0), ("seen", bool, False))

    def __init__(self, op: AggregateOp, capacity: int) -> None:
        super().__init__(op, capacity)
        self.is_min = type(_unwrap(op)) is MinOp

    def better(self, theirs: np.ndarray, mine: np.ndarray) -> np.ndarray:
        """Where ``theirs`` replaces ``mine``: strictly smaller (larger) —
        never a NaN, and never the second of two equal zeros."""
        return theirs < mine if self.is_min else theirs > mine

    def fold(self, batch: _Batch) -> None:
        """The row rule, per group of the batch: a slot's first folded value
        seeds it, then only a strictly better one replaces it."""
        values, mask = batch.metric(self.op.args[0])
        order, starts = batch.groups.runs()
        fill = np.inf if self.is_min else -np.inf
        reduce = (np.minimum if self.is_min else np.maximum).reduceat
        dense = bool(mask.all())
        clean = values[order] if dense else np.where(mask, values, fill)[order]
        extrema = reduce(clean, starts)
        # np.minimum passes a NaN on, so a NaN-free result means none was read
        has_nan = bool(np.isnan(extrema).any())
        if has_nan:  # a NaN replaces nothing: reduce without them
            clean = np.where(mask & (values == values), values, fill)[order]
            extrema = reduce(clean, starts)
        _keep_first_zero(extrema, clean, starts)
        seeded = extrema
        if has_nan:
            # an unseen slot whose first value is a NaN keeps that NaN
            n = len(values)
            first = np.minimum.reduceat(np.where(mask, np.arange(n), n)[order], starts)
            seed = values[np.minimum(first, n - 1)]
            seeded = np.where(seed != seed, seed, extrema)
        slots = batch.slots
        mine, seen = self.values[slots], self.seen[slots]
        new = np.where(seen, np.where(self.better(extrema, mine), extrema, mine), seeded)
        if not dense:  # a group none of whose rows has a value stays as it is
            present = np.bincount(batch.groups.inverse[mask], minlength=len(starts)) > 0
            slots, new = slots[present], new[present]
        self.values[slots] = new
        self.seen[slots] = True

    def combine(self, dest, src: "_Extremum", rows) -> None:
        theirs, their_seen = src.values[rows], src.seen[rows]
        mine, seen = self.values[dest], self.seen[dest]
        take = their_seen & (~seen | self.better(theirs, mine))
        self.values[dest] = np.where(take, theirs, mine)
        self.seen[dest] = seen | their_seen

    def slots(self, n: int) -> list[tuple]:
        return [("f", self.values[:n], self.seen[:n])]

    def fill(self, slots: list[tuple], n: int) -> None:
        (slot,) = slots
        if slot[0] == "o":
            seen = [c is not None for c in slot[1]]
            slot = ("o", [c for c in slot[1] if c is not None])
            self.seen[:n] = seen
            self.values[:n][self.seen[:n]] = _typed(slot, np.float64, "min/max")
            return
        _letter, values, mask = slot
        self.seen[:n] = True if mask is None else mask
        self.values[:n] = values


def _keep_first_zero(extrema: np.ndarray, ordered: np.ndarray, starts: np.ndarray) -> None:
    """Give each zero extremum the sign of its run's first zero: the row
    engine keeps the first of equal extrema, ``np.minimum`` may not."""
    zero = np.flatnonzero(extrema == 0)
    if len(zero):
        n = len(ordered)
        position = np.where(ordered == 0, np.arange(n), n)
        extrema[zero] = ordered[np.minimum.reduceat(position, starts)[zero]]


class _First(_Cell):
    """``first``: the first non-empty Variant a slot saw."""

    ARRAYS = (("values", object, None), ("seen", bool, False))

    def fold(self, batch: _Batch) -> None:
        codes, values = batch.store.interned(self.op.args[0])
        codes = batch.selected(codes)
        n = len(codes)
        order, starts = batch.groups.runs()
        # position of the first non-empty value per group, in input order
        firsts = np.minimum.reduceat(np.where(codes >= 0, np.arange(n), n)[order], starts)
        slots = batch.slots
        take = (firsts < n) & ~self.seen[slots]
        for slot, first in zip(slots[take].tolist(), firsts[take].tolist()):
            self.values[slot] = values[codes[first]]
        self.seen[slots[take]] = True

    def combine(self, dest, src: "_First", rows) -> None:
        take = src.seen[rows] & ~self.seen[dest]
        self.values[dest[take]] = src.values[rows[take]]
        self.seen[dest[take]] = True

    def slots(self, n: int) -> list[tuple]:
        return [("o", self.values[:n].tolist())]

    def fill(self, slots: list[tuple], n: int) -> None:
        cells = colfile.slot_cells(slots[0])
        if any(c is not None and not isinstance(c, Variant) for c in cells):
            raise ColfileError("first state cells must be Variants")
        for i, cell in enumerate(cells):
            if cell is not None:
                self.values[i] = cell
                self.seen[i] = True


class _Bins(_Cell):
    """A histogram's underflow, bins and overflow: one int64 row per slot."""

    ARRAYS = (("bins", np.int64, 0),)

    def __init__(self, op: AggregateOp, capacity: int) -> None:
        self.width = _unwrap(op).bins + 2
        self.shape = (self.width,)
        super().__init__(op, capacity)

    def fold(self, batch: _Batch) -> None:
        kernel = _unwrap(self.op)
        values, mask = batch.metric(kernel.args[0])
        mask = mask & (values == values)  # a NaN fits no bin: dropped, as by update
        val_m = values[mask]
        # Same slot arithmetic as the streaming update (including the edge
        # where float rounding pushes an in-range value into the overflow
        # slot): 0 = underflow, 1..bins = bins, bins+1 = overflow.
        in_range = (val_m >= kernel.lo) & (val_m < kernel.hi)
        mid = np.zeros(len(val_m), dtype=np.int64)
        mid[in_range] = ((val_m[in_range] - kernel.lo) * kernel._scale).astype(np.int64) + 1
        bins = np.where(val_m < kernel.lo, 0, np.where(val_m >= kernel.hi, kernel.bins + 1, mid))
        np.add.at(self.bins, (batch.slot_rows[mask], bins), 1)

    def combine(self, dest, src: "_Bins", rows) -> None:
        np.add.at(self.bins, dest, src.bins[rows])

    def slots(self, n: int) -> list[tuple]:
        return [("i", self.bins[:n, j], None) for j in range(self.width)]

    def fill(self, slots: list[tuple], n: int) -> None:
        for j, slot in enumerate(slots):
            self.bins[:n, j] = _typed(slot, np.int64, "histogram")


class _States(_Cell):
    """A kernel-less operator: its own state list per slot, folded row by row
    through its ``update`` on hydrated rows and merged by its ``combine``."""

    ARRAYS = (("states", object, None),)

    def __init__(self, op: AggregateOp, capacity: int) -> None:
        self.width = op.state_width()
        super().__init__(op, capacity)

    def init(self, start: int, stop: int) -> None:
        for slot in range(start, stop):
            self.states[slot] = self.op.init()

    def take(self, rows: np.ndarray) -> "_Cell":
        out = super().take(rows)
        for i, state in enumerate(out.states.tolist()):
            out.states[i] = list(state)  # the owner keeps folding into its lists
        return out

    def fold(self, batch: _Batch) -> None:
        op, states = self.op, self.states
        for record, slot in zip(batch.records(), batch.slot_rows.tolist()):
            weight = record._entries.get(WEIGHT_LABEL)
            if weight is None:
                op.update(states[slot], record.get)
            else:
                op.update_weighted(states[slot], record.get, _weight_value(weight))

    def copy(self, dest, src: "_States", rows) -> None:
        for slot, row in zip(dest.tolist(), rows.tolist()):
            self.states[slot] = list(src.states[row])

    def combine(self, dest, src: "_States", rows) -> None:
        for slot, row in zip(dest.tolist(), rows.tolist()):
            self.op.combine(self.states[slot], src.states[row])

    def slots(self, n: int) -> list[tuple]:
        states = self.states[:n].tolist()
        return [("o", [state[j] for state in states]) for j in range(self.width)]

    def fill(self, slots: list[tuple], n: int) -> None:
        cells = [colfile.slot_cells(slot) for slot in slots]
        for i in range(n):
            self.states[i] = [column[i] for column in cells]


def _cell_types(op: AggregateOp) -> tuple[type, ...]:
    """The cells of ``op``'s state.  Exact types, not isinstance: a user
    subclass may override ``update`` semantics the vector kernels know
    nothing about, so it keeps its states as they are and folds row by row."""
    t = type(_unwrap(op))
    if t is CountOp:
        return (_Count,)
    if t in _SUM_FAMILY:
        return (_Count, _Float)
    if t in _VARIANCE_FAMILY:
        return (_Count, _Float, _Float)
    if t is RatioOp:
        return (_Float, _Float)
    if t in (MinOp, MaxOp):
        return (_Extremum,)
    if t is FirstOp:
        return (_First,)
    if t is HistogramOp:
        return (_Bins,)
    return (_States,)


def _fold_op(op: AggregateOp, cells: list[_Cell], batch: _Batch) -> None:
    """Fold the batch into one operator's cells — afterwards they hold what
    the row engine's ``update`` loop over the same rows leaves in its list.

    ``sample.weight`` makes the extensive operators accumulate Σw / Σw·x
    instead of counts and plain sums, like the weighted streaming kernels.
    """
    t = type(_unwrap(op))
    if t is CountOp:
        cells[0].fold(batch.slot_rows, batch)
    elif t in _SUM_FAMILY or t in _VARIANCE_FAMILY:
        values, mask = batch.metric(op.args[0])
        slot_rows, wval, rows = batch.slot_rows, batch.scaled(values), None
        if not mask.all():
            rows = np.flatnonzero(mask)
            slot_rows, values, wval = slot_rows[rows], values[rows], wval[rows]
        cells[0].fold(slot_rows, batch, rows)
        cells[1].add(slot_rows, wval)
        if t in _VARIANCE_FAMILY:
            cells[2].add(slot_rows, wval * values)
    elif t is RatioOp:
        for cell, label in zip(cells, op.args):
            values, mask = batch.metric(label, include_bool=False)
            cell.add(batch.slot_rows[mask], batch.scaled(values)[mask])
    else:
        cells[0].fold(batch)


# -- rendering ------------------------------------------------------------------------
#
# Each operator's output as one column over the slots, computed from its
# cells with the row engine's arithmetic, operation for operation, so the
# hydrated rows are the ``results()`` Variants bit for bit.

#: an int count past this may not survive the float64 a count column holds
_EXACT_INT = 2**53


def _count_values(cell: _Count, n: int) -> np.ndarray:
    """Each slot's count as a float64 (an int one converted as Python's
    ``float / int`` converts it)."""
    return np.where(cell.is_float[:n], cell.floats[:n], cell.ints[:n])


def _typed_column(
    values: np.ndarray, present: Optional[np.ndarray] = None, whole: Optional[ValueType] = None
) -> Optional[_NumColumn]:
    """A double column of ``values`` (copied; ``whole``: typed by
    integrality), 0.0 where not ``present``; ``None`` when no slot is."""
    if present is None or present.all():
        return _NumColumn(_DOUBLE, values.copy(), None, whole)
    if not present.any():
        return None
    return _NumColumn(_DOUBLE, np.where(present, values, 0.0), present, whole)


def _output_columns(op: AggregateOp, cells: list[_Cell], n: int) -> list[tuple[str, _Column]]:
    """``(label, column)`` of each of the operator's outputs over ``n`` slots:
    what its ``results()`` renders slot by slot, absent values masked."""
    t = type(_unwrap(op))
    if t is CountOp:
        count = cells[0]
        ints = count.ints[:n][~count.is_float[:n]]
        if not len(ints) or -_EXACT_INT <= ints.min() and ints.max() <= _EXACT_INT:
            return _labelled(op, _typed_column(_count_values(count, n), None, _UINT))
    elif t in _SUM_FAMILY or t in _VARIANCE_FAMILY:
        count = _count_values(cells[0], n)
        total = cells[1].values[:n]
        present = count != 0
        if t is SumOp:
            return _labelled(op, _typed_column(total, present, _INT))
        if t is AvgOp:
            return _labelled(op, _typed_column(total / count, present))
        if t is ScaleOp:
            return _labelled(op, _typed_column(total * _unwrap(op).factor, present))
        if t is PercentTotalOp:
            grand = sum(total.tolist())  # Python's own summation, in slot order
            share = 100.0 * total / grand if grand != 0.0 else np.zeros(n)
            return _labelled(op, _typed_column(share, present))
        if t is MomentsOp:
            return []
        mean = total / count
        variance = cells[2].values[:n] / count - mean * mean
        variance = np.where(variance > 0.0, variance, 0.0)  # max(0.0, v)
        return _labelled(op, _typed_column(
            np.sqrt(variance) if t is StddevOp else variance, present
        ))
    elif t is RatioOp:
        x, y = cells[0].values[:n], cells[1].values[:n]
        return _labelled(op, _typed_column(x / y, y != 0.0))
    elif t in (MinOp, MaxOp):
        return _labelled(op, _typed_column(cells[0].values[:n], cells[0].seen[:n], _INT))
    return _results_columns(op, cells, n)


def _labelled(op: AggregateOp, column: Optional[_Column]) -> list[tuple[str, _Column]]:
    return [] if column is None else [(op.output_labels()[0], column)]


def _results_columns(op: AggregateOp, cells: list[_Cell], n: int) -> list[tuple[str, _Column]]:
    """The fallback: each slot's ``results()`` (``results_with_total``
    against the sum of every slot's total, for an operator that asks for
    one), interned label by label."""
    states = [
        list(state)
        for state in zip(*[colfile.slot_cells(slot) for cell in cells for slot in cell.slots(n)])
    ]
    results = op.results
    if getattr(op, "needs_global_total", False):
        total = sum(state[1] for state in states)
        results = lambda state: op.results_with_total(state, total)  # noqa: E731
    columns: dict[str, list[Optional[Variant]]] = {}
    for slot, state in enumerate(states):
        for label, value in results(state):
            columns.setdefault(label, [None] * n)[slot] = value
    out = []
    for label, variants in columns.items():
        dictionary = _Dictionary()
        codes = np.array(dictionary.encode(variants), dtype=np.int64)
        out.append((label, _DictColumn(codes, dictionary.values)))
    return out


def _key_column(codes: np.ndarray, values: list[Variant]) -> Optional[_DictColumn]:
    """A key column with its values in the order the slots first use them —
    a records-built column's order, which numbers a second stage's groups —
    or ``None`` when no slot has a value."""
    present = codes >= 0
    if not present.any():
        return None
    renumbered, used = _first_use(codes[present], values)
    if present.all():
        return _DictColumn(renumbered, used)
    out = np.full(len(codes), -1, dtype=np.int64)
    out[present] = renumbered
    return _DictColumn(out, used)


# -- the table ------------------------------------------------------------------------


class StateTable:
    """Partial aggregates under one scheme, as columns (see the module docs).

    >>> table = StateTable(scheme)                          # doctest: +SKIP
    >>> table.fold(store)                   # a decoded batch, or records
    >>> delta = table.take()                # export and reset
    >>> root.merge(StateTable.from_binary(scheme, delta.to_binary()))
    >>> QueryEngine(text).run(root.render())  # the output, as columns
    >>> root.flush()                        # or one record per key
    """

    def __init__(self, scheme: AggregationScheme) -> None:
        self.scheme = scheme
        self._ops = tuple(scheme.ops)
        self._key = tuple(scheme.key)
        #: records offered to the table (including ones the filter dropped)
        #: and records folded, as ``AggregationDB`` counts them
        self.num_offered = 0
        self.num_processed = 0
        #: highest state-batch sequence merged per ``(source id, source epoch)``
        self._source_seqs: dict[tuple[str, str], int] = {}
        self._reset()

    def _reset(self, capacity: int = 16) -> None:
        self._n = 0
        self._capacity = capacity
        #: per key column: Variant-equality class key -> class id
        self._classes: list[dict[object, int]] = [{} for _ in self._key]
        self._cells = [[cls(op, capacity) for cls in _cell_types(op)] for op in self._ops]
        #: per key column: each slot's representative as a code into the
        #: column's values (-1: the key lacks the label)
        self._codes = [np.full(capacity, -1, dtype=np.int64) for _ in self._key]
        self._dictionaries: Optional[list[_Dictionary]] = [_Dictionary() for _ in self._key]
        self._values = [d.values for d in self._dictionaries]
        #: tuple of a key's class ids -> its slot; ``None`` for a source
        #: table, whose slots are not indexed (and may repeat a key)
        self._slots: Optional[dict[tuple, int]] = {}

    @classmethod
    def _source(
        cls,
        scheme: AggregationScheme,
        n: int,
        codes: list[np.ndarray],
        values: list[list[Variant]],
        cells: list[list[_Cell]],
    ) -> "StateTable":
        table = cls.__new__(cls)
        table.scheme = scheme
        table._ops, table._key = tuple(scheme.ops), tuple(scheme.key)
        table.num_offered = table.num_processed = 0
        table._source_seqs = {}
        table._classes = [{} for _ in table._key]
        table._n = table._capacity = n
        table._cells, table._codes, table._values = cells, codes, values
        table._dictionaries = table._slots = None
        return table

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of slots (distinct keys, unless a source repeats one)."""
        return self._n

    @property
    def num_entries(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"StateTable({self.scheme.describe()!r}, entries={self._n}, "
            f"processed={self.num_processed})"
        )

    @property
    def num_partial_keys(self) -> int:
        """Slots whose key lacks one or more GROUP BY labels."""
        missing = np.zeros(self._n, dtype=bool)
        for codes in self._codes:
            missing |= codes[: self._n] < 0
        return int(missing.sum())

    def memory_footprint(self) -> int:
        """State cells held, as ``AggregationDB.memory_footprint`` counts
        them: every slot's operator state widths."""
        return self._n * sum(op.state_width() for op in self._ops)

    def wire_size(self) -> int:
        """``AggregationDB.wire_size``'s estimate for the same slots."""
        cells = sum(op.state_width() for op in self._ops)
        return 16 + self._n * (8 * max(1, len(self._key)) + 8 * cells + 8)

    # -- slots ----------------------------------------------------------------------

    def _index(self) -> None:
        """Make a source table a fold / merge target: its rows merged in
        order into an indexed table, whose slots it then adopts."""
        if self._slots is not None:
            return
        indexed = StateTable(self.scheme)
        indexed.merge(self, counters=False)
        self._adopt(indexed)

    def _adopt(self, other: "StateTable") -> None:
        """Take over ``other``'s slots, keeping this table's counters."""
        for name in ("_n", "_capacity", "_cells", "_codes", "_dictionaries", "_values",
                     "_slots", "_classes"):
            setattr(self, name, getattr(other, name))

    def _resolve(
        self, classes: list[np.ndarray], count: int,
        representatives: Callable[[np.ndarray], list[tuple[np.ndarray, list[Variant]]]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The slot of each of ``count`` keys given as class-id columns,
        created in order where missing — ``representatives(which)`` gives
        those keys' values as codes into value lists.  Returns ``(slots,
        fresh)``: ``fresh`` marks where a key was created, at its first
        occurrence.  The lookups run in C; nothing costs Python per key."""
        table = self._slots
        keys = list(zip(*(column.tolist() for column in classes))) if classes else [()] * count
        slots = list(map(table.get, keys))
        fresh = np.zeros(count, dtype=bool)
        if None in slots:
            start = self._n
            # new keys numbered in order of first occurrence
            new = dict.fromkeys([key for key, slot in zip(keys, slots) if slot is None])
            table.update(zip(new, range(start, start + len(new))))
            slots = list(map(table.get, keys))
            created = np.full(len(new), count, dtype=np.int64)
            numbered = np.array(slots, dtype=np.int64) - start
            is_new = numbered >= 0
            np.minimum.at(created, numbered[is_new], np.flatnonzero(is_new))
            fresh[created] = True
            self._grow(len(new))
            for mine, dictionary, (codes, values) in zip(
                self._codes, self._dictionaries, representatives(created)
            ):
                # one dictionary lookup per distinct value, none per key
                lookup = np.full(len(values) + 1, -1, dtype=np.int64)
                used = np.flatnonzero(np.bincount(codes + 1, minlength=len(lookup))[1:])
                lookup[used + 1] = dictionary.encode([values[c] for c in used.tolist()])
                mine[start : self._n] = lookup[codes + 1]
        return np.array(slots, dtype=np.int64), fresh

    def _grow(self, k: int) -> None:
        n = self._n
        if n + k > self._capacity:
            capacity = max(2 * self._capacity, n + k, 16)
            for cells in self._cells:
                for cell in cells:
                    cell.resize(capacity, n)
            for i, codes in enumerate(self._codes):
                grown = np.full(capacity, -1, dtype=np.int64)
                grown[:n] = codes[:n]
                self._codes[i] = grown
            self._capacity = capacity
        self._n = n + k
        for cells in self._cells:
            for cell in cells:
                cell.init(n, n + k)

    # -- folding ------------------------------------------------------------------

    def fold(
        self,
        source: Source,
        rows: Optional[np.ndarray] = None,
        where: Optional[Sequence] = None,
    ) -> None:
        """Fold the rows of ``source`` (of ``rows``, when given) that pass
        the filter (:func:`_select_rows`), counting offered and processed rows
        as ``AggregationDB.process`` would.  Afterwards the cells are bit
        for bit what the row engine's fold of the same rows leaves.
        """
        with observe.span("columnar.convert", cached=isinstance(source, ColumnStore)):
            store = source if isinstance(source, ColumnStore) else ColumnStore.from_records(source)
        offered = len(store) if rows is None else len(rows)
        with observe.span("columnar.where"):
            sel = _select_rows(store, self.scheme, where, rows)
        processed = len(store) if sel is None else len(sel)
        if processed:
            self._index()
            with observe.span("columnar.group"):
                groups = _Groups(store, self._key, sel, self._classes)
                slots, _fresh = self._resolve(
                    groups.class_columns(), groups.count, groups.representatives
                )
            # like Python floats: overflow -> inf and inf - inf -> nan, silently
            with observe.span("columnar.ops"), np.errstate(over="ignore", invalid="ignore"):
                batch = _Batch(store, groups, slots)
                for op, cells in zip(self._ops, self._cells):
                    _fold_op(op, cells, batch)
        self.num_offered += offered
        self.num_processed += processed

    # -- merging ------------------------------------------------------------------

    def merge(
        self,
        other: "StateTable",
        rows: Optional[np.ndarray] = None,
        *,
        source: Optional[tuple[str, str, int]] = None,
        counters: bool = True,
    ) -> bool:
        """Combine ``other``'s slots (``rows`` of them, when given) into this
        table, in order: ``AggregationDB.load_states`` semantics, by column.

        A key this table lacks gets ``other``'s states as they are; a held
        one combines cell by cell as each operator's ``combine`` would.
        ``counters`` adds ``other``'s stream counters.  ``source`` — a
        ``(source id, source epoch, sequence number)`` triple — makes the
        merge idempotent per producer incarnation: a batch whose sequence
        does not advance past the last one merged from that ``(id, epoch)``
        is skipped (returns False).  ``other`` is left unmodified.
        """
        if other._key != self._key or other._ops != self._ops:
            raise AggregationError(
                "cannot merge state tables with different schemes: "
                f"{self.scheme.describe()!r} vs {other.scheme.describe()!r}"
            )
        if source is not None:
            source_id, source_epoch, seq = source
            ident = (source_id, source_epoch)
            if seq <= self._source_seqs.get(ident, -1):
                return False
            self._source_seqs[ident] = seq
        self._index()
        rows = np.arange(other._n, dtype=np.int64) if rows is None else np.asarray(rows, np.int64)
        if len(rows):
            codes = [column[rows] for column in other._codes]
            classes = [
                _equality_classes(values, table)[0][column]
                for values, table, column in zip(other._values, self._classes, codes)
            ]

            def representatives(which: np.ndarray) -> list[tuple[np.ndarray, list[Variant]]]:
                return [(column[which], values) for column, values in zip(codes, other._values)]

            slots, fresh = self._resolve(classes, len(rows), representatives)
            # A source may list a key twice: its k-th occurrences merge in
            # round k, so each round writes distinct slots, in input order.
            if len(set(slots.tolist())) == len(slots):
                rounds = [np.ones(len(rows), dtype=bool)]
            else:
                rank = _occurrence(slots)
                rounds = [rank == k for k in range(int(rank.max()) + 1)]
            for pick in rounds:
                for which, how in ((pick & fresh, "copy"), (pick & ~fresh, "combine")):
                    if which.any():
                        dest, src = slots[which], rows[which]
                        for mine, theirs in zip(self._cells, other._cells):
                            for cell, their_cell in zip(mine, theirs):
                                getattr(cell, how)(dest, their_cell, src)
        if counters:
            self.num_offered += other.num_offered
            self.num_processed += other.num_processed
        return True

    # -- exporting ------------------------------------------------------------------

    def _subset(self, rows: np.ndarray) -> "StateTable":
        """A source table of ``rows`` of this one (copied), in that order,
        whose key columns list only the values those rows use."""
        cells = [[cell.take(rows) for cell in cells] for cells in self._cells]
        codes, values = [], []
        for column, column_values in zip(self._codes, self._values):
            picked = column[rows]
            used = _dense_unique(picked[picked >= 0], len(column_values))[0]
            renumber = np.full(len(column_values) + 1, -1, dtype=np.int64)
            renumber[used + 1] = np.arange(len(used))
            codes.append(renumber[picked + 1])
            values.append([column_values[c] for c in used.tolist()])
        return StateTable._source(self.scheme, len(rows), codes, values, cells)

    def _handover(self, cells, codes, dictionaries, slots, classes) -> "StateTable":
        """A table of this one's slots (counters included) made of the given
        parts, indexed like this one: it can be merged into as it is."""
        out = StateTable._source(
            self.scheme, self._n, codes, [d.values for d in dictionaries], cells
        )
        out._dictionaries, out._slots, out._classes = dictionaries, slots, classes
        out.num_offered, out.num_processed = self.num_offered, self.num_processed
        return out

    def copy(self) -> "StateTable":
        """A snapshot the owner may go on folding behind: array slices and
        copies of the slot index, no per-slot work."""
        self._index()
        every = np.arange(self._n, dtype=np.int64)
        return self._handover(
            [[cell.take(every) for cell in cells] for cells in self._cells],
            [codes[every] for codes in self._codes],
            [dictionary.copy() for dictionary in self._dictionaries],
            dict(self._slots),
            [dict(classes) for classes in self._classes],
        )

    def take(self) -> "StateTable":
        """Hand over everything (counters included) and reset to empty: the
        same partial state is never exported twice.  The slots go by slicing,
        the slot index, dictionaries and class tables as they are; this
        table starts afresh, so nothing it held outlives the hand-over."""
        self._index()
        n = self._n
        out = self._handover(
            [[cell.take(slice(0, n)) for cell in cells] for cells in self._cells],
            [codes[:n] for codes in self._codes],
            self._dictionaries,
            self._slots,
            self._classes,
        )
        self.num_offered = self.num_processed = 0
        self._reset()
        return out

    def at_or_below(self, label: str, mark: float) -> np.ndarray:
        """Mask over the slots whose key value for ``label`` is a number
        ``<= mark`` (a window's end: closed below the watermark)."""
        column = self._key.index(label)
        values = self._values[column]
        closed = np.array(
            [False] + [v.is_numeric and float(v.value) <= mark for v in values], dtype=bool
        )
        return closed[self._codes[column][: self._n] + 1]

    def pop(self, label: str, mark: float) -> "StateTable":
        """Remove the slots :meth:`at_or_below` selects and return them as a
        source table.  The rest are re-indexed in order, so the key values
        and class ids of removed slots go with them: a windowed table holds
        only its open windows' ``window.end`` values."""
        self._index()
        doomed = self.at_or_below(label, mark)
        popped = self._subset(np.flatnonzero(doomed))
        if len(popped):
            kept = self._subset(np.flatnonzero(~doomed))
            kept._index()
            self._adopt(kept)
        return popped

    def _keys(self) -> list[tuple]:
        """Each slot's key tuple (Variant, or ``None`` where absent)."""
        columns = [
            [values[c] if c >= 0 else None for c in codes[: self._n].tolist()]
            for codes, values in zip(self._codes, self._values)
        ]
        return list(zip(*columns)) if columns else [()] * self._n

    def _rows(self) -> list[tuple]:
        """Each slot's operator states, a tuple of cells per operator."""
        n = self._n
        ops = [
            list(zip(*[colfile.slot_cells(slot) for cell in cells for slot in cell.slots(n)]))
            for cells in self._cells
        ]
        return list(zip(*ops)) if ops else [()] * n

    def export_states(self) -> list[tuple[dict[str, Variant], list[list]]]:
        """``AggregationDB.export_states`` form: ``(key entries, states)``
        per slot, in slot order, the states as fresh lists — the list-form
        boundary."""
        labels = self._key
        return [
            (
                {label: v for label, v in zip(labels, key) if v is not None},
                [list(state) for state in states],
            )
            for key, states in zip(self._keys(), self._rows())
        ]

    def state_columns(self, index: int) -> list[np.ndarray]:
        """Operator ``index``'s count and float cells over the slots, as
        float64 (a count as ``float()`` converts its int or float cell):
        what the window estimator reads of a count / sum / avg / moments
        state."""
        n = self._n
        return [
            _count_values(cell, n) if isinstance(cell, _Count) else cell.values[:n]
            for cell in self._cells[index]
        ]

    @classmethod
    def from_states(
        cls,
        scheme: AggregationScheme,
        groups: Iterable[tuple[dict[str, Variant], list[list]]],
    ) -> "StateTable":
        """A source table of exported ``(key entries, states)`` groups, in
        order (a repeated key stays repeated) — the other list-form boundary.
        A missing or empty key value is an absent one, as the key extractor
        has it; labels outside the scheme's key are ignored."""
        groups = list(groups)
        columns = colfile.entry_columns([entries for entries, _ in groups], scheme.key)
        codes = [codes for _label, codes, _values in columns]
        values = [values for _label, _codes, values in columns]
        cells = _cells_from_states(scheme.ops, [states for _, states in groups])
        return cls._source(scheme, len(groups), codes, values, cells)

    def render(self) -> ColumnStore:
        """The output as a store, one row per slot in slot order: the key
        columns, then each operator's output columns, computed from the
        cells by column (``first``, ``histogram`` and kernel-less operators
        fall back to their ``results()``).  Hydrated, it is exactly what
        :meth:`AggregationDB.flush` renders, Variant type and double bits
        included (``percent_total`` against the total over every slot); a
        second-stage query reads it as it is, and groups its rows in the
        order it would group those records."""
        n = self._n
        columns: dict[str, _Column] = {}
        for label, codes, values in self._key_columns():
            column = _key_column(codes, values)
            if column is not None:
                columns[label] = column
        # like Python floats: overflow -> inf and inf - inf -> nan, silently
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for op, cells in zip(self._ops, self._cells):
                columns.update(_output_columns(op, cells, n))
        return ColumnStore(n, columns)

    def flush(self) -> list[Record]:
        """One output record per slot: :meth:`render`, hydrated."""
        return colfile.result_records(self.render())

    # -- the wire -----------------------------------------------------------------

    def _key_columns(self) -> list[tuple[str, np.ndarray, list[Variant]]]:
        n = self._n
        return [
            (label, codes[:n], values)
            for label, codes, values in zip(self._key, self._codes, self._values)
        ]

    def key_store(self) -> ColumnStore:
        """The key columns as a store (what ``route_store`` reads)."""
        columns = {label: (codes, values) for label, codes, values in self._key_columns()}
        return ColumnStore.from_codes(self._n, columns)

    def to_binary(self) -> bytes:
        """The ``RSB1`` state batch of every slot, straight from the columns:
        the bytes ``states_to_binary(self.export_states())`` writes."""
        n = self._n
        ops = [[slot for cell in cells for slot in cell.slots(n)] for cells in self._cells]
        return colfile.encode_states(n, self._key_columns(), ops)

    @classmethod
    def from_binary(
        cls, scheme: AggregationScheme, blob, limits: Optional[DecodeLimits] = None
    ) -> "StateTable":
        """Decode an ``RSB1`` batch into a source table, cells straight into
        columns.  Operator count, state widths and cell types are checked
        against ``scheme`` once per operator state cell (a :class:`ColfileError`
        otherwise); an int cell outside 64 bits is one too."""
        store, ops = colfile.decode_states(blob, limits)
        n = len(store)
        widths = [op.state_width() for op in scheme.ops]
        if n:
            _check_widths([len(slots) for slots in ops], widths)
        else:
            ops = [[("o", [])] * width for width in widths]
        cells = _load_cells(scheme.ops, ops, n)
        codes, values = [], []
        for label in scheme.key:
            column_codes, column_values = store.interned(label)
            codes.append(column_codes)
            values.append(column_values)
        return cls._source(scheme, n, codes, values, cells)


def _check_widths(got: list[int], widths: list[int]) -> None:
    if len(got) != len(widths):
        raise ColfileError(
            f"state group has {len(got)} operator states, scheme has {len(widths)} operators"
        )
    for width, expected in zip(got, widths):
        if width != expected:
            raise ColfileError(f"operator state has {width} cells, expected {expected}")


def _load_cells(ops: Sequence[AggregateOp], slots: list[list[tuple]], n: int) -> list[list[_Cell]]:
    """Each operator's cells, filled from its decoded slots."""
    out = []
    for op, op_slots in zip(ops, slots):
        cells, start = [], 0
        for cls in _cell_types(op):
            cell = cls(op, n)
            cell.fill(op_slots[start : start + cell.width], n)
            start += cell.width
            cells.append(cell)
        out.append(cells)
    return out


def _cells_from_states(ops: Sequence[AggregateOp], states: list[list[list]]) -> list[list[_Cell]]:
    """:func:`_load_cells` from per-group list-form states."""
    widths = [op.state_width() for op in ops]
    for group in states:
        if len(group) != len(widths) or any(len(s) != w for s, w in zip(group, widths)):
            raise AggregationError("exported states do not match the scheme's operators")
    slots = [
        [("o", [group[i][j] for group in states]) for j in range(width)]
        for i, width in enumerate(widths)
    ]
    return _load_cells(ops, slots, len(states))


def _occurrence(slots: np.ndarray) -> np.ndarray:
    """For each entry, how many earlier entries name the same slot."""
    order = _stable_order(slots, int(slots.max()) + 1)
    ordered = slots[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    run = np.repeat(starts, np.diff(np.append(starts, len(slots))))
    rank = np.empty(len(slots), dtype=np.int64)
    rank[order] = np.arange(len(slots)) - run
    return rank
