"""Columnar (vectorized) off-line aggregation backend.

The row-at-a-time :class:`~repro.aggregate.db.AggregationDB` is the right
engine on-line, where records arrive one by one and must never be stored.
Off-line, the whole dataset is in hand — so the classic scientific-Python
optimization applies: convert to columns once, then aggregate with numpy
group-by primitives instead of a Python-level loop.

This backend covers **every built-in operator** (``count``, ``sum``,
``min``, ``max``, ``avg``, ``variance``, ``stddev``, ``histogram``,
``first``/``any``, ``ratio``, ``scale``, ``percent_total`` — plus their
aliased forms) and evaluates WHERE clauses vectorized, by pushing each
condition down onto the interned code columns: the predicate runs once per
*distinct* value, then broadcasts through the codes.

Equivalence with the streaming engine is by construction, not by parallel
reimplementation: the vectorized pass produces the *same per-key operator
states* the streaming kernels would hold (``np.bincount`` accumulates
weights in input order, so float sums are bit-identical), and the final
values are rendered by each operator's own ``results()`` — the exact code
path :meth:`AggregationDB.flush` uses.  ``QueryEngine`` auto-dispatches
here via :func:`supports_scheme`; ``bench_columnar.py`` and the
``offline_query`` workload of ``benchmarks/suite`` quantify the speedup.

Pipeline:

1. intern each attribute once (:class:`~repro.io.dataset.ColumnStore`,
   cached per :class:`~repro.io.dataset.Dataset`);
2. evaluate WHERE vectorized over the code columns;
3. collapse the key-code matrix into one composite group id per record
   (mixed-radix packing — collision-free by construction);
4. one ``np.bincount`` / sorted-``reduceat`` pass per operator moment;
5. render per-group states through the operators' own ``results()``.
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
from ..common.variant import Variant
from ..io.dataset import ColumnStore

__all__ = [
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
    return ColumnStore(source if isinstance(source, list) else list(source))


# -- vectorized WHERE -------------------------------------------------------------


def _condition_mask(cond: Condition, store: ColumnStore) -> np.ndarray:
    """Boolean row mask for one WHERE condition (predicate pushdown).

    Compare/Exists evaluate per distinct interned value, then broadcast
    through the code column; a missing attribute (code -1) is always False
    for them, and ``not(...)`` is plain mask negation — exactly the row
    semantics of :func:`repro.calql.semantics.compile_conditions`.
    """
    if isinstance(cond, Exists):
        codes, _values = store.interned(cond.label)
        return codes >= 0
    if isinstance(cond, NotCond):
        return ~_condition_mask(cond.inner, store)
    if isinstance(cond, Compare):
        codes, values = store.interned(cond.label)
        truth = np.zeros(len(values) + 1, dtype=bool)  # slot 0 = missing
        for i, v in enumerate(values):
            truth[i + 1] = compare_variants(v, cond.op, cond.value)
        return truth[codes + 1]
    raise QueryError(f"unknown condition type {type(cond).__name__}")


def _select_rows(
    store: ColumnStore,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]],
) -> np.ndarray:
    """Indices of the rows the aggregation folds (WHERE applied)."""
    n = len(store)
    if where is not None:
        mask: Optional[np.ndarray] = None
        for cond in where:
            m = _condition_mask(cond, store)
            mask = m if mask is None else mask & m
        if mask is None:
            return np.arange(n, dtype=np.int64)
        return np.flatnonzero(mask)
    if scheme.predicate is not None:
        predicate = scheme.predicate
        records = store.records
        return np.fromiter(
            (i for i in range(n) if predicate(records[i])), dtype=np.int64
        )
    return np.arange(n, dtype=np.int64)


# -- grouping ---------------------------------------------------------------------


def _equality_classes(values: Sequence[Variant]) -> tuple[np.ndarray, int]:
    """Collapse distinct interned values into Variant-equality classes.

    Interned codes are exact — ``int 1`` and ``double 1.0`` are distinct —
    but GROUP BY identity follows :class:`Variant` equality, where numeric
    values compare as floats across int/uint/double.  Returns a lookup
    table mapping ``code + 1`` (slot 0 = missing) to a dense class id, plus
    the radix (class count + 1).  Runs once per *distinct* value, so the
    per-record work stays vectorized.
    """
    classes = np.empty(len(values) + 1, dtype=np.int64)
    classes[0] = 0  # the missing slot is its own class
    table: dict[object, int] = {}
    for i, v in enumerate(values):
        key = float(v.value) if v.type.is_numeric else (v.type, v.value)
        cid = table.get(key)
        if cid is None:
            cid = len(table) + 1
            table[key] = cid
        classes[i + 1] = cid
    return classes, len(table) + 1


#: Mixed-radix packed group ids stay below this, clear of int64 overflow.
_PACK_LIMIT = 2**62


class _Groups:
    """Selected rows collapsed to dense group ids, with reduceat views."""

    __slots__ = ("sel", "inverse", "count", "key_entries", "_runs")

    def __init__(self, store: ColumnStore, scheme: AggregationScheme, sel: np.ndarray):
        self.sel = sel
        n = len(sel)
        packed = np.zeros(n, dtype=np.int64)
        span = 1  # every packed id is in range(span)
        key_codes: list[tuple[str, np.ndarray, list[Variant]]] = []
        for label in scheme.key:
            codes, values = store.interned(label)
            codes = codes[sel]
            key_codes.append((label, codes, values))
            # Group by Variant-equality classes, not raw codes: the exact
            # interning keeps int 1 / double 1.0 as distinct codes, but the
            # streaming engine merges them into one group.
            classes, radix = _equality_classes(values)
            if span * radix > _PACK_LIMIT:
                # Wide, high-cardinality keys: rank the ids so far (order
                # kept, at most n of them) so the packing cannot overflow.
                packed = np.unique(packed, return_inverse=True)[1]
                span = int(packed.max()) + 1
            packed *= radix
            packed += classes[codes + 1]
            span *= radix
        # Dense ids in sorted order of the packed value, i.e. lexicographic
        # in the per-column classes: this fixes the output row order.
        unique_ids, inverse = np.unique(packed, return_inverse=True)
        count = len(unique_ids)
        self.inverse = inverse
        self.count = count
        self._runs: Optional[tuple[np.ndarray, np.ndarray]] = None
        # one representative (first) row per group, to reconstruct key entries
        representatives = np.full(count, -1, dtype=np.int64)
        representatives[inverse[::-1]] = np.arange(n - 1, -1, -1)
        self.key_entries: list[dict[str, Variant]] = []
        for g in range(count):
            rep = representatives[g]
            entries: dict[str, Variant] = {}
            for label, codes, values in key_codes:
                code = codes[rep]
                if code >= 0:
                    entries[label] = values[code]
            self.key_entries.append(entries)

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


def _metric(store: ColumnStore, sel: np.ndarray, label: str, include_bool: bool = True):
    values, mask = store.numeric(label, include_bool)
    return values[sel], mask[sel]


def _op_states(
    kernel: AggregateOp,
    store: ColumnStore,
    groups: _Groups,
    weights: Optional[np.ndarray] = None,
) -> list[list]:
    """Per-group streaming-kernel states, computed vectorized.

    Each returned state matches what the row engine's ``update`` loop would
    have produced for that group, bit for bit where the arithmetic allows
    (bincount adds weights in input order, mirroring streaming addition).

    ``weights`` (aligned with the selected rows, 1.0 where absent) carries
    ``sample.weight``: the extensive operators accumulate Σw / Σw·x instead
    of counts and plain sums, exactly like the weighted streaming kernels.
    """
    sel, inverse, n_groups = groups.sel, groups.inverse, groups.count
    t = type(kernel)
    if t is CountOp:
        if weights is None:
            counts = np.bincount(inverse, minlength=n_groups)
            return [[int(c)] for c in counts]
        counts = np.bincount(inverse, weights=weights, minlength=n_groups)
        return [[float(c)] for c in counts]
    if t in (SumOp, AvgOp, ScaleOp, PercentTotalOp):
        values, mask = _metric(store, sel, kernel.args[0])
        inv_m, val_m = inverse[mask], values[mask]
        if weights is None:
            counts = np.bincount(inv_m, minlength=n_groups)
            sums = np.bincount(inv_m, weights=val_m, minlength=n_groups)
            return [[int(counts[g]), float(sums[g])] for g in range(n_groups)]
        w_m = weights[mask]
        counts = np.bincount(inv_m, weights=w_m, minlength=n_groups)
        sums = np.bincount(inv_m, weights=w_m * val_m, minlength=n_groups)
        return [[float(counts[g]), float(sums[g])] for g in range(n_groups)]
    if t in (VarianceOp, StddevOp, MomentsOp):
        values, mask = _metric(store, sel, kernel.args[0])
        inv_m, val_m = inverse[mask], values[mask]
        if weights is None:
            counts = np.bincount(inv_m, minlength=n_groups)
            sums = np.bincount(inv_m, weights=val_m, minlength=n_groups)
            with np.errstate(over="ignore"):  # like Python floats: overflow -> inf
                sumsqs = np.bincount(inv_m, weights=val_m * val_m, minlength=n_groups)
            return [
                [int(counts[g]), float(sums[g]), float(sumsqs[g])]
                for g in range(n_groups)
            ]
        w_m = weights[mask]
        wval = w_m * val_m
        counts = np.bincount(inv_m, weights=w_m, minlength=n_groups)
        sums = np.bincount(inv_m, weights=wval, minlength=n_groups)
        with np.errstate(over="ignore"):
            sumsqs = np.bincount(inv_m, weights=wval * val_m, minlength=n_groups)
        return [
            [float(counts[g]), float(sums[g]), float(sumsqs[g])]
            for g in range(n_groups)
        ]
    if t in (MinOp, MaxOp):
        values, mask = _metric(store, sel, kernel.args[0])
        fill = np.inf if t is MinOp else -np.inf
        order, starts = groups.runs()
        reducer = np.minimum if t is MinOp else np.maximum
        extrema = reducer.reduceat(np.where(mask, values, fill)[order], starts)
        counts = np.bincount(inverse[mask], minlength=n_groups)
        return [
            [float(extrema[g])] if counts[g] else [None] for g in range(n_groups)
        ]
    if t is RatioOp:
        xs, xmask = _metric(store, sel, kernel.args[0], include_bool=False)
        ys, ymask = _metric(store, sel, kernel.args[1], include_bool=False)
        if weights is not None:
            xs = weights * xs
            ys = weights * ys
        sum_x = np.bincount(inverse[xmask], weights=xs[xmask], minlength=n_groups)
        sum_y = np.bincount(inverse[ymask], weights=ys[ymask], minlength=n_groups)
        return [[float(sum_x[g]), float(sum_y[g])] for g in range(n_groups)]
    if t is FirstOp:
        codes, values = store.interned(kernel.args[0])
        codes = codes[sel]
        n = len(sel)
        # position of the first non-empty value per group, in input order
        position = np.where(codes >= 0, np.arange(n), n)
        order, starts = groups.runs()
        firsts = np.minimum.reduceat(position[order], starts)
        return [
            [values[codes[f]]] if f < n else [None] for f in firsts
        ]
    if t is HistogramOp:
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
        per_group = flat.reshape(n_groups, width)
        return [[int(c) for c in per_group[g]] for g in range(n_groups)]
    raise NotImplementedError(
        f"columnar backend does not support: {kernel.spec_string()}"
    )  # pragma: no cover - guarded by supports_scheme


# -- entry points -----------------------------------------------------------------


def _compute(
    source: Source,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]],
) -> tuple[list[dict[str, Variant]], list[list[list]], int, int]:
    """Core pass: ``(key entries, per-group op states, offered, processed)``.

    ``where`` is the query's AST condition list for vectorized evaluation;
    ``None`` falls back to the scheme's compiled predicate, row-wise.  When
    both exist they are the same filter (the scheme's predicate is compiled
    from the WHERE clause), so only one is applied.
    """
    if not supports_scheme(scheme):
        unsupported = [
            op.spec_string()
            for op in scheme.ops
            if type(_unwrap(op)) not in _SUPPORTED
        ]
        raise NotImplementedError(
            "columnar backend does not support: " + ", ".join(unsupported)
        )
    with observe.span("columnar.convert", cached=isinstance(source, ColumnStore)):
        store = _as_store(source)
    offered = len(store)
    with observe.span("columnar.where"):
        sel = _select_rows(store, scheme, where)
    processed = len(sel)
    if processed == 0:
        return [], [], offered, processed
    with observe.span("columnar.group"):
        groups = _Groups(store, scheme, sel)
    # Sampling weights, if any record carries one.  Bool weights are
    # excluded (matching the streaming plans' _weight_value) and missing or
    # non-numeric weights fold as 1.0.
    weights: Optional[np.ndarray] = None
    wvals, wmask = store.numeric(WEIGHT_LABEL, False)
    if wmask.any():
        sel_mask = wmask[sel]
        if sel_mask.any():
            weights = np.where(sel_mask, wvals[sel], 1.0)
    with observe.span("columnar.ops"):
        columns = [
            _op_states(_unwrap(op), store, groups, weights) for op in scheme.ops
        ]
        states = [
            [column[g] for column in columns] for g in range(groups.count)
        ]
    return groups.key_entries, states, offered, processed


def columnar_aggregate(
    source: Source,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]] = None,
) -> list[Record]:
    """Aggregate ``source`` under ``scheme`` with numpy group-by.

    ``source`` is a record iterable or a prebuilt (cached)
    :class:`~repro.io.dataset.ColumnStore`.  Raises
    :class:`NotImplementedError` for schemes :func:`supports_scheme`
    rejects; results match :func:`repro.aggregate.aggregate_records` exactly
    (up to record order, with float reductions subject only to the global
    ``percent_total`` denominator's summation order).
    """
    key_entries, states, _offered, _processed = _compute(source, scheme, where)
    # Global totals for percent_total — mirrors AggregationDB.flush.
    totals: dict[int, float] = {}
    for i, op in enumerate(scheme.ops):
        if getattr(op, "needs_global_total", False):
            totals[i] = sum(group_states[i][1] for group_states in states)
    out: list[Record] = []
    for entries, group_states in zip(key_entries, states):
        data = dict(entries)
        for i, (op, state) in enumerate(zip(scheme.ops, group_states)):
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

    Computes partial states columnar and merges them into ``db`` with
    combine semantics — the fast path :meth:`QueryEngine.feed` dispatches to,
    so even the partial-aggregation steps the MPI query application composes
    benefit from vectorization.
    """
    key_entries, states, offered, processed = _compute(source, db.scheme, where)
    db.load_states(zip(key_entries, states), offered=offered, processed=processed)


def columnar_db(
    source: Source,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]] = None,
) -> AggregationDB:
    """A fresh :class:`AggregationDB` holding the vectorized partial result.

    Interchangeable with a DB the streaming path filled: it can be
    ``combine``-d, flushed, or fed further records.
    """
    db = AggregationDB(scheme)
    columnar_feed(db, source, where)
    return db
