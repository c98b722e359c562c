"""Compiled per-record fold plans — the aggregation hot-path fast path.

The paper's on-line aggregation costs well under a microsecond per event
because the per-record fold does no allocation and no per-operator dispatch.
The reference fold (:class:`GenericFoldPlan`) re-resolves every operator
argument per record and walks a ``zip(ops, states)`` pair list; the compiled
*fold plan* compiles that loop away once per database:

* each operator gets a **kernel** closure ``kernel(states, entries, record)``
  with its state index and argument label bound at compile time;
* the standard numeric reductions (count / sum / avg / scale /
  percent_total / min / max / variance / stddev) get **monomorphic raw-value
  kernels** that read the record's entry dict directly and fold plain Python
  floats — no ``Variant`` boxing, no ``record.get`` bound-method allocation,
  no ``numeric_or_none`` call;
* all kernels are fused into one ``update(states, record)`` closure
  (unrolled for the common small operator counts).

Operators without a fast kernel (histogram, first, ratio, user-defined ones)
fall back to a kernel that calls their ordinary ``update`` — a compiled plan
is therefore always available and always fold-equivalent to the generic
path, which the property tests in ``tests/aggregate/test_plan_equivalence.py``
enforce over randomized record streams.

Fast kernels must match the generic semantics *exactly*:

* the numeric-input test is the same set of value types
  :func:`~repro.aggregate.ops.numeric_or_none` accepts (int/uint/double,
  plus bool as 0/1);
* values are converted through ``float()`` before any arithmetic that is not
  a plain sum, so e.g. ``variance`` squares the *rounded* double exactly like
  ``Variant.to_double()`` does — folding exact Python ints would diverge.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..common.errors import AggregationError
from ..common.record import Record
from ..common.variant import ValueType
from .ops import (
    WEIGHT_LABEL,
    AggregateOp,
    AliasedOp,
    AvgOp,
    CountOp,
    MaxOp,
    MinOp,
    PercentTotalOp,
    ScaleOp,
    StddevOp,
    SumOp,
    VarianceOp,
)

__all__ = ["FoldPlan", "CompiledFoldPlan", "GenericFoldPlan", "make_plan"]

_INT = ValueType.INT
_UINT = ValueType.UINT
_DOUBLE = ValueType.DOUBLE
_BOOL = ValueType.BOOL

#: a kernel folds one record into the state list cell it owns
Kernel = Callable[[list, dict, Record], None]

#: a weighted kernel additionally receives the record's sampling weight
WeightedKernel = Callable[[list, dict, Record, float], None]


def _weight_value(wv) -> float:
    """The float sampling weight of a ``sample.weight`` entry.

    Non-numeric weights (a stray string entry) fold as 1.0 rather than
    poisoning the aggregate; booleans are excluded on purpose — a bool
    weight is always a bug, never a scale factor.
    """
    t = wv.type
    if t is _DOUBLE or t is _INT or t is _UINT:
        w = wv.value
        return w if w.__class__ is float else float(w)
    return 1.0


# -- monomorphic kernels -------------------------------------------------------
#
# Each factory binds the operator's state index (and argument label) into a
# closure.  ``entries`` is the record's raw ``{label: Variant}`` dict; a
# missing attribute is ``None`` (never an empty Variant — readers drop
# empties), and non-numeric values are skipped, exactly like
# ``numeric_or_none``.

def _count_kernel(op: AggregateOp, index: int) -> Kernel:
    def kernel(states: list, entries: dict, record: Record, _i=index) -> None:
        states[_i][0] += 1

    return kernel


def _sumlike_kernel(op: AggregateOp, index: int) -> Kernel:
    # sum / avg / scale / percent_total share the [count, total] state and
    # the identical update; only their results() rendering differs.
    def kernel(states: list, entries: dict, record: Record,
               _i=index, _lbl=op.args[0]) -> None:
        v = entries.get(_lbl)
        if v is not None:
            t = v.type
            if t is _DOUBLE or t is _INT or t is _UINT or t is _BOOL:
                s = states[_i]
                s[0] += 1
                # float + int rounds the operand exactly like to_double()
                s[1] += v.value

    return kernel


def _min_kernel(op: AggregateOp, index: int) -> Kernel:
    def kernel(states: list, entries: dict, record: Record,
               _i=index, _lbl=op.args[0]) -> None:
        v = entries.get(_lbl)
        if v is not None:
            t = v.type
            if t is _DOUBLE or t is _INT or t is _UINT or t is _BOOL:
                x = v.value
                if x.__class__ is not float:
                    x = float(x)
                s = states[_i]
                cur = s[0]
                if cur is None or x < cur:
                    s[0] = x

    return kernel


def _max_kernel(op: AggregateOp, index: int) -> Kernel:
    def kernel(states: list, entries: dict, record: Record,
               _i=index, _lbl=op.args[0]) -> None:
        v = entries.get(_lbl)
        if v is not None:
            t = v.type
            if t is _DOUBLE or t is _INT or t is _UINT or t is _BOOL:
                x = v.value
                if x.__class__ is not float:
                    x = float(x)
                s = states[_i]
                cur = s[0]
                if cur is None or x > cur:
                    s[0] = x

    return kernel


def _variance_kernel(op: AggregateOp, index: int) -> Kernel:
    def kernel(states: list, entries: dict, record: Record,
               _i=index, _lbl=op.args[0]) -> None:
        v = entries.get(_lbl)
        if v is not None:
            t = v.type
            if t is _DOUBLE or t is _INT or t is _UINT or t is _BOOL:
                x = v.value
                if x.__class__ is not float:
                    x = float(x)
                s = states[_i]
                s[0] += 1
                s[1] += x
                s[2] += x * x

    return kernel


def _grouped_kernel(
    label: str,
    count_idx: Sequence[int],
    sum_idx: Sequence[int],
    min_idx: Sequence[int],
    max_idx: Sequence[int],
    var_idx: Sequence[int],
) -> Kernel:
    """One kernel folding every fast op that reads the same argument label.

    ``sum(x), min(x), max(x)`` on one metric is the paper's canonical
    profiling scheme; sharing the entry lookup, the numeric-type test, and
    the float conversion across those ops is a measurable per-event win.
    Each op still owns its private state cell, so grouping cannot change any
    result.
    """

    def kernel(states: list, entries: dict, record: Record,
               _lbl=label, _counts=tuple(count_idx), _sums=tuple(sum_idx),
               _mins=tuple(min_idx), _maxs=tuple(max_idx),
               _vars=tuple(var_idx),
               _need_float=bool(min_idx or max_idx or var_idx)) -> None:
        # count ops take no argument and fire for every record, so they ride
        # along unconditionally before the entry lookup
        for i in _counts:
            states[i][0] += 1
        v = entries.get(_lbl)
        if v is None:
            return
        t = v.type
        if not (t is _DOUBLE or t is _INT or t is _UINT or t is _BOOL):
            return
        val = v.value
        for i in _sums:
            s = states[i]
            s[0] += 1
            s[1] += val
        if _need_float:
            x = val if val.__class__ is float else float(val)
            for i in _mins:
                s = states[i]
                cur = s[0]
                if cur is None or x < cur:
                    s[0] = x
            for i in _maxs:
                s = states[i]
                cur = s[0]
                if cur is None or x > cur:
                    s[0] = x
            for i in _vars:
                s = states[i]
                s[0] += 1
                s[1] += x
                s[2] += x * x

    return kernel


# -- weighted kernels ----------------------------------------------------------
#
# Mirrors of the fast kernels for records carrying ``sample.weight``: count
# and the [count, total] family scale their contribution by the weight,
# min/max fold the observed value unchanged.  Arithmetic matches the ops'
# ``update_weighted`` exactly (same operand order, same float conversions) so
# compiled and generic plans stay fold-equivalent on weighted streams.

def _count_kernel_w(op: AggregateOp, index: int) -> WeightedKernel:
    def kernel(states: list, entries: dict, record: Record, w: float,
               _i=index) -> None:
        states[_i][0] += w

    return kernel


def _sumlike_kernel_w(op: AggregateOp, index: int) -> WeightedKernel:
    def kernel(states: list, entries: dict, record: Record, w: float,
               _i=index, _lbl=op.args[0]) -> None:
        v = entries.get(_lbl)
        if v is not None:
            t = v.type
            if t is _DOUBLE or t is _INT or t is _UINT or t is _BOOL:
                x = v.value
                if x.__class__ is not float:
                    x = float(x)
                s = states[_i]
                s[0] += w
                s[1] += w * x

    return kernel


def _min_kernel_w(op: AggregateOp, index: int) -> WeightedKernel:
    base = _min_kernel(op, index)

    def kernel(states: list, entries: dict, record: Record, w: float,
               _base=base) -> None:
        _base(states, entries, record)

    return kernel


def _max_kernel_w(op: AggregateOp, index: int) -> WeightedKernel:
    base = _max_kernel(op, index)

    def kernel(states: list, entries: dict, record: Record, w: float,
               _base=base) -> None:
        _base(states, entries, record)

    return kernel


def _variance_kernel_w(op: AggregateOp, index: int) -> WeightedKernel:
    def kernel(states: list, entries: dict, record: Record, w: float,
               _i=index, _lbl=op.args[0]) -> None:
        v = entries.get(_lbl)
        if v is not None:
            t = v.type
            if t is _DOUBLE or t is _INT or t is _UINT or t is _BOOL:
                x = v.value
                if x.__class__ is not float:
                    x = float(x)
                s = states[_i]
                s[0] += w
                s[1] += w * x
                s[2] += w * x * x

    return kernel


def _grouped_kernel_w(
    label: str,
    count_idx: Sequence[int],
    sum_idx: Sequence[int],
    min_idx: Sequence[int],
    max_idx: Sequence[int],
    var_idx: Sequence[int],
) -> WeightedKernel:
    def kernel(states: list, entries: dict, record: Record, w: float,
               _lbl=label, _counts=tuple(count_idx), _sums=tuple(sum_idx),
               _mins=tuple(min_idx), _maxs=tuple(max_idx),
               _vars=tuple(var_idx)) -> None:
        for i in _counts:
            states[i][0] += w
        v = entries.get(_lbl)
        if v is None:
            return
        t = v.type
        if not (t is _DOUBLE or t is _INT or t is _UINT or t is _BOOL):
            return
        x = v.value
        if x.__class__ is not float:
            x = float(x)
        for i in _sums:
            s = states[i]
            s[0] += w
            s[1] += w * x
        for i in _mins:
            s = states[i]
            cur = s[0]
            if cur is None or x < cur:
                s[0] = x
        for i in _maxs:
            s = states[i]
            cur = s[0]
            if cur is None or x > cur:
                s[0] = x
        for i in _vars:
            s = states[i]
            s[0] += w
            s[1] += w * x
            s[2] += w * x * x

    return kernel


#: exact-type dispatch — a user subclass overriding ``update`` must *not*
#: match its parent's fast kernel, so no isinstance here.
_FAST_KERNELS: dict[type, Callable[[AggregateOp, int], Kernel]] = {
    CountOp: _count_kernel,
    SumOp: _sumlike_kernel,
    AvgOp: _sumlike_kernel,
    ScaleOp: _sumlike_kernel,
    PercentTotalOp: _sumlike_kernel,
    MinOp: _min_kernel,
    MaxOp: _max_kernel,
    VarianceOp: _variance_kernel,
    StddevOp: _variance_kernel,
}

_FAST_WEIGHTED: dict[type, Callable[[AggregateOp, int], WeightedKernel]] = {
    CountOp: _count_kernel_w,
    SumOp: _sumlike_kernel_w,
    AvgOp: _sumlike_kernel_w,
    ScaleOp: _sumlike_kernel_w,
    PercentTotalOp: _sumlike_kernel_w,
    MinOp: _min_kernel_w,
    MaxOp: _max_kernel_w,
    VarianceOp: _variance_kernel_w,
    StddevOp: _variance_kernel_w,
}

#: group classification for label-sharing fusion (count has no argument)
_GROUP_KINDS: dict[type, str] = {
    SumOp: "sum",
    AvgOp: "sum",
    ScaleOp: "sum",
    PercentTotalOp: "sum",
    MinOp: "min",
    MaxOp: "max",
    VarianceOp: "var",
    StddevOp: "var",
}


def _fallback_kernel(op: AggregateOp, index: int) -> Kernel:
    def kernel(states: list, entries: dict, record: Record,
               _op=op, _i=index) -> None:
        _op.update(states[_i], record.get)

    return kernel


def _fallback_kernel_w(op: AggregateOp, index: int) -> WeightedKernel:
    def kernel(states: list, entries: dict, record: Record, w: float,
               _op=op, _i=index) -> None:
        _op.update_weighted(states[_i], record.get, w)

    return kernel


def _fuse(
    kernels: Sequence[Kernel], wkernels: Sequence[WeightedKernel]
) -> Callable[[list, Record], None]:
    """One ``update(states, record)`` closure running every kernel.

    Unrolled for up to four operators — the profiling schemes the paper
    benchmarks (count/sum/min/max) land here — so the fused body is straight
    calls without loop overhead.  A record carrying ``sample.weight`` (one
    kept by the sampling gate with probability < 1) takes the weighted-kernel
    side branch instead; unweighted streams pay one extra dict lookup.
    """
    wfrozen = tuple(wkernels)

    def weighted(states: list, e: dict, record: Record, wv) -> None:
        w = _weight_value(wv)
        for k in wfrozen:
            k(states, e, record, w)

    _W = WEIGHT_LABEL
    if len(kernels) == 1:
        (k0,) = kernels

        def update(states: list, record: Record) -> None:
            e = record._entries
            wv = e.get(_W)
            if wv is not None:
                weighted(states, e, record, wv)
                return
            k0(states, e, record)

    elif len(kernels) == 2:
        k0, k1 = kernels

        def update(states: list, record: Record) -> None:
            e = record._entries
            wv = e.get(_W)
            if wv is not None:
                weighted(states, e, record, wv)
                return
            k0(states, e, record)
            k1(states, e, record)

    elif len(kernels) == 3:
        k0, k1, k2 = kernels

        def update(states: list, record: Record) -> None:
            e = record._entries
            wv = e.get(_W)
            if wv is not None:
                weighted(states, e, record, wv)
                return
            k0(states, e, record)
            k1(states, e, record)
            k2(states, e, record)

    elif len(kernels) == 4:
        k0, k1, k2, k3 = kernels

        def update(states: list, record: Record) -> None:
            e = record._entries
            wv = e.get(_W)
            if wv is not None:
                weighted(states, e, record, wv)
                return
            k0(states, e, record)
            k1(states, e, record)
            k2(states, e, record)
            k3(states, e, record)

    else:
        frozen = tuple(kernels)

        def update(states: list, record: Record) -> None:
            e = record._entries
            wv = e.get(_W)
            if wv is not None:
                weighted(states, e, record, wv)
                return
            for k in frozen:
                k(states, e, record)

    return update


# -- plan objects --------------------------------------------------------------

class FoldPlan:
    """A per-record fold strategy for one operator tuple.

    Exposes exactly what the streaming database needs per record:
    ``update(states, record)`` (the fused fold) and ``init_states()`` (fresh
    per-key state lists).  ``kind`` and ``num_fast_ops`` describe the plan
    for telemetry.
    """

    kind = "generic"

    __slots__ = ("ops", "update", "num_fast_ops")

    def __init__(self, ops: Sequence[AggregateOp]) -> None:
        self.ops = tuple(ops)

    def init_states(self) -> list[list]:
        return [op.init() for op in self.ops]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}([{', '.join(op.spec_string() for op in self.ops)}], "
            f"fast={self.num_fast_ops}/{len(self.ops)})"
        )


class GenericFoldPlan(FoldPlan):
    """The reference fold: per-op ``update`` dispatch through ``record.get``."""

    kind = "generic"

    def __init__(self, ops: Sequence[AggregateOp]) -> None:
        super().__init__(ops)
        self.num_fast_ops = 0
        frozen = self.ops

        def update(states: list, record: Record, _W=WEIGHT_LABEL) -> None:
            get = record.get
            wv = record._entries.get(_W)
            if wv is None:
                for op, state in zip(frozen, states):
                    op.update(state, get)
            else:
                w = _weight_value(wv)
                for op, state in zip(frozen, states):
                    op.update_weighted(state, get, w)

        self.update = update


class CompiledFoldPlan(FoldPlan):
    """The fused fold: monomorphic kernels where possible, fallback otherwise."""

    kind = "compiled"

    def __init__(self, ops: Sequence[AggregateOp]) -> None:
        super().__init__(ops)
        # Classify each op: groupable fast ops are collected per argument
        # label, counts ride along with them; every other op has no fast
        # kernel and folds through its own ``update``.  Kernel order may
        # differ from op order — every op folds into its own state cell, so
        # order cannot matter.
        by_label: dict[str, dict[str, list[int]]] = {}
        counts: list[int] = []
        singles: list[tuple[int, AggregateOp]] = []
        for i, op in enumerate(self.ops):
            target = op.inner if isinstance(op, AliasedOp) else op
            kind = _GROUP_KINDS.get(type(target))
            if kind is not None:
                groups = by_label.setdefault(target.args[0], {})
                groups.setdefault(kind, []).append(i)
            elif type(target) is CountOp:
                counts.append(i)
            else:
                singles.append((i, op))

        kernels: list[Kernel] = []
        wkernels: list[WeightedKernel] = []
        n_fast = len(counts)
        for i, op in singles:
            kernels.append(_fallback_kernel(op, i))
            wkernels.append(_fallback_kernel_w(op, i))
        grouped_counts = counts if by_label else []
        for label, groups in by_label.items():
            indices = [i for idx in groups.values() for i in idx]
            n_fast += len(indices)
            if len(indices) == 1 and not grouped_counts:
                # A lone op on this label: its individual kernel is cheaper
                # than the grouped one's empty loops.
                (i,) = indices
                op = self.ops[i]
                target = op.inner if isinstance(op, AliasedOp) else op
                kernels.append(_FAST_KERNELS[type(target)](target, i))
                wkernels.append(_FAST_WEIGHTED[type(target)](target, i))
            else:
                group_args = (
                    label,
                    grouped_counts,
                    groups.get("sum", ()),
                    groups.get("min", ()),
                    groups.get("max", ()),
                    groups.get("var", ()),
                )
                kernels.append(_grouped_kernel(*group_args))
                wkernels.append(_grouped_kernel_w(*group_args))
                # counts ride along with the first grouped kernel only
                grouped_counts = []
        if not by_label:
            for i in counts:
                target = self.ops[i]
                target = target.inner if isinstance(target, AliasedOp) else target
                kernels.append(_count_kernel(target, i))
                wkernels.append(_count_kernel_w(target, i))
        self.num_fast_ops = n_fast
        self.update = _fuse(kernels, wkernels)


def make_plan(ops: Sequence[AggregateOp], kind: str = "compiled") -> FoldPlan:
    """Build the ``compiled`` fold plan, or the ``generic`` reference one."""
    if kind == "compiled":
        return CompiledFoldPlan(ops)
    if kind == "generic":
        return GenericFoldPlan(ops)
    raise AggregationError(
        f"unknown fold plan {kind!r} (expected 'compiled' or 'generic')"
    )
