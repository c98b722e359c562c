"""Aggregation operator kernels.

An operator kernel is the unit of reduction in the paper's aggregation
model: it owns a small mutable *state*, folds input values into it
(:meth:`~AggregateOp.update`, the streaming path used by on-line event
aggregation), merges two partial states (:meth:`~AggregateOp.combine`, the
path used by cross-process tree reduction), and renders the final state into
output record entries (:meth:`~AggregateOp.results`).

``combine`` must be associative and commutative and ``update`` must be
equivalent to combining with a single-value state — the property tests in
``tests/aggregate/test_ops_properties.py`` enforce exactly this, because the
paper's claim that the *same* scheme can run on-line, off-line, or split
across both stages (Section VI-F) rests on these algebraic laws.

The paper's implementation provides ``sum``, ``min``, ``max`` and ``count``;
we add the natural extensions its model admits (``avg``, ``variance``,
``stddev``, ``histogram``, ``first``, ``ratio``, ``scale``, ``percent_total``)
as the framework is explicitly designed to be user-extensible.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from ..common.errors import OperatorError
from ..common.variant import ValueType, Variant

__all__ = [
    "AggregateOp",
    "OpSpec",
    "WEIGHT_LABEL",
    "numeric_or_none",
    "CountOp",
    "SumOp",
    "MinOp",
    "MaxOp",
    "AvgOp",
    "VarianceOp",
    "StddevOp",
    "MomentsOp",
    "HistogramOp",
    "FirstOp",
    "RatioOp",
    "ScaleOp",
    "PercentTotalOp",
    "OperatorRegistry",
    "default_registry",
    "make_op",
]


#: Entry label carrying a record's sampling weight (``1/p`` for a record
#: kept with probability ``p``).  Fold plans detect it per record and route
#: extensive operators (count/sum/avg/variance family) through
#: :meth:`AggregateOp.update_weighted`, which is what keeps sampled
#: aggregates unbiased: a record kept with probability ``p`` stands for
#: ``1/p`` dropped ones (Horvitz–Thompson estimation, the same count-scaling
#: PF-OLA applies to partial aggregates).
WEIGHT_LABEL = "sample.weight"


class AggregateOp:
    """Base class for operator kernels.

    Subclasses are *specifications* (operator + argument labels); the
    per-key mutable state is the plain list returned by :meth:`init`, kept
    outside the kernel so one kernel instance serves every key in the
    aggregation database.
    """

    #: operator name as written in CalQL (e.g. ``sum``)
    name: str = ""
    #: how many attribute-label arguments the operator takes
    arity: int = 1

    def __init__(self, args: Sequence[str] = ()) -> None:
        if len(args) != self.arity:
            raise OperatorError(
                f"operator {self.name!r} takes {self.arity} argument(s), got {len(args)}: {list(args)!r}"
            )
        self.args = tuple(args)

    # -- labels ------------------------------------------------------------

    @property
    def inputs(self) -> tuple[str, ...]:
        """Attribute labels this operator reads from each input record."""
        return self.args

    def output_labels(self) -> list[str]:
        """Labels of the entries :meth:`results` emits."""
        return [f"{self.name}#{self.args[0]}"]

    # -- reduction ----------------------------------------------------------

    def init(self) -> list:
        """A fresh empty state."""
        raise NotImplementedError

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        """Fold one input record (accessed through ``record_get``) into ``state``."""
        raise NotImplementedError

    def update_weighted(
        self, state: list, record_get: Callable[[str], Variant], weight: float
    ) -> None:
        """Fold one record carrying a sampling weight (``sample.weight``).

        Extensive operators (count, sum, avg, variance, ...) override this to
        scale their contribution by ``weight``; operators whose result is a
        property of the *observed* values rather than the population total
        (min, max, first, histogram) inherit this default and fold the record
        as if unweighted.
        """
        self.update(state, record_get)

    def combine(self, state: list, other: list) -> None:
        """Merge partial state ``other`` into ``state`` (other is not modified)."""
        raise NotImplementedError

    def results(self, state: list) -> list[tuple[str, Variant]]:
        """Render ``state`` as output (label, value) entries.

        Empty states (no value ever seen) emit nothing, so grouped results
        never contain spurious zeros for groups an attribute did not occur in.
        """
        raise NotImplementedError

    def state_width(self) -> int:
        """Number of cells in a fresh state (used for wire-size estimates)."""
        return len(self.init())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(self.args)})"

    def spec_string(self) -> str:
        """CalQL text for this operator instance, e.g. ``sum(time.duration)``."""
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AggregateOp)
            and type(self) is type(other)
            and self.args == other.args
            and getattr(self, "params", None) == getattr(other, "params", None)
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.args))


#: (op-name, argument-labels) pair used before kernel instantiation.
OpSpec = tuple


def numeric_or_none(value: Variant, include_bool: bool = True) -> Optional[float]:
    """The numeric reading the standard kernels fold, or ``None``.

    This is the single definition of "what counts as a numeric input" shared
    by the streaming kernels and the vectorized columnar backend, so both
    engines skip exactly the same records.  ``ratio`` historically excludes
    booleans; everything else folds them as 0/1.
    """
    if value.is_empty:
        return None
    if value.is_numeric or (include_bool and value.type is ValueType.BOOL):
        return value.to_double()
    return None


class CountOp(AggregateOp):
    """``count`` — number of input records per key (no argument)."""

    name = "count"
    arity = 0

    def output_labels(self) -> list[str]:
        return ["count"]

    def init(self) -> list:
        return [0]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        state[0] += 1

    def update_weighted(
        self, state: list, record_get: Callable[[str], Variant], weight: float
    ) -> None:
        state[0] += weight

    def combine(self, state: list, other: list) -> None:
        state[0] += other[0]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        return [("count", _count_variant(state[0]))]


class _NumericOp(AggregateOp):
    """Shared machinery for single-argument numeric reductions.

    Non-numeric or missing values are skipped (the record simply does not
    contribute), matching the tolerance the flexible data model requires:
    any record may lack any attribute.
    """

    def _get_number(self, record_get: Callable[[str], Variant]) -> Optional[float]:
        return numeric_or_none(record_get(self.args[0]))


class _WeightedSumMixin:
    """``update_weighted`` for the [count, total] state family.

    Sum, avg, scale and percent_total share the same state shape, so one
    weighted fold serves all of them: the count cell accumulates Σw (the
    estimated population count) and the total cell Σw·x.
    """

    def update_weighted(self, state, record_get, weight):
        x = self._get_number(record_get)
        if x is not None:
            state[0] += weight
            state[1] += weight * x


class SumOp(_WeightedSumMixin, _NumericOp):
    """``sum(x)`` — arithmetic sum. State: [count, total]."""

    name = "sum"

    def init(self) -> list:
        return [0, 0.0]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = self._get_number(record_get)
        if x is not None:
            state[0] += 1
            state[1] += x

    def combine(self, state: list, other: list) -> None:
        state[0] += other[0]
        state[1] += other[1]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        if state[0] == 0:
            return []
        return [(self.output_labels()[0], _as_variant(state[1]))]


class MinOp(_NumericOp):
    """``min(x)``. State: [value-or-None]."""

    name = "min"

    def init(self) -> list:
        return [None]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = self._get_number(record_get)
        if x is not None and (state[0] is None or x < state[0]):
            state[0] = x

    def combine(self, state: list, other: list) -> None:
        if other[0] is not None and (state[0] is None or other[0] < state[0]):
            state[0] = other[0]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        if state[0] is None:
            return []
        return [(self.output_labels()[0], _as_variant(state[0]))]


class MaxOp(_NumericOp):
    """``max(x)``. State: [value-or-None]."""

    name = "max"

    def init(self) -> list:
        return [None]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = self._get_number(record_get)
        if x is not None and (state[0] is None or x > state[0]):
            state[0] = x

    def combine(self, state: list, other: list) -> None:
        if other[0] is not None and (state[0] is None or other[0] > state[0]):
            state[0] = other[0]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        if state[0] is None:
            return []
        return [(self.output_labels()[0], _as_variant(state[0]))]


class AvgOp(_WeightedSumMixin, _NumericOp):
    """``avg(x)`` — arithmetic mean. State: [count, total].

    The count is carried in the state (not derived from ``count``'s output)
    so partial averages combine exactly in cross-process reduction.
    """

    name = "avg"

    def init(self) -> list:
        return [0, 0.0]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = self._get_number(record_get)
        if x is not None:
            state[0] += 1
            state[1] += x

    def combine(self, state: list, other: list) -> None:
        state[0] += other[0]
        state[1] += other[1]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        if state[0] == 0:
            return []
        return [(self.output_labels()[0], Variant(ValueType.DOUBLE, state[1] / state[0]))]


class VarianceOp(_NumericOp):
    """``variance(x)`` — population variance.

    State: [n, sum, sum-of-squares]; combined exactly.  Sum-of-squares is
    adequate at profiling magnitudes and keeps ``combine`` a 3-add merge.
    """

    name = "variance"

    def init(self) -> list:
        return [0, 0.0, 0.0]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = self._get_number(record_get)
        if x is not None:
            state[0] += 1
            state[1] += x
            state[2] += x * x

    def update_weighted(
        self, state: list, record_get: Callable[[str], Variant], weight: float
    ) -> None:
        x = self._get_number(record_get)
        if x is not None:
            state[0] += weight
            state[1] += weight * x
            state[2] += weight * x * x

    def combine(self, state: list, other: list) -> None:
        state[0] += other[0]
        state[1] += other[1]
        state[2] += other[2]

    def _variance(self, state: list) -> Optional[float]:
        n = state[0]
        if n == 0:
            return None
        mean = state[1] / n
        # Guard tiny negative values from floating-point cancellation.
        return max(0.0, state[2] / n - mean * mean)

    def results(self, state: list) -> list[tuple[str, Variant]]:
        var = self._variance(state)
        if var is None:
            return []
        return [(self.output_labels()[0], Variant(ValueType.DOUBLE, var))]


class StddevOp(VarianceOp):
    """``stddev(x)`` — population standard deviation (shares variance state)."""

    name = "stddev"

    def results(self, state: list) -> list[tuple[str, Variant]]:
        var = self._variance(state)
        if var is None:
            return []
        return [(self.output_labels()[0], Variant(ValueType.DOUBLE, math.sqrt(var)))]


class MomentsOp(VarianceOp):
    """``est_moments(x)`` — hidden moment accumulator for online estimates.

    Shares the exact [n, sum, sum-of-squares] state (and wire encoding) of
    ``variance`` but emits *no* output entries: the windowed estimator layer
    reads the raw state to build CLT confidence intervals for open windows.
    It is registered so augmented scheme text round-trips through
    ``parse_scheme`` across relay handshakes and spool replay.
    """

    name = "est_moments"

    def output_labels(self) -> list[str]:
        return []

    def results(self, state: list) -> list[tuple[str, Variant]]:
        return []


class HistogramOp(_NumericOp):
    """``histogram(x, bins, lo, hi)`` — fixed-range histogram.

    State: [underflow, b0, ..., b(n-1), overflow, count].  The output is a
    single string entry ``histogram#x`` of the form ``lo:hi:u|c0,..,cn-1|o``
    (compact, round-trips through every file format); use :meth:`decode`
    to get the bin counts back.

    Fixed ranges keep ``combine`` an element-wise add, which is what the
    cross-process reduction tree needs; adaptive-range sketches would not
    merge exactly.
    """

    name = "histogram"
    arity = 1

    def __init__(self, args: Sequence[str] = (), bins: int = 10,
                 lo: float = 0.0, hi: float = 1.0) -> None:
        super().__init__(args)
        if bins < 1:
            raise OperatorError(f"histogram needs at least 1 bin, got {bins}")
        if not (hi > lo):
            raise OperatorError(f"histogram needs hi > lo, got [{lo}, {hi})")
        self.bins = bins
        self.lo = float(lo)
        self.hi = float(hi)
        self.params = (bins, self.lo, self.hi)
        self._scale = bins / (self.hi - self.lo)

    def spec_string(self) -> str:
        return f"histogram({self.args[0]},{self.bins},{_num_str(self.lo)},{_num_str(self.hi)})"

    def init(self) -> list:
        return [0] * (self.bins + 2)

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = self._get_number(record_get)
        if x is None or x != x:
            # NaN fits no bin (both range comparisons are false); drop it
            # like a non-numeric value instead of crashing in int().
            return
        if x < self.lo:
            state[0] += 1
        elif x >= self.hi:
            state[self.bins + 1] += 1
        else:
            state[1 + int((x - self.lo) * self._scale)] += 1

    def combine(self, state: list, other: list) -> None:
        for i, c in enumerate(other):
            state[i] += c

    def results(self, state: list) -> list[tuple[str, Variant]]:
        if not any(state):
            return []
        body = ",".join(str(c) for c in state[1 : self.bins + 1])
        text = f"{_num_str(self.lo)}:{_num_str(self.hi)}:{state[0]}|{body}|{state[self.bins + 1]}"
        return [(self.output_labels()[0], Variant(ValueType.STRING, text))]

    @staticmethod
    def decode(text: str) -> tuple[float, float, int, list[int], int]:
        """Parse an encoded histogram: (lo, hi, underflow, bins, overflow)."""
        try:
            lo_s, hi_s, rest = text.split(":", 2)
            under_s, body, over_s = rest.split("|")
            bins = [int(c) for c in body.split(",")] if body else []
            return float(lo_s), float(hi_s), int(under_s), bins, int(over_s)
        except ValueError as exc:
            raise OperatorError(f"malformed histogram encoding: {text!r}") from exc

    @staticmethod
    def quantile(text: str, q: float) -> float:
        """Estimate the ``q``-quantile from an encoded histogram.

        Linear interpolation within the containing bin; underflow clamps to
        ``lo`` and overflow to ``hi``.  The estimate is exact when values are
        uniform within bins, and its error is bounded by one bin width —
        sufficient for the "compact representation of the input value
        distribution" role the paper assigns to histogram reduction.
        """
        if not (0.0 <= q <= 1.0):
            raise OperatorError(f"quantile must be in [0, 1], got {q}")
        lo, hi, under, bins, over = HistogramOp.decode(text)
        total = under + sum(bins) + over
        if total == 0:
            raise OperatorError("cannot take a quantile of an empty histogram")
        target = q * total
        if target <= under:
            return lo
        cumulative = float(under)
        width = (hi - lo) / len(bins) if bins else 0.0
        for i, count in enumerate(bins):
            if count and target <= cumulative + count:
                fraction = (target - cumulative) / count
                return lo + (i + fraction) * width
            cumulative += count
        return hi


class FirstOp(AggregateOp):
    """``first(x)`` — first non-empty value seen (any type).

    Combine keeps the receiving side's value, so cross-process results pick
    a deterministic representative given a deterministic reduction order.
    """

    name = "first"

    def init(self) -> list:
        return [None]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        if state[0] is None:
            v = record_get(self.args[0])
            if not v.is_empty:
                state[0] = v

    def combine(self, state: list, other: list) -> None:
        if state[0] is None and other[0] is not None:
            state[0] = other[0]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        if state[0] is None:
            return []
        return [(self.output_labels()[0], state[0])]


class RatioOp(AggregateOp):
    """``ratio(x, y)`` — sum(x) / sum(y) per key. State: [sum_x, sum_y]."""

    name = "ratio"
    arity = 2

    def output_labels(self) -> list[str]:
        return [f"ratio#{self.args[0]}/{self.args[1]}"]

    def init(self) -> list:
        return [0.0, 0.0]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = numeric_or_none(record_get(self.args[0]), include_bool=False)
        y = numeric_or_none(record_get(self.args[1]), include_bool=False)
        if x is not None:
            state[0] += x
        if y is not None:
            state[1] += y

    def update_weighted(
        self, state: list, record_get: Callable[[str], Variant], weight: float
    ) -> None:
        x = numeric_or_none(record_get(self.args[0]), include_bool=False)
        y = numeric_or_none(record_get(self.args[1]), include_bool=False)
        if x is not None:
            state[0] += weight * x
        if y is not None:
            state[1] += weight * y

    def combine(self, state: list, other: list) -> None:
        state[0] += other[0]
        state[1] += other[1]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        if state[1] == 0.0:
            return []
        return [(self.output_labels()[0], Variant(ValueType.DOUBLE, state[0] / state[1]))]


class ScaleOp(_WeightedSumMixin, _NumericOp):
    """``scale(x, factor)`` — sum(x) * factor.

    Used e.g. to convert sample counts to seconds given a sampling period
    (Section VI-B computes CPU time from 100 Hz sample counts this way).
    """

    name = "scale"
    arity = 1

    def __init__(self, args: Sequence[str] = (), factor: float = 1.0) -> None:
        super().__init__(args)
        self.factor = float(factor)
        self.params = (self.factor,)

    def spec_string(self) -> str:
        return f"scale({self.args[0]},{_num_str(self.factor)})"

    def init(self) -> list:
        return [0, 0.0]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = self._get_number(record_get)
        if x is not None:
            state[0] += 1
            state[1] += x

    def combine(self, state: list, other: list) -> None:
        state[0] += other[0]
        state[1] += other[1]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        if state[0] == 0:
            return []
        return [(self.output_labels()[0], Variant(ValueType.DOUBLE, state[1] * self.factor))]


class PercentTotalOp(_WeightedSumMixin, _NumericOp):
    """``percent_total(x)`` — this key's share of the global sum of ``x``.

    The per-key state is an ordinary sum; the global total is resolved in a
    finalization pass by the aggregation database (see
    :meth:`~repro.aggregate.db.AggregationDB.flush`), because no purely
    per-key kernel can know it.
    """

    name = "percent_total"

    #: flag checked by the DB's flush pass
    needs_global_total = True

    def init(self) -> list:
        return [0, 0.0]

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        x = self._get_number(record_get)
        if x is not None:
            state[0] += 1
            state[1] += x

    def combine(self, state: list, other: list) -> None:
        state[0] += other[0]
        state[1] += other[1]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        # Without the global total we can only report the raw share; the DB
        # rewrites this with the proper percentage at flush time.
        if state[0] == 0:
            return []
        return [(self.output_labels()[0], Variant(ValueType.DOUBLE, state[1]))]

    def results_with_total(self, state: list, total: float) -> list[tuple[str, Variant]]:
        if state[0] == 0:
            return []
        pct = 100.0 * state[1] / total if total != 0.0 else 0.0
        return [(self.output_labels()[0], Variant(ValueType.DOUBLE, pct))]


class AliasedOp(AggregateOp):
    """Renames another operator's output column (CalQL ``AS``).

    Delegates all reduction behaviour to the wrapped kernel; only the output
    label changes.  Restricted to single-output operators (every built-in).
    """

    arity = -1  # constructed programmatically, never from the registry

    def __init__(self, inner: AggregateOp, alias: str) -> None:
        if len(inner.output_labels()) != 1:
            raise OperatorError(
                f"cannot alias {inner.spec_string()!r}: it has "
                f"{len(inner.output_labels())} output columns"
            )
        self.inner = inner
        self.alias = alias
        self.args = inner.args
        self.name = inner.name
        self.params = getattr(inner, "params", None)

    @property
    def needs_global_total(self) -> bool:
        return bool(getattr(self.inner, "needs_global_total", False))

    def output_labels(self) -> list[str]:
        return [self.alias]

    def spec_string(self) -> str:
        return f"{self.inner.spec_string()} AS {self.alias}"

    def init(self) -> list:
        return self.inner.init()

    def update(self, state: list, record_get: Callable[[str], Variant]) -> None:
        self.inner.update(state, record_get)

    def update_weighted(
        self, state: list, record_get: Callable[[str], Variant], weight: float
    ) -> None:
        self.inner.update_weighted(state, record_get, weight)

    def combine(self, state: list, other: list) -> None:
        self.inner.combine(state, other)

    def _rename(self, results: list[tuple[str, Variant]]) -> list[tuple[str, Variant]]:
        return [(self.alias, value) for _label, value in results]

    def results(self, state: list) -> list[tuple[str, Variant]]:
        return self._rename(self.inner.results(state))

    def results_with_total(self, state: list, total: float) -> list[tuple[str, Variant]]:
        return self._rename(self.inner.results_with_total(state, total))  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AliasedOp)
            and self.alias == other.alias
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash(("alias", self.alias, self.inner))


def _as_variant(x: float) -> Variant:
    # Non-finite sums (overflow to inf, nan inputs) have no int form.
    if math.isfinite(x) and x == int(x):
        return Variant(ValueType.INT, int(x))
    return Variant(ValueType.DOUBLE, x)


def _count_variant(n) -> Variant:
    # Unweighted counts are exact ints; weighted counts (Σ 1/p) are floats.
    # Whole floats ≥ 0 still render as UINT so a sampled profile keeps the
    # column type of an unsampled one whenever the estimate lands on a whole
    # number; fractional or negative (a negative weight) counts surface as
    # DOUBLE.
    if n.__class__ is int and n >= 0:
        return Variant(ValueType.UINT, n)
    f = float(n)
    if math.isfinite(f) and f >= 0 and f == int(f):
        return Variant(ValueType.UINT, int(f))
    return Variant(ValueType.DOUBLE, f)


def _num_str(x: float) -> str:
    return str(int(x)) if math.isfinite(x) and x == int(x) else repr(x)


class OperatorRegistry:
    """Maps operator names to kernel factories.

    Users can register their own kernels — this is the extension point the
    paper's "user-defined aggregation schemes" motivate.  A factory receives
    the positional argument list from the CalQL text (labels first, then any
    numeric parameters) and returns an :class:`AggregateOp`.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., AggregateOp]] = {}

    def register(self, name: str, factory: Callable[..., AggregateOp]) -> None:
        if name in self._factories:
            raise OperatorError(f"operator {name!r} is already registered")
        self._factories[name] = factory

    def known(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def create(self, name: str, args: Sequence[str] = ()) -> AggregateOp:
        """Instantiate operator ``name`` with raw CalQL arguments.

        Numeric-looking trailing arguments are passed as parameters for
        parameterized operators (histogram bins/range, scale factor).
        """
        factory = self._factories.get(name)
        if factory is None:
            raise OperatorError(
                f"unknown aggregation operator {name!r}; known: {', '.join(self.known())}"
            )
        return factory(list(args))


def _make_histogram(args: list[str]) -> HistogramOp:
    if not args:
        raise OperatorError("histogram requires an attribute argument")
    label, params = args[0], args[1:]
    if len(params) not in (0, 1, 3):
        raise OperatorError(
            "histogram takes (attr), (attr,bins) or (attr,bins,lo,hi); "
            f"got {len(args)} arguments"
        )
    bins = int(params[0]) if params else 10
    lo = float(params[1]) if len(params) == 3 else 0.0
    hi = float(params[2]) if len(params) == 3 else 1.0
    return HistogramOp([label], bins=bins, lo=lo, hi=hi)


def _make_scale(args: list[str]) -> ScaleOp:
    if len(args) != 2:
        raise OperatorError(f"scale takes (attr, factor); got {len(args)} arguments")
    return ScaleOp([args[0]], factor=float(args[1]))


def default_registry() -> OperatorRegistry:
    """A registry with every built-in operator."""
    reg = OperatorRegistry()
    reg.register("count", lambda args: CountOp(args))
    reg.register("sum", lambda args: SumOp(args))
    reg.register("min", lambda args: MinOp(args))
    reg.register("max", lambda args: MaxOp(args))
    reg.register("avg", lambda args: AvgOp(args))
    reg.register("mean", lambda args: AvgOp(args))  # alias
    reg.register("variance", lambda args: VarianceOp(args))
    reg.register("stddev", lambda args: StddevOp(args))
    reg.register("est_moments", lambda args: MomentsOp(args))
    reg.register("histogram", _make_histogram)
    reg.register("first", lambda args: FirstOp(args))
    reg.register("any", lambda args: FirstOp(args))  # alias
    reg.register("ratio", lambda args: RatioOp(args))
    reg.register("scale", _make_scale)
    reg.register("percent_total", lambda args: PercentTotalOp(args))
    return reg


_DEFAULT = default_registry()


def make_op(name: str, args: Sequence[str] = ()) -> AggregateOp:
    """Instantiate a built-in operator by name."""
    return _DEFAULT.create(name, args)
