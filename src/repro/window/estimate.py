"""PF-OLA-style online estimates for open windows.

While a window is open, its partial operator states are an unbiased sample
of the final answer *in time*: with a watermark ``w`` inside window
``[start, end)``, the fraction ``f = (w - start) / (end - start)`` of the
window's time span has been observed.  Treating arrivals as a homogeneous
stream over the window (the PF-OLA estimator model, with the unseen count
Poisson-distributed around its mean), the partial states extrapolate:

- ``count``:  ``n / f``, variance of the unseen part ``n (1-f) / f``
- ``sum(x)``: ``s / f``, compound-Poisson unseen variance
  ``(n (1-f) / f) * (var_x + mean_x^2)``
- ``avg(x)``: the running mean, plain CLT interval ``± z * sd / sqrt(n)``

Per-value moments come from the hidden ``est_moments`` operator the server
adds when windowing a scheme.  The partial aggregates are the state table's
own render (:meth:`~repro.aggregate.table.StateTable.render`, what a flush
gives); estimates are emitted as extra columns next to them:

- ``est#<label>``       point estimate of the final value
- ``est.lo#<label>``    lower confidence bound
- ``est.hi#<label>``    upper confidence bound
- ``est.fraction``      fraction of the window covered by the watermark
- ``est.samples``       records folded into this window group so far
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..aggregate.ops import (
    AggregateOp,
    AliasedOp,
    AvgOp,
    CountOp,
    MomentsOp,
    SumOp,
)
from ..aggregate.scheme import AggregationScheme
from ..common.record import Record
from ..common.variant import Variant
from .assign import WINDOW_END, WINDOW_START

if TYPE_CHECKING:
    from ..aggregate.table import StateTable

__all__ = [
    "z_for_confidence",
    "scheme_with_moments",
    "WindowEstimator",
    "FRACTION_LABEL",
    "SAMPLES_LABEL",
]

FRACTION_LABEL = "est.fraction"
SAMPLES_LABEL = "est.samples"

#: Standard-normal quantiles for common two-sided confidence levels.
_Z_TABLE = {0.80: 1.2816, 0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_for_confidence(confidence: float) -> float:
    """Two-sided standard-normal critical value for ``confidence``.

    Exact for the tabulated levels; otherwise a rational approximation of
    the normal quantile (Beasley-Springer-Moro), good to ~1e-4 here.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    for level, z in _Z_TABLE.items():
        if abs(confidence - level) < 1e-9:
            return z
    # upper-tail probability -> quantile via Acklam/BSM approximation
    p = 0.5 + confidence / 2.0
    # coefficients for the central region approximation
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        return q * num / den
    r = math.sqrt(-math.log(1.0 - p))
    # tail expansion (adequate for the confidence levels queries use)
    return (r - (math.log(r) + math.log(2.0 * math.pi) / 2.0) / (2.0 * r))


def _unwrap(op: AggregateOp) -> AggregateOp:
    return op.inner if isinstance(op, AliasedOp) else op


def scheme_with_moments(scheme: AggregationScheme) -> AggregationScheme:
    """``scheme`` plus a hidden ``est_moments`` op for every sum/avg input.

    The moment states :class:`WindowEstimator` reads for the ``sum`` /
    ``avg`` confidence intervals — of an open window, or of a Bernoulli
    sample (:func:`repro.sampling.sampled_query`).  Idempotent: a scheme
    that already has them comes back unchanged.
    """
    ops = list(scheme.ops)
    have = {_unwrap(op).args[0] for op in ops if type(_unwrap(op)) is MomentsOp}
    for op in scheme.ops:
        target = _unwrap(op)
        if type(target) in (SumOp, AvgOp) and target.args[0] not in have:
            ops.append(MomentsOp([target.args[0]]))
            have.add(target.args[0])
    if len(ops) == len(scheme.ops):
        return scheme
    return AggregationScheme(ops, key=scheme.key, predicate=scheme.predicate)


class WindowEstimator:
    """Turns per-window partial states into estimate records.

    Built once per (windowed) scheme; :meth:`estimate_records` is then a
    pure function of a state table and the current watermark.
    """

    def __init__(self, scheme: AggregationScheme, confidence: float = 0.90) -> None:
        self.scheme = scheme
        self.confidence = float(confidence)
        self.z = z_for_confidence(self.confidence)
        #: moment-state index per input attribute
        self._moments: Dict[str, int] = {}
        for i, op in enumerate(scheme.ops):
            target = _unwrap(op)
            if type(target) is MomentsOp:
                self._moments[target.args[0]] = i

    # -- per-operator estimators -------------------------------------------

    def _estimate_count(
        self, n: float, fraction: float
    ) -> Tuple[float, float, float]:
        if fraction >= 1.0:
            return n, n, n
        est = n / fraction
        sd = math.sqrt(max(0.0, n * (1.0 - fraction))) / fraction
        return est, est - self.z * sd, est + self.z * sd

    def _estimate_sum(
        self, s: float, moments: Optional[list], fraction: float
    ) -> Optional[Tuple[float, float, float]]:
        if fraction >= 1.0:
            return s, s, s
        est = s / fraction
        if not moments or moments[0] <= 0:
            return None
        n, ms, ssq = float(moments[0]), float(moments[1]), float(moments[2])
        mean = ms / n
        var = max(0.0, ssq / n - mean * mean)
        # est - truth = s(1-f)/f - S_unseen; with Poisson arrivals both terms
        # have per-event variance (var + mean^2), which telescopes to
        # n (1-f) (var + mean^2) / f^2.
        sd = math.sqrt(n * (1.0 - fraction) * (var + mean * mean)) / fraction
        return est, est - self.z * sd, est + self.z * sd

    def _estimate_avg(
        self, moments: Optional[list]
    ) -> Optional[Tuple[float, float, float]]:
        if not moments or moments[0] <= 0:
            return None
        n, ms, ssq = float(moments[0]), float(moments[1]), float(moments[2])
        mean = ms / n
        var = max(0.0, ssq / n - mean * mean)
        sd = math.sqrt(var / n)
        return mean, mean - self.z * sd, mean + self.z * sd

    # -- group-level API ----------------------------------------------------

    def estimate_entries(
        self,
        states: Sequence[list],
        fraction: float,
    ) -> List[Tuple[str, Variant]]:
        """Estimate columns for one group's operator states."""
        out: List[Tuple[str, Variant]] = []
        samples = 0
        f = min(max(fraction, 0.0), 1.0)
        for i, op in enumerate(self.scheme.ops):
            target = _unwrap(op)
            state = states[i]
            if type(target) is MomentsOp:
                samples = max(samples, int(state[0]))
                continue
            labels = op.output_labels()
            if not labels:
                continue
            label = labels[0]
            triple: Optional[Tuple[float, float, float]] = None
            if type(target) is CountOp:
                n = float(state[0])
                samples = max(samples, int(state[0]))
                if f > 0.0:
                    triple = self._estimate_count(n, f)
            elif type(target) is SumOp:
                count, total = state
                samples = max(samples, int(count))
                if count and f > 0.0:
                    mom = self._moments.get(target.args[0])
                    triple = self._estimate_sum(
                        float(total), states[mom] if mom is not None else None, f
                    )
            elif type(target) is AvgOp:
                count, _total = state
                samples = max(samples, int(count))
                if count:
                    mom = self._moments.get(target.args[0])
                    triple = self._estimate_avg(
                        states[mom] if mom is not None else None
                    )
            if triple is not None:
                est, lo, hi = triple
                out.append((f"est#{label}", Variant.of(float(est))))
                out.append((f"est.lo#{label}", Variant.of(float(lo))))
                out.append((f"est.hi#{label}", Variant.of(float(hi))))
        out.append((FRACTION_LABEL, Variant.of(float(f))))
        out.append((SAMPLES_LABEL, Variant.of(int(samples))))
        return out

    def estimate_records(
        self, table: "StateTable", watermark: Optional[float]
    ) -> List[Record]:
        """Partial results + estimate columns for a windowized table's slots.

        Each slot's window fraction comes from its key's ``window.start`` /
        ``window.end`` (0 when either is missing or not a number).
        """
        start, end = (self.scheme.key.index(label) for label in (WINDOW_START, WINDOW_END))
        return with_entries(table, [
            self.estimate_entries(states, _fraction(key[start], key[end], watermark))
            for key, states in table.items()
        ])


def _fraction(
    start: Optional[Variant], end: Optional[Variant], watermark: Optional[float]
) -> float:
    """The fraction of ``[start, end)`` the watermark has passed."""
    if watermark is None or start is None or end is None:
        return 0.0
    if not (start.is_numeric and end.is_numeric):
        return 0.0
    span = float(end.value) - float(start.value)
    return (watermark - float(start.value)) / span if span > 0 else 0.0


def with_entries(
    table: "StateTable", entries: Sequence[Sequence[Tuple[str, Variant]]]
) -> List[Record]:
    """One output record per slot: the table's flush (its render, hydrated),
    each slot's record followed by its ``entries``."""
    return [record.with_entries(dict(extra)) for record, extra in zip(table.flush(), entries)]
