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
adds when windowing a scheme.  :meth:`WindowEstimator.estimate` returns
the state table's own render (:meth:`~repro.aggregate.table.StateTable.render`,
what a flush gives) with the estimates appended as typed columns, computed
for every slot at once from the table's cells:

- ``est#<label>``       point estimate of the final value
- ``est.lo#<label>``    lower confidence bound
- ``est.hi#<label>``    upper confidence bound
- ``est.fraction``      fraction of the window covered by the watermark
- ``est.samples``       records folded into this window group so far
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aggregate.ops import (
    AggregateOp,
    AliasedOp,
    AvgOp,
    CountOp,
    MomentsOp,
    SumOp,
)
from ..aggregate.scheme import AggregationScheme
from ..aggregate.table import StateTable, _typed_column
from ..common.variant import ValueType
from ..io.colfile import ColumnStore, _Column, _NumColumn
from .assign import WINDOW_END, WINDOW_START

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
    """Turns a table's partial states into estimate columns.

    Built once per (windowed) scheme; :meth:`estimate` is then a pure
    function of a state table and the current watermark.
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

    def estimate(
        self, table: StateTable, watermark: Optional[float], probability: Optional[float] = None
    ) -> ColumnStore:
        """The table's render (:meth:`StateTable.render`) with every slot's
        estimate columns appended, computed by column from its cells.

        Each slot's window fraction comes from its key's ``window.start`` /
        ``window.end`` (0 without a watermark, or when either is missing or
        not a number).  ``probability`` reads the table as a Bernoulli sample
        instead (:func:`repro.sampling.sampled_query`): every slot's fraction
        is ``probability``, the weighted cells are scaled by it back to raw
        sample scale, and ``est.samples`` rounds the scaled count to the
        nearest integer (a window's count is truncated, as ``int()`` does).
        A count that is not a finite number adds no samples.
        """
        store = table.render()
        n = len(store)
        whole = np.trunc if probability is None else np.rint

        def cells(index: int) -> List[np.ndarray]:
            values = table.state_columns(index)
            return values if probability is None else [v * probability for v in values]

        samples = np.zeros(n, dtype=np.int64)
        columns: Dict[str, _Column] = {}
        # like Python floats: overflow -> inf and inf - inf -> nan, silently
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if probability is None:
                fraction = _fractions(store, watermark)
            else:
                fraction = np.full(n, float(probability))
            f = np.where(0.0 > fraction, 0.0, fraction)  # min(max(fraction, 0.0), 1.0)
            f = np.where(1.0 < f, 1.0, f)
            for i, op in enumerate(self.scheme.ops):
                kind = type(_unwrap(op))
                if kind not in (MomentsOp, CountOp, SumOp, AvgOp):
                    continue
                labels = op.output_labels()
                if not labels and kind is not MomentsOp:
                    continue
                state = cells(i)
                count = state[0]
                counted = np.where(np.isfinite(count), whole(count), 0.0).astype(np.int64)
                samples = np.maximum(samples, counted)
                if kind is MomentsOp:
                    continue
                if kind is CountOp:
                    (est, lo, hi), present = self._count(count, f)
                else:
                    index = self._moments.get(_unwrap(op).args[0])
                    # no moments op: moments with n = 0, known nowhere
                    moments = _moments([np.zeros(n)] * 3 if index is None else cells(index))
                    if kind is SumOp:
                        (est, lo, hi), present = self._sum(count, state[1], moments, f)
                    else:
                        (est, lo, hi), present = self._avg(count, moments)
                for prefix, values in (("est#", est), ("est.lo#", lo), ("est.hi#", hi)):
                    column = _typed_column(values, present)
                    if column is not None:
                        columns[prefix + labels[0]] = column
        columns[FRACTION_LABEL] = _typed_column(f, None)
        columns[SAMPLES_LABEL] = _NumColumn(ValueType.INT, samples, None)
        return ColumnStore(n, {**store.columns, **columns})

    # -- per-operator estimators, over every slot ------------------------------
    #
    # Each returns ``((est, lo, hi), present)``: where ``present`` is False the
    # slot has no estimate for the operator.  The arithmetic is the scalar
    # formula's, operation for operation, so every value keeps its bits.

    def _interval(self, est: np.ndarray, sd: np.ndarray) -> Tuple[np.ndarray, ...]:
        return est, est - self.z * sd, est + self.z * sd

    def _count(self, n: np.ndarray, f: np.ndarray):
        """``n / f`` with the unseen part's Poisson variance ``n (1-f) / f``;
        exact once the window is complete."""
        unseen = n * (1.0 - f)
        sd = np.sqrt(np.where(unseen > 0.0, unseen, 0.0)) / f  # max(0.0, unseen)
        complete = f >= 1.0
        est, lo, hi = self._interval(n / f, sd)
        return [np.where(complete, n, x) for x in (est, lo, hi)], f > 0.0

    def _sum(self, count: np.ndarray, s: np.ndarray, moments, f: np.ndarray):
        """``s / f`` with the compound-Poisson unseen variance; exact once
        the window is complete, else only where the moments are known."""
        n, mean, var, known = moments
        # est - truth = s(1-f)/f - S_unseen; with Poisson arrivals both terms
        # have per-event variance (var + mean^2), which telescopes to
        # n (1-f) (var + mean^2) / f^2.
        sd = np.sqrt(n * (1.0 - f) * (var + mean * mean)) / f
        complete = f >= 1.0
        est, lo, hi = self._interval(s / f, sd)
        present = (count != 0) & (f > 0.0) & (complete | known)
        return [np.where(complete, s, x) for x in (est, lo, hi)], present

    def _avg(self, count: np.ndarray, moments):
        """The running mean with a plain CLT interval ``± z * sd / sqrt(n)``."""
        n, mean, var, known = moments
        return self._interval(mean, np.sqrt(var / n)), (count != 0) & known


def _moments(cells: List[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """``(n, mean, var, known)`` of an ``est_moments`` state: the variance
    clamped at 0 (``max(0.0, v)``, NaN included), known where ``n`` is not
    ``<= 0``."""
    n, total, squares = cells
    mean = total / n
    spread = squares / n - mean * mean
    return n, mean, np.where(spread > 0.0, spread, 0.0), ~(n <= 0.0)


def _fractions(store: ColumnStore, watermark: Optional[float]) -> np.ndarray:
    """Each row's fraction of ``[window.start, window.end)`` the watermark
    has passed: 0 without a watermark, a numeric start and end, or a
    positive span."""
    if watermark is None:
        return np.zeros(len(store))
    start, end = (
        np.array([np.nan] + [float(v.value) if v.is_numeric else np.nan for v in values])[codes + 1]
        for codes, values in map(store.interned, (WINDOW_START, WINDOW_END))
    )
    span = end - start
    return np.where(span > 0, (watermark - start) / span, 0.0)
