"""Online confidence-interval estimates for open windows.

The empirical-coverage test at the bottom is the estimator's acceptance
criterion: over many randomized open-window snapshots, the nominal-90%
interval must contain the true final value at least 90% of the time.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.ops import AvgOp, CountOp, MomentsOp, SumOp
from repro.aggregate.table import StateTable
from repro.calql import parse_scheme
from repro.common import Record, Variant
from repro.io.colfile import result_records
from repro.sampling import sampled_query
from repro.window import (
    FRACTION_LABEL,
    SAMPLES_LABEL,
    WindowedAggregationDB,
    WindowEstimator,
    windowize_scheme,
    z_for_confidence,
)
from repro.window.estimate import scheme_with_moments

from ..conftest import examples
from ..query.test_column_fold import exact_value
from ..sampling.test_query import sample_records

SCHEME_TEXT = "AGGREGATE count, sum(v), avg(v) GROUP BY k"


def rec(k: str, t: float, v: float) -> Record:
    return Record.from_variants(
        {
            "k": Variant.of(k),
            "time.start": Variant.of(float(t)),
            "v": Variant.of(float(v)),
        }
    )


class TestZ:
    def test_tabulated_levels(self):
        assert z_for_confidence(0.90) == pytest.approx(1.6449, abs=1e-4)
        assert z_for_confidence(0.95) == pytest.approx(1.9600, abs=1e-4)
        assert z_for_confidence(0.99) == pytest.approx(2.5758, abs=1e-4)

    def test_approximation_between_levels(self):
        # must be monotone and sane between tabulated points
        assert 1.0 < z_for_confidence(0.85) < z_for_confidence(0.92) < 2.0

    def test_rejects_bad_levels(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                z_for_confidence(bad)


class TestEstimateColumns:
    def make(self, records, lateness=0.0):
        wdb = WindowedAggregationDB(
            parse_scheme(SCHEME_TEXT), "tumbling(10s)", lateness=lateness
        )
        wdb.process_all(records)
        return wdb

    def test_open_window_extrapolates(self):
        # 5 records in [30, 34], watermark 34 -> fraction 0.4 of [30, 40)
        wdb = self.make([rec("a", 30.0 + i, 2.0) for i in range(5)])
        assert wdb.watermark() == 34.0
        (est,) = wdb.estimates()
        cols = {k: v.value for k, v in est.items()}
        assert cols[FRACTION_LABEL] == pytest.approx(0.4)
        assert cols[SAMPLES_LABEL] == 5
        # partial values are present untouched
        assert cols["count"] == 5 and cols["sum#v"] == 10.0
        # point estimates extrapolate by 1/fraction
        assert cols["est#count"] == pytest.approx(12.5)
        assert cols["est#sum#v"] == pytest.approx(25.0)
        # intervals bracket their point estimates
        assert cols["est.lo#count"] < 12.5 < cols["est.hi#count"]
        assert cols["est.lo#sum#v"] < 25.0 < cols["est.hi#sum#v"]
        # avg is a plain CLT interval around the running mean
        assert cols["est#avg#v"] == pytest.approx(2.0)

    def test_complete_window_has_degenerate_interval(self):
        records = [rec("a", t, 1.0) for t in (5.0, 15.0)]  # mark passes [0,10)
        wdb = self.make(records)
        by_window = {
            r.get("window.start").value: {k: v.value for k, v in r.items()}
            for r in wdb.estimates()
        }
        done = by_window[0.0]
        assert done[FRACTION_LABEL] == 1.0
        assert done["est#count"] == done["est.lo#count"] == done["est.hi#count"] == 1.0

    def test_no_watermark_means_zero_fraction(self):
        scheme = windowize_scheme(parse_scheme(SCHEME_TEXT))
        estimator = WindowEstimator(scheme)
        wdb = self.make([rec("a", 3.0, 1.0)])
        (est,) = result_records(estimator.estimate(wdb.table, None))
        cols = {k: v.value for k, v in est.items()}
        assert cols[FRACTION_LABEL] == 0.0
        # no extrapolation possible, but partials and samples still there
        assert cols["count"] == 1 and cols[SAMPLES_LABEL] == 1
        assert "est#count" not in cols


def test_an_estimate_renders_percent_total_against_the_total_over_every_window():
    # the point columns are the table's render: percent_total divides by
    # the total over every slot, as results() does, not the raw sums
    wdb = WindowedAggregationDB(
        parse_scheme("AGGREGATE percent_total(x) GROUP BY k"), "tumbling(10s)"
    )
    wdb.process_all([
        Record({"time.start": 1, "k": "a", "x": 3}),
        Record({"time.start": 2, "k": "b", "x": 1}),
    ])

    def shares(records):
        return {r.get("k").value: r.get("percent_total#x") for r in records}

    assert shares(wdb.estimates()) == shares(wdb.results()) == {
        "a": Variant.of(75.0), "b": Variant.of(25.0),
    }


class TestEmpiricalCoverage:
    @pytest.mark.parametrize("agg", ["count", "sum"])
    def test_open_window_interval_covers_at_nominal_rate(self, agg):
        """Nominal-90% intervals must cover the truth >= 90% empirically.

        Poisson arrivals over a [0, 100) window, truncated at a watermark
        fraction drawn per trial; the model matches the estimator's
        assumptions, so coverage should sit at (or above) nominal.
        """
        rng = random.Random(20260808)
        scheme = windowize_scheme(parse_scheme(SCHEME_TEXT))
        estimator = WindowEstimator(scheme, confidence=0.90)
        trials = 400
        covered = 0
        for _ in range(trials):
            n = 40 + rng.randrange(120)
            times = sorted(rng.uniform(0.0, 100.0) for _ in range(n))
            values = [abs(rng.gauss(5.0, 2.0)) for _ in range(n)]
            truth = float(n) if agg == "count" else sum(values)
            fraction = rng.uniform(0.3, 0.9)
            mark = 100.0 * fraction
            wdb = WindowedAggregationDB(
                parse_scheme(SCHEME_TEXT), "tumbling(100s)", lateness=0.0
            )
            wdb.process_all(rec("a", t, v) for t, v in zip(times, values) if t <= mark)
            groups = wdb.table
            if not groups:
                covered += 1  # nothing observed: no interval to falsify
                continue
            (est,) = result_records(estimator.estimate(groups, mark))
            label = "count" if agg == "count" else "sum#v"
            lo = est.get(f"est.lo#{label}").value
            hi = est.get(f"est.hi#{label}").value
            if lo <= truth <= hi:
                covered += 1
        coverage = covered / trials
        # nominal 0.90 with ~400 trials: allow two binomial sigma below
        sigma = math.sqrt(0.9 * 0.1 / trials)
        assert coverage >= 0.90 - 2 * sigma, f"coverage {coverage:.3f}"


# -- the column estimate, bit for bit against the scalar PF-OLA formulas -------------


def _unwrap(op):
    return getattr(op, "inner", op)


def reference_entries(estimator, states, fraction, whole=int):
    """One slot's estimate entries, formula by formula on Python floats:
    the per-slot estimator the column code replaces."""
    z = estimator.z
    moments_of = {
        _unwrap(op).args[0]: i
        for i, op in enumerate(estimator.scheme.ops)
        if type(_unwrap(op)) is MomentsOp
    }

    def moments(attribute):
        i = moments_of.get(attribute)
        if i is None or states[i][0] <= 0:
            return None
        n, ms, ssq = (float(c) for c in states[i])
        mean = ms / n
        return n, mean, max(0.0, ssq / n - mean * mean)

    out, samples = [], 0
    f = min(max(fraction, 0.0), 1.0)
    for i, op in enumerate(estimator.scheme.ops):
        kind, state = type(_unwrap(op)), states[i]
        if kind is MomentsOp:
            samples = max(samples, whole(state[0]))
            continue
        labels = op.output_labels()
        if kind not in (CountOp, SumOp, AvgOp) or not labels:
            continue
        samples = max(samples, whole(state[0]))
        triple = None
        if kind is CountOp and f > 0.0:
            n = float(state[0])
            if f >= 1.0:
                triple = n, n, n
            else:
                est, sd = n / f, math.sqrt(max(0.0, n * (1.0 - f))) / f
                triple = est, est - z * sd, est + z * sd
        elif kind is SumOp and state[0] and f > 0.0:
            s, m = float(state[1]), moments(_unwrap(op).args[0])
            if f >= 1.0:
                triple = s, s, s
            elif m is not None:
                n, mean, var = m
                est = s / f
                sd = math.sqrt(n * (1.0 - f) * (var + mean * mean)) / f
                triple = est, est - z * sd, est + z * sd
        elif kind is AvgOp and state[0]:
            m = moments(_unwrap(op).args[0])
            if m is not None:
                n, mean, var = m
                sd = math.sqrt(var / n)
                triple = mean, mean - z * sd, mean + z * sd
        if triple is not None:
            for prefix, value in zip(("est#", "est.lo#", "est.hi#"), triple):
                out.append((prefix + labels[0], Variant.of(float(value))))
    out.append((FRACTION_LABEL, Variant.of(float(f))))
    out.append((SAMPLES_LABEL, Variant.of(int(samples))))
    return out


def reference_fraction(entries, watermark):
    start, end = entries.get("window.start"), entries.get("window.end")
    if watermark is None or start is None or end is None:
        return 0.0
    if not (start.is_numeric and end.is_numeric):
        return 0.0
    span = float(end.value) - float(start.value)
    return (watermark - float(start.value)) / span if span > 0 else 0.0


LINEAR = (CountOp, SumOp, AvgOp, MomentsOp)


def reference_rows(estimator, table, watermark, probability=None):
    """The table's flush, each row followed by its scalar estimate entries;
    a sample's linear cells scaled back by ``probability`` first, and its
    sample count rounded to the nearest integer."""
    entries = []
    for key, states in table.export_states():
        if probability is None:
            entries.append(reference_entries(
                estimator, states, reference_fraction(key, watermark)
            ))
            continue
        scaled = [
            [c * probability for c in state] if type(_unwrap(op)) in LINEAR else state
            for op, state in zip(estimator.scheme.ops, states)
        ]
        entries.append(reference_entries(estimator, scaled, probability, whole=round))
    return [record.with_entries(dict(extra)) for record, extra in zip(table.flush(), entries)]


def exact_rows(records):
    """Entries in order, doubles by bit pattern (``-0.0`` is not ``0.0``)."""
    return [[(label, *exact_value(v)) for label, v in r.items()] for r in records]


VALUES = [None, 0.0, -0.0, float("nan"), 1.5, -2.25, 3, 1e300, float("inf")]
BOUNDS = [None, 0.0, 10.0, 20, 5.0, "w", float("nan")]
WEIGHTS = [None, None, 1.0, 2.5, 0.5, 3, 0.0, 0.1]
SCHEMES = [
    "AGGREGATE count, sum(v), avg(v) GROUP BY k, window.start, window.end",
    "AGGREGATE count, sum(v), avg(v), min(v), percent_total(v), sum(w), avg(w) "
    "GROUP BY k, window.start, window.end",
    "AGGREGATE avg(v) AS mean, sum(w) GROUP BY window.start, window.end",
]


@st.composite
def window_rows(draw):
    entries = {"k": draw(st.sampled_from(["a", "b", "c"]))}
    for label, choices in (
        ("window.start", BOUNDS), ("window.end", BOUNDS), ("v", VALUES), ("w", VALUES),
        ("sample.weight", WEIGHTS),
    ):
        value = draw(st.sampled_from(choices))
        if value is not None:
            entries[label] = value
    return Record(entries)


@settings(max_examples=examples(150), deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    moments=st.booleans(),
    rows=st.lists(window_rows(), max_size=30),
    watermark=st.one_of(
        st.none(),
        st.sampled_from([-5.0, 0.0, -0.0, 2.5, 10.0, 15.0, 20.0, 1e9]),
        st.floats(-50.0, 50.0),
    ),
    probability=st.sampled_from([0.3, 0.1, 0.7, 1.0]),
)
def test_the_column_estimate_is_the_scalar_formulas_bit_for_bit(
    scheme, moments, rows, watermark, probability
):
    scheme = parse_scheme(scheme)
    if moments:
        scheme = scheme_with_moments(scheme)
    table = StateTable(scheme)
    table.fold(rows)
    estimator = WindowEstimator(scheme)
    got = exact_rows(result_records(estimator.estimate(table, watermark)))
    assert got == exact_rows(reference_rows(estimator, table, watermark))
    sampled = exact_rows(result_records(estimator.estimate(table, None, probability)))
    assert sampled == exact_rows(reference_rows(estimator, table, None, probability))


def test_a_complete_window_passes_its_count_and_sum_through_bit_for_bit():
    # f >= 1 returns the partial itself: -0.0 + z * 0.0 would be +0.0, and a
    # sum's interval would be nan without moments
    scheme = parse_scheme("AGGREGATE count, sum(v) GROUP BY window.start, window.end")
    key = {"window.start": Variant.of(0.0), "window.end": Variant.of(10.0)}
    table = StateTable.from_states(scheme, [(key, [[-0.0], [1, -0.0]])])
    (row,) = result_records(WindowEstimator(scheme).estimate(table, 10.0))
    for label in ("count", "sum#v"):
        got = [exact_value(row.get(f"est{part}#{label}")) for part in ("", ".lo", ".hi")]
        assert got == [exact_value(Variant.of(-0.0))] * 3


@pytest.mark.parametrize("p", [0.3, 0.07, 1.0])
def test_a_sampled_query_is_the_reference_over_its_sample(p):
    query = "AGGREGATE count, sum(x), avg(x), percent_total(x) GROUP BY k"
    rng = random.Random(5)
    records = [
        Record({"k": f"g{i % 4}", "x": rng.choice([0.0, -0.0, 1.25, rng.uniform(-3, 3)])})
        for i in range(800)
    ]
    scheme = scheme_with_moments(parse_scheme(query))
    table = StateTable(scheme)
    table.fold(sample_records(records, p, seed=3))
    want = reference_rows(WindowEstimator(scheme), table, None, p)
    assert exact_rows(sampled_query(query, records, p, seed=3).records) == exact_rows(want)
