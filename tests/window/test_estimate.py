"""Online confidence-interval estimates for open windows.

The empirical-coverage test at the bottom is the estimator's acceptance
criterion: over many randomized open-window snapshots, the nominal-90%
interval must contain the true final value at least 90% of the time.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.calql import parse_scheme
from repro.common import Record, Variant
from repro.window import (
    FRACTION_LABEL,
    SAMPLES_LABEL,
    WindowedAggregationDB,
    WindowEstimator,
    windowize_scheme,
    z_for_confidence,
)

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
        (est,) = estimator.estimate_records(wdb.table, None)
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
            (est,) = estimator.estimate_records(groups, mark)
            label = "count" if agg == "count" else "sum#v"
            lo = est.get(f"est.lo#{label}").value
            hi = est.get(f"est.hi#{label}").value
            if lo <= truth <= hi:
                covered += 1
        coverage = covered / trials
        # nominal 0.90 with ~400 trials: allow two binomial sigma below
        sigma = math.sqrt(0.9 * 0.1 / trials)
        assert coverage >= 0.90 - 2 * sigma, f"coverage {coverage:.3f}"
