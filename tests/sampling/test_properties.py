"""Statistical contract of sampled aggregation.

Two properties anchor the whole feature:

1. **Backend equivalence** — a weighted record set folds to the same
   result through every execution path (generic fold, compiled plan,
   columnar backend, net-server shard fold).  Horvitz–Thompson scaling is
   only trustworthy if no path silently ignores ``sample.weight``.
2. **Calibrated confidence** — over repeated independent samplings, the
   reported ``est.lo#``/``est.hi#`` interval covers the unsampled ground
   truth at roughly its nominal 90% rate.  This is the line between
   "estimate with error bars" and "number that looks precise and lies".
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.aggregate.db import AggregationDB
from repro.calql import parse_query
from repro.calql.semantics import build_scheme
from repro.common import Record
from repro.query.engine import QueryEngine
from repro.sampling import sampled_query

from .test_query import sample_records

QUERY = (
    "AGGREGATE count, sum(x), avg(x), variance(x) GROUP BY k ORDER BY k"
)


def make_records(n, groups, seed):
    rng = random.Random(seed)
    return [
        Record({"k": f"g{i % groups}", "x": rng.gammavariate(2.0, 1.5)})
        for i in range(n)
    ]


def rows(result_or_records):
    records = getattr(result_or_records, "records", result_or_records)
    out = {}
    for record in records:
        entries = {label: v for label, v in record.items()}
        if "k" in entries:
            out[entries["k"].to_string()] = {
                label: v.value
                for label, v in entries.items()
                if label != "k" and isinstance(v.value, (int, float))
            }
    return out


def scheme_for(query_text):
    return build_scheme(parse_query(query_text))


class TestBackendEquivalence:
    """Every fold path must apply sample.weight identically."""

    @given(
        seed=st.integers(min_value=0, max_value=2**30),
        p=st.sampled_from([0.15, 0.4, 0.75]),
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_compiled_generic_columnar_agree(self, seed, p):
        records = make_records(600, 3, seed)
        weighted = list(sample_records(records, p, seed=seed + 1))
        results = {}
        for plan in ("compiled", "generic"):
            db = AggregationDB(scheme_for(QUERY), fold_plan=plan)
            db.process_all(weighted)
            results[plan] = rows(db.flush())
        engine = QueryEngine(QUERY)
        results["columnar"] = rows(engine.run(weighted))
        base = results["compiled"]
        for name, got in results.items():
            assert set(got) == set(base), name
            for k in base:
                for metric, value in base[k].items():
                    assert got[k][metric] == pytest.approx(
                        value, rel=1e-9, abs=1e-9
                    ), (name, k, metric)

    def test_net_shard_fold_applies_weights(self):
        from repro.net import AggregationServer, FlushClient, live_query

        records = make_records(800, 2, seed=7)
        weighted = list(sample_records(records, 0.25, seed=8))
        local = rows(QueryEngine(QUERY).run(weighted))

        server = AggregationServer(QUERY, shards=2)
        server.start()
        try:
            host, port = server.address
            client = FlushClient(host, port, batch_size=128)
            for record in weighted:
                client.push(record)
            client.flush()
            client.close()
            # live queries are second-stage: re-aggregate the server's
            # already-folded per-group rows
            remote = rows(
                live_query(
                    host,
                    port,
                    "AGGREGATE sum(count), sum(sum#x) GROUP BY k",
                    timeout=10.0,
                )
            )
        finally:
            server.stop()
        assert set(remote) == set(local)
        for k in local:
            assert remote[k]["sum#count"] == pytest.approx(local[k]["count"])
            assert remote[k]["sum#sum#x"] == pytest.approx(local[k]["sum#x"])


class TestUnbiasedness:
    @given(
        seed=st.integers(min_value=0, max_value=2**30),
        p=st.sampled_from([0.2, 0.5]),
    )
    # a 3.5-sigma draw (g2 sum#x 2151 vs 2947) that a flat rel=0.25 rejected
    @example(seed=5370, p=0.2)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_point_estimates_near_truth(self, seed, p):
        records = make_records(3000, 3, seed)
        truth = rows(QueryEngine(QUERY).run(records))
        est = rows(sampled_query(QUERY, records, p, seed=seed + 13))
        for k, metrics in truth.items():
            for label in ("count", "sum#x", "avg#x"):
                # An unbiased estimator is not a bounded one, so a flat
                # relative tolerance is falsifiable: hypothesis finds the
                # rare draw and replays it from its database ever after.
                # Judge each draw by its own reported spread instead — the
                # interval is a 90% CI, half-width 1.645 sigma; 8 sigma
                # leaves room for a low draw also under-estimating sigma.
                sigma = (est[k][f"est.hi#{label}"] - est[k][f"est.lo#{label}"]) / (2 * 1.645)
                assert abs(est[k][label] - metrics[label]) <= 8 * sigma, (k, label)

    def test_mean_of_estimates_converges(self):
        # Unbiasedness proper: E[count-scaled sum] = true sum.  Average
        # 60 independent samplings; the sample mean must land within ~2
        # standard errors of the truth.
        records = make_records(2000, 1, seed=101)
        truth = rows(QueryEngine(QUERY).run(records))["g0"]
        p = 0.3
        sums, counts = [], []
        for trial in range(60):
            est = rows(sampled_query(QUERY, records, p, seed=trial))
            if "g0" not in est:  # pragma: no cover - p is far from 0
                continue
            sums.append(est["g0"]["sum#x"])
            counts.append(est["g0"]["count"])
        mean_sum = sum(sums) / len(sums)
        mean_count = sum(counts) / len(counts)
        assert mean_count == pytest.approx(truth["count"], rel=0.03)
        assert mean_sum == pytest.approx(truth["sum#x"], rel=0.03)


class TestConfidenceCalibration:
    def test_90pct_interval_empirical_coverage(self):
        """The reported CI must cover ground truth ~90% of the time.

        120 independent samplings of a fixed dataset; per trial and group
        we check whether [est.lo#, est.hi#] covers the unsampled value.
        The binomial 3-sigma band around 0.90 with n=240 group-trials is
        roughly +-0.06; we assert the looser [0.80, 1.0] so the test stays
        deterministic-stable while still catching a mis-scaled variance
        (which collapses coverage to ~0.5 or below).
        """
        records = make_records(4000, 2, seed=55)
        truth = rows(QueryEngine(QUERY).run(records))
        p = 0.25
        trials = 120
        covered = {"count": 0, "sum#x": 0}
        total = 0
        for trial in range(trials):
            est_rows = sampled_query(QUERY, records, p, seed=1000 + trial)
            est = {}
            for record in est_rows.records:
                entries = {label: v for label, v in record.items()}
                est[entries["k"].to_string()] = entries
            for k, metrics in truth.items():
                if k not in est:
                    continue
                total += 1
                for metric, est_label in (
                    ("count", "count"),
                    ("sum#x", "sum#x"),
                ):
                    lo = est[k][f"est.lo#{est_label}"].value
                    hi = est[k][f"est.hi#{est_label}"].value
                    if lo <= metrics[metric] <= hi:
                        covered[metric] += 1
        assert total >= trials  # both groups virtually always survive
        for metric, hits in covered.items():
            coverage = hits / total
            assert 0.80 <= coverage <= 1.0, (metric, coverage)

    def test_interval_width_shrinks_with_probability(self):
        records = make_records(4000, 1, seed=77)

        def width(p, seed):
            est = sampled_query(QUERY, records, p, seed=seed)
            entries = {
                label: v for label, v in est.records[0].items()
            }
            return entries["est.hi#sum#x"].value - entries["est.lo#sum#x"].value

        wide = sum(width(0.1, s) for s in range(8)) / 8
        narrow = sum(width(0.6, s) for s in range(8)) / 8
        assert narrow < wide
