"""Offline sampled execution: sampled_query, QueryOptions, the CLI."""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, Iterator, Optional

import pytest

import repro.api as api
from repro.common import QueryError, Record, Variant
from repro.io.dataset import write_records
from repro.query.cli import main as cli_main
from repro.query.engine import QueryEngine
from repro.query.options import QueryOptions
from repro.sampling import WEIGHT_LABEL, sampled_query

QUERY = "AGGREGATE count, sum(x), avg(x) GROUP BY k ORDER BY k"


def make_records(n=4000, groups=4, seed=0):
    rng = random.Random(seed)
    return [
        Record({"k": f"g{i % groups}", "x": rng.uniform(0.0, 2.0)})
        for i in range(n)
    ]


def table(result):
    out = {}
    for record in result.records:
        entries = {label: v for label, v in record.items()}
        out[entries["k"].to_string()] = entries
    return out


def sample_records(
    records: Iterable[Record], probability: float, seed: Optional[int] = None
) -> Iterator[Record]:
    """The per-record Bernoulli sampler, the reference the sampled query is
    checked against: one ``random.Random(seed).random()`` draw per record,
    in order; a kept record carries ``sample.weight = 1/probability``
    (replacing its own).  Probability 1 passes the stream through."""
    p = float(probability)
    if p >= 1.0:
        yield from records
        return
    rnd = random.Random(seed).random
    weight = Variant.double(1.0 / p)
    for record in records:
        if rnd() < p:
            yield record.with_entries({WEIGHT_LABEL: weight})


class TestSampleRecords:
    """What the sample is: kept rows weighted ``1/p``, fixed by the seed."""

    def test_probability_one_keeps_everything_unweighted(self):
        records = make_records(100)
        plain = table(QueryEngine(QUERY).run(records))
        for k, entries in table(sampled_query(QUERY, records, 1.0, seed=1)).items():
            assert entries["count"] == entries["est.samples"] == plain[k]["count"]
            assert entries["count"].type is plain[k]["count"].type  # no weight: an int

    def test_weights_are_inverse_probability(self):
        records = make_records(2000)
        result = table(sampled_query(QUERY, records, 0.25, seed=1))
        assert 300 < sum(e["est.samples"].value for e in result.values()) < 700
        for entries in result.values():
            assert entries["count"].value == pytest.approx(4.0 * entries["est.samples"].value)

    def test_seed_reproducible(self):
        records = make_records(500)
        a = str(sampled_query(QUERY, records, 0.5, seed=9))
        assert a == str(sampled_query(QUERY, records, 0.5, seed=9))
        assert a != str(sampled_query(QUERY, records, 0.5, seed=10))


class TestSampledQuery:
    def test_p1_matches_plain_query_exactly(self):
        records = make_records()
        plain = table(QueryEngine(QUERY).run(records))
        sampled = table(sampled_query(QUERY, records, 1.0, seed=0))
        for k, entries in plain.items():
            assert sampled[k]["count"].value == entries["count"].value
            assert sampled[k]["sum#x"].value == pytest.approx(
                entries["sum#x"].value
            )

    def test_estimate_columns_present_and_bracket_point(self):
        records = make_records()
        result = table(sampled_query(QUERY, records, 0.2, seed=3))
        for entries in result.values():
            lo = entries["est.lo#count"].value
            hi = entries["est.hi#count"].value
            point = entries["count"].value
            assert lo <= point <= hi
            assert entries["est.fraction"].value == pytest.approx(0.2)

    def test_point_columns_are_the_row_engine_flush_of_the_sample(self):
        # bit for bit: the same seeded sample folded by the generic row engine
        from repro.aggregate import AggregationDB
        from repro.calql import parse_scheme

        from ..query.test_column_fold import exact_value

        query = "AGGREGATE count, avg(x), percent_total(x) GROUP BY k"
        records = make_records(600, groups=3, seed=11)
        db = AggregationDB(parse_scheme(query), "generic")
        db.process_all(sample_records(records, 0.3, seed=4))

        def exact_rows(rows):
            return sorted(
                sorted((label, *exact_value(v)) for label, v in r.items()
                       if not label.startswith("est"))
                for r in rows
            )

        got = sampled_query(query, records, 0.3, seed=4).records
        assert exact_rows(got) == exact_rows(db.flush())
        assert {label for r in got for label in r.labels()} >= {
            "count", "avg#x", "percent_total#x"
        }

    def test_samples_are_the_records_kept_per_group(self):
        # est.samples counts the records the sample kept, not int() of the
        # de-weighted float count (399.9999999999995 at p = 0.3 is 120 kept)
        records = make_records(3000, groups=7, seed=2)
        for p in (0.3, 0.1, 0.7, 0.03, 0.15, 0.45):
            for seed in range(5):
                kept = Counter(r.get("k").value for r in sample_records(records, p, seed))
                got = {
                    r.get("k").value: r.get("est.samples")
                    for r in sampled_query(QUERY, records, p, seed=seed).records
                }
                assert got == {k: Variant.of(n) for k, n in kept.items()}, (p, seed)

    def test_counts_scale_to_truth(self):
        records = make_records(8000)
        result = table(sampled_query(QUERY, records, 0.3, seed=5))
        for entries in result.values():
            assert entries["count"].value == pytest.approx(2000, rel=0.15)

    def test_rejects_non_aggregation(self):
        with pytest.raises(QueryError):
            sampled_query("SELECT k,x", make_records(10), 0.5)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(QueryError):
            sampled_query(QUERY, make_records(10), p)


class TestQueryOptions:
    def test_sampling_field_validated(self):
        QueryOptions(sampling=0.5)
        QueryOptions(sampling=None)
        with pytest.raises(ValueError):
            QueryOptions(sampling=0.0)
        with pytest.raises(ValueError):
            QueryOptions(sampling=1.0001)

    def test_api_query_sampling_keyword(self):
        records = make_records(6000)
        result = table(api.query(QUERY, records, sampling=0.25, sampling_seed=2))
        for entries in result.values():
            assert entries["count"].value == pytest.approx(1500, rel=0.2)
            assert "est#count" in entries

    def test_api_query_sampling_rejects_live_source(self):
        with pytest.raises(QueryError, match="local execution"):
            api.query(QUERY, "127.0.0.1:9999", sampling=0.5)
        with pytest.raises(QueryError, match="local execution"):
            api.query(QUERY, ("127.0.0.1", 9999), sampling=0.5)

    def test_api_query_sampling_on_files(self, tmp_path):
        path = tmp_path / "data.json"
        write_records(path, make_records(4000))
        result = table(api.query(QUERY, str(path), sampling=0.5, sampling_seed=1))
        for entries in result.values():
            assert entries["count"].value == pytest.approx(1000, rel=0.2)


class TestCLI:
    def test_sample_flag(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        write_records(path, make_records(4000))
        code = cli_main(
            ["-q", QUERY, "--sample", "0.5", "--sample-seed", "1", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "est#count" in out
        assert "est.lo#count" in out

    def test_sample_conflicts_with_parallel(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        write_records(path, make_records(100))
        code = cli_main(
            ["-q", QUERY, "--sample", "0.5", "--parallel", "2", str(path)]
        )
        assert code == 1
        assert "--parallel" in capsys.readouterr().err

    def test_sample_rejects_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        write_records(path, make_records(100))
        code = cli_main(["-q", QUERY, "--sample", "2.0", str(path)])
        assert code != 0
