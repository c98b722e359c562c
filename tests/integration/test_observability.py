"""Acceptance test for the self-profiling telemetry layer.

The headline property: with collection enabled, a CalQL query over the
emitted telemetry records reproduces the per-phase timing totals the
``--stats`` table reports — in particular, the sum of the top-level phase
spans under ``query.run`` accounts for (within 1%) the reported wall time
of the query itself.
"""

import pytest

from repro import observe
from repro.common import Record
from repro.io import Dataset
from repro.observe import stats_table, to_records


def synth_dataset(n: int = 20_000) -> Dataset:
    records = [
        Record(
            {
                "kernel": f"k{i % 24}",
                "rank": i % 8,
                "time.duration": 0.25 + (i % 100) * 0.01,
            }
        )
        for i in range(n)
    ]
    return Dataset(records)


QUERY = (
    "AGGREGATE count, sum(time.duration), max(time.duration) "
    "GROUP BY kernel ORDER BY kernel"
)


@pytest.fixture(scope="module")
def collected():
    """Run one observed query and hand the registry + result to the tests."""
    ds = synth_dataset()
    with observe.collecting() as reg:
        result = ds.query(QUERY, backend="rows")
    return reg, result


class TestPhaseAccounting:
    def test_phase_spans_account_for_wall_time(self, collected):
        """Sum of direct children of query.run ≈ query.run itself (≤1% off)."""
        reg, _ = collected
        wall = reg.timer_total("query.run")
        assert wall > 0.0
        child_paths = [
            p
            for p in reg.timer_paths()
            if p.startswith("query.run/") and p.count("/") == 1
        ]
        assert child_paths, "query.run recorded no child phase spans"
        phases = sum(reg.timer_total(p) for p in child_paths)
        assert phases <= wall  # children nest strictly inside the parent
        assert phases == pytest.approx(wall, rel=0.01)

    def test_calql_over_telemetry_matches_registry(self, collected):
        """The CalQL per-phase totals equal the registry's own numbers."""
        reg, _ = collected
        telemetry = Dataset(to_records(reg))
        res = telemetry.query(
            "AGGREGATE sum(observe.time) GROUP BY observe.path "
            "ORDER BY observe.path"
        )
        totals = dict(res.rows(["observe.path", "sum#observe.time"]))
        for path in reg.timer_paths():
            assert totals[path] == pytest.approx(reg.timer_total(path))

    def test_calql_phase_rollup_matches_wall_time(self, collected):
        """The dogfooding query from the docs reproduces the wall time."""
        reg, _ = collected
        telemetry = Dataset(to_records(reg))
        res = telemetry.query(
            "AGGREGATE sum(observe.time) WHERE observe.kind=timer "
            "GROUP BY observe.phase"
        )
        totals = dict(res.rows(["observe.phase", "sum#observe.time"]))
        wall = reg.timer_total("query.run")
        phase_sum = totals["query.scan"] + totals["query.render"]
        assert phase_sum == pytest.approx(wall, rel=0.01)

    def test_stats_table_shows_the_same_phases(self, collected):
        reg, _ = collected
        text = stats_table(reg)
        for path in ("query.run", "query.run/query.scan", "query.run/query.render"):
            assert path in text


class TestBackendTelemetry:
    def test_columnar_stage_spans_nest_under_scan(self):
        ds = synth_dataset(2_000)
        with observe.collecting() as reg:
            ds.query(QUERY)
        paths = reg.timer_paths()
        assert "query.run/query.scan/columnar.group" in paths
        assert "query.run/query.scan/columnar.ops" in paths

    def test_disabled_run_records_nothing(self):
        ds = synth_dataset(1_000)
        assert not observe.enabled()
        before = observe.registry().snapshot()
        ds.query(QUERY)
        assert observe.registry().snapshot() == before
