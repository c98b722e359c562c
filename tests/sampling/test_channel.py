"""Sampling integrated into the channel fast path and the config schema."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.runtime.clock import VirtualClock
from repro.runtime.instrumentation import Caliper
from repro.runtime.schema import validate_config

SCHEME = "AGGREGATE count, sum(time.duration) GROUP BY function"


def run_workload(channel_overrides, iterations=4000, functions=("f0", "f1")):
    clock = VirtualClock()
    cali = Caliper(clock=clock)
    config = {
        "services": ["event", "timer", "aggregate"],
        "aggregate.config": SCHEME,
        "aggregate.rename_count": False,
    }
    config.update(channel_overrides)
    channel = cali.create_channel("test", config)
    for i in range(iterations):
        cali.begin("function", functions[i % len(functions)])
        clock.advance(1.0)
        cali.end("function")
    return channel, channel.finish()


def by_function(records):
    out = {}
    for r in records:
        e = {k: v for k, v in r.items()}
        if "function" in e and "count" in e:
            out[e["function"].to_string()] = (
                float(e["count"].value),
                float(e["sum#time.duration"].value),
            )
    return out


class TestFixedProbability:
    def test_counts_scale_back_to_truth(self):
        channel, records = run_workload(
            {"sampling.probability": "0.25", "sampling.seed": "11"}
        )
        assert channel.num_sampled_out > 0
        got = by_function(records)
        for name in ("f0", "f1"):
            count, dur = got[name]
            # 2000 true events per function; HT-scaled counts are unbiased
            assert count == pytest.approx(2000, rel=0.15)
            assert dur == pytest.approx(2000.0, rel=0.15)

    def test_no_sampling_config_means_no_sampler(self):
        channel, records = run_workload({})
        assert channel.sampler is None
        assert channel.num_sampled_out == 0
        got = by_function(records)
        assert got["f0"] == (2000, 2000.0)

    def test_weight_never_leaks_into_output_keys(self):
        _, records = run_workload(
            {"sampling.probability": "0.5", "sampling.seed": "3"}
        )
        for r in records:
            assert "sample.weight" not in [label for label, _ in r.items()]

    def test_stats_record_reports_sampling(self):
        channel, _ = run_workload(
            {"sampling.probability": "0.5", "sampling.seed": "3"}
        )
        entries = {label: v for label, v in channel.stats_record().items()}
        assert "observe.snapshots.sampled_out" in entries
        assert entries["observe.snapshots.sampled_out"].value > 0
        assert "observe.sampling.probability" in entries
        assert entries["observe.sampling.probability"].value == pytest.approx(0.5)

    def test_sampled_time_sums_stay_unbiased(self):
        # The timer must not attribute a dropped interval to the next kept
        # snapshot: weighted sums would otherwise overcount.
        _, records = run_workload(
            {"sampling.probability": "0.3", "sampling.seed": "17"},
            iterations=6000,
        )
        got = by_function(records)
        total = sum(dur for _, dur in got.values())
        assert total == pytest.approx(6000.0, rel=0.12)


class TestAdaptiveBudget:
    def test_budget_drives_probability_down(self):
        channel, records = run_workload(
            {
                "sampling.budget": "50ns",
                "sampling.seed": "5",
                "sampling.control_interval": "256",
                "sampling.probe_every": "16",
            },
            iterations=12000,
        )
        sampler = channel.sampler
        assert sampler is not None
        stats = sampler.stats()
        assert stats["control_steps"] > 0
        # Python snapshot costs are microseconds; a 50ns budget must thin
        # aggressively.
        assert sampler.probability < 0.5
        assert channel.num_sampled_out > 0
        # aggregates still count-scale back to the truth
        got = by_function(records)
        assert sum(c for c, _ in got.values()) == pytest.approx(12000, rel=0.2)

    def test_budget_ratio_accepted(self):
        channel, _ = run_workload(
            {"sampling.budget_ratio": "0.05", "sampling.seed": "5"},
            iterations=2000,
        )
        assert channel.sampler is not None
        assert channel.sampler.controller.budget_ratio == pytest.approx(0.05)

    def test_auto_budget_waits_for_adoption(self):
        channel, _ = run_workload(
            {"sampling.budget": "auto", "sampling.seed": "5"}, iterations=500
        )
        sampler = channel.sampler
        assert sampler is not None
        assert sampler.controller.budget_ns is None
        assert sampler.adopt_budget_ns(300.0)
        assert sampler.controller.budget_ns == 300.0
        # a second advertisement does not override silently-adopted state...
        assert not sampler.adopt_budget_ns(900.0) or (
            sampler.controller.budget_ns in (300.0, 900.0)
        )

    def test_local_budget_wins_over_adoption(self):
        channel, _ = run_workload(
            {"sampling.budget": "100ns", "sampling.seed": "5"}, iterations=200
        )
        assert not channel.sampler.adopt_budget_ns(999.0)
        assert channel.sampler.controller.budget_ns == 100.0

    def test_per_attribute_mode_tracks_keys(self):
        channel, records = run_workload(
            {
                "sampling.budget": "50ns",
                "sampling.attribute": "function",
                "sampling.seed": "5",
                "sampling.control_interval": "256",
                # the controller probes real wall-clock cost, so how low p
                # goes depends on machine load; floor it so enough events
                # survive for the rel=0.2 count assertions regardless
                "sampling.min_probability": "0.05",
            },
            iterations=8000,
            functions=("hot", "hot", "hot", "rare"),
        )
        got = by_function(records)
        assert set(got) == {"hot", "rare"}
        assert got["hot"][0] == pytest.approx(6000, rel=0.2)
        assert got["rare"][0] == pytest.approx(2000, rel=0.2)


class TestSchema:
    def test_sampling_keys_validate(self):
        validate_config(
            {
                "sampling.budget": "200ns",
                "sampling.budget_ratio": 0.05,
                "sampling.probability": 0.5,
                "sampling.attribute": "function",
                "sampling.min_probability": 0.001,
                "sampling.probe_every": 64,
                "sampling.control_interval": 1024,
                "sampling.max_step": 4.0,
                "sampling.smoothing": 0.5,
                "sampling.seed": 42,
            }
        )

    def test_unknown_sampling_key_suggests(self):
        with pytest.raises(ConfigError, match="sampling.budget"):
            validate_config({"sampling.budgte": "200ns"})

    def test_bad_budget_raises_config_error(self):
        with pytest.raises(ConfigError):
            run_workload({"sampling.budget": "garbage"}, iterations=1)

    def test_bad_ratio_raises_config_error(self):
        with pytest.raises(ConfigError):
            run_workload({"sampling.budget_ratio": "2.0"}, iterations=1)
