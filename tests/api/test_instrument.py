"""The public instrumentation facade (repro.api.instrument)."""

from __future__ import annotations

import pytest

from repro.api import instrument
from repro.runtime.clock import VirtualClock
from repro.runtime.instrumentation import Caliper, set_default_runtime

SCHEME = "AGGREGATE count, sum(time.duration) GROUP BY function"


@pytest.fixture()
def runtime():
    clock = VirtualClock()
    cali = Caliper(clock=clock)
    cali.create_channel(
        "test",
        {
            "services": ["event", "timer", "aggregate"],
            "aggregate.config": SCHEME,
            "aggregate.rename_count": False,
        },
    )
    set_default_runtime(cali)
    yield cali, clock
    set_default_runtime(None)


def by_group(records, key="function"):
    out = {}
    for record in records:
        entries = {label: v for label, v in record.items()}
        if key in entries:
            out[entries[key].to_string()] = entries
    return out


class TestRegion:
    def test_context_manager_balances(self, runtime):
        cali, clock = runtime
        with instrument.region("solve", attribute="function"):
            clock.advance(5.0)
        got = by_group(cali.channels["test"].finish())
        assert got["solve"]["count"].value == 1
        assert got["solve"]["sum#time.duration"].value == pytest.approx(5.0)

    def test_ends_on_exception(self, runtime):
        cali, clock = runtime
        with pytest.raises(RuntimeError):
            with instrument.region("boom", attribute="function"):
                clock.advance(1.0)
                raise RuntimeError("inner failure")
        # region closed despite the exception: a second region still nests
        # at top level
        with instrument.region("after", attribute="function"):
            clock.advance(2.0)
        got = by_group(cali.channels["test"].finish())
        assert set(got) == {"boom", "after"}

    def test_explicit_runtime_overrides_default(self):
        clock = VirtualClock()
        cali = Caliper(clock=clock)
        cali.create_channel(
            "own",
            {
                "services": ["event", "timer", "aggregate"],
                "aggregate.config": SCHEME,
                "aggregate.rename_count": False,
            },
        )
        with instrument.region("r", attribute="function", runtime=cali):
            clock.advance(3.0)
        got = by_group(cali.channels["own"].finish())
        assert got["r"]["count"].value == 1


class TestFunctionDecorator:
    def test_bare_decorator_uses_qualname(self, runtime):
        cali, clock = runtime

        @instrument.function
        def kernel():
            clock.advance(2.0)

        kernel()
        kernel()
        got = by_group(cali.channels["test"].finish())
        (name,) = got
        assert name.endswith("kernel")
        assert got[name]["count"].value == 2

    def test_parameterized_decorator(self, runtime):
        cali, clock = runtime

        @instrument.function("custom-name")
        def kernel():
            clock.advance(1.0)

        kernel()
        got = by_group(cali.channels["test"].finish())
        assert got["custom-name"]["count"].value == 1

    def test_wraps_preserves_metadata(self):
        @instrument.function
        def documented():
            """docstring survives."""

        assert documented.__name__ == "documented"
        assert documented.__doc__ == "docstring survives."

    def test_return_value_and_exception_passthrough(self, runtime):
        @instrument.function
        def answer():
            return 42

        @instrument.function
        def broken():
            raise KeyError("x")

        assert answer() == 42
        with pytest.raises(KeyError):
            broken()


class TestSet:
    def test_set_annotates_snapshots(self, runtime):
        cali, clock = runtime
        instrument.set("phase", "warmup")
        with instrument.region("r", attribute="function"):
            clock.advance(1.0)
        records = cali.channels["test"].finish()
        assert records  # annotation routed without error
