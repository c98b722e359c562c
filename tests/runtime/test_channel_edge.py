"""Edge-case tests for channels and the service registry."""

import pytest

from repro.common import ChannelError, Record, ServiceError
from repro.runtime import Caliper, Service, ServiceRegistry, VirtualClock
from repro.runtime.services.base import default_service_registry


class TestServiceRegistry:
    def test_nameless_service_rejected(self):
        class Nameless(Service):
            pass

        with pytest.raises(ServiceError, match="no name"):
            ServiceRegistry().register(Nameless)

    def test_duplicate_service_rejected(self):
        class Svc(Service):
            name = "dup"

        reg = ServiceRegistry()
        reg.register(Svc)
        with pytest.raises(ServiceError, match="already registered"):
            reg.register(Svc)

    def test_known_and_contains(self):
        reg = default_service_registry()
        assert "aggregate" in reg
        assert "event" in reg.known()

    def test_custom_service_in_channel(self):
        class CountingService(Service):
            name = "counting"

            def __init__(self, channel):
                super().__init__(channel)
                self.seen = 0

            def process(self, record: Record) -> None:
                self.seen += 1

        reg = ServiceRegistry()
        reg.register(CountingService)
        for cls_name in ("event", "trace"):
            reg.register(type(default_service_registry().create(cls_name, _dummy_channel())))

        cali = Caliper(clock=VirtualClock())
        chan = cali.create_channel(
            "custom", {"services": ["event", "counting"]}, registry=reg
        )
        with cali.region("function", "f"):
            pass
        assert chan.service("counting").seen == 2

    def test_overrides_detection(self):
        class OnlyProcess(Service):
            name = "p"

            def process(self, record):
                pass

        assert OnlyProcess.overrides("process")
        assert not OnlyProcess.overrides("on_begin")
        assert not OnlyProcess.overrides("poll")


def _dummy_channel():
    cali = Caliper(clock=VirtualClock())
    return cali.create_channel("dummy", {"services": []})


class TestChannelEdge:
    def test_service_lookup_unknown(self):
        cali = Caliper()
        chan = cali.create_channel("c", {"services": ["trace"]})
        with pytest.raises(ChannelError, match="no service"):
            chan.service("aggregate")

    def test_inactive_channel_drops_snapshots(self):
        cali = Caliper(clock=VirtualClock())
        chan = cali.create_channel("c", {"services": ["trace"]})
        chan.active = False
        chan.push_snapshot()
        assert chan.num_snapshots == 0

    def test_remove_channel(self):
        cali = Caliper()
        cali.create_channel("c", {"services": ["trace"]})
        cali.remove_channel("c")
        assert "c" not in cali.channels
        cali.remove_channel("c")  # idempotent

    def test_repr_smoke(self):
        cali = Caliper()
        chan = cali.create_channel("c", {"services": ["trace"]})
        assert "trace" in repr(chan)


class TestChannelSelfProfiling:
    def test_suppressed_snapshots_counted(self):
        cali = Caliper(clock=VirtualClock())
        chan = cali.create_channel("c", {"services": ["trace"]})
        chan.push_snapshot()
        chan.active = False
        chan.push_snapshot()
        chan.push_snapshot()
        assert chan.num_snapshots == 1
        assert chan.num_suppressed == 2

    def test_flush_seconds_accumulate(self):
        cali = Caliper(clock=VirtualClock())
        chan = cali.create_channel("c", {"services": ["trace"]})
        assert chan.flush_seconds == 0.0
        chan.flush()
        once = chan.flush_seconds
        assert once > 0.0
        chan.flush()
        assert chan.flush_seconds > once

    def test_stats_record_core_fields(self):
        cali = Caliper(clock=VirtualClock())
        chan = cali.create_channel("c", {"services": ["trace"]})
        chan.push_snapshot()
        chan.active = False
        chan.push_snapshot()
        chan.flush()
        rec = chan.stats_record()
        assert rec.get("observe.kind").value == "channel"
        assert rec.get("observe.channel").value == "c"
        assert rec.get("observe.active").value is False
        assert rec.get("observe.snapshots").value == 1
        assert rec.get("observe.snapshots.suppressed").value == 1
        assert rec.get("observe.flush.time").value > 0.0

    def test_stats_record_includes_aggregate_service_stats(self):
        cali = Caliper(clock=VirtualClock())
        chan = cali.create_channel(
            "agg",
            {
                "services": ["event", "timer", "aggregate"],
                "aggregate.config": "AGGREGATE count, sum(time.duration) "
                "GROUP BY function",
            },
        )
        with cali.region("function", "f"):
            pass
        with cali.region("function", "g"):
            pass
        rec = chan.stats_record()
        assert rec.get("observe.aggregate.db.threads").value == 1
        # groups "f", "g", plus the unkeyed group from end-of-region
        # snapshots (taken after the blackboard popped the function entry)
        assert rec.get("observe.aggregate.db.entries").value == 3
        assert rec.get("observe.aggregate.db.key_misses").value == 1
        assert rec.get("observe.aggregate.db.processed").value == 4
        assert rec.get("observe.aggregate.db.memory_footprint").value > 0
        assert rec.get("observe.aggregate.db.wire_size").value > 0

    def test_stats_record_is_calql_queryable(self):
        from repro.io import Dataset

        cali = Caliper(clock=VirtualClock())
        names = ("one", "two")
        for name in names:
            chan = cali.create_channel(name, {"services": ["trace"]})
            chan.push_snapshot()
        records = [cali.channels[name].stats_record() for name in names]
        res = Dataset(records).query(
            "AGGREGATE sum(observe.snapshots) GROUP BY observe.kind"
        )
        assert res.rows(["sum#observe.snapshots"]) == [(2,)]

