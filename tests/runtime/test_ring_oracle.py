"""The exact ring oracle: an aggregate channel's rows == the trace folded.

An ``event,timer,aggregate`` channel writes one ring row per snapshot and
folds the ring into a per-thread :class:`StateTable`; the reference is the
generic ``AggregationDB`` fold of what an ``event,timer,trace`` channel on
the same runtime retained.  Under a :class:`VirtualClock` both see the same
snapshots, so the finished profiles must agree row for row, keyed by the
GROUP BY columns, and in ``exact()`` form (Variant type and double bits).

The ring capacity is patched down so every program crosses it several
times; programs flush and read stats mid-run, set NaN, ±0.0 and int/double
twin values, carry ``event.mark`` and explicit ``extra`` entries, and run
under a WHERE, ``timer.inclusive`` and a 0.5 sampling probability.
"""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregationDB, StateTable
from repro.calql import parse_scheme
from repro.common import ValueType, Variant
from repro.runtime import Caliper, VirtualClock
from repro.runtime.services import aggregate as aggregate_service

from ..conftest import examples
from ..query.test_column_fold import exact

SCHEME = (
    "AGGREGATE count, sum(time.duration), min(time.duration), "
    "max(time.inclusive.duration), avg(phase), first(event.begin#function) "
    "GROUP BY function, phase"
)
WHERE = " WHERE not(function=io)"
KEY = ("function", "phase")

#: phase values: fresh objects on every set, so identity never groups them
_PHASES = [
    lambda: Variant(ValueType.INT, 1),
    lambda: Variant.double(1.0),
    lambda: Variant.double(float("nan")),
    lambda: Variant.double(0.0),
    lambda: Variant.double(-0.0),
    lambda: Variant.double(2.5),
]

_steps = st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(["main", "solve", "io"])),
    st.tuples(st.just("end")),
    st.tuples(st.just("set"), st.integers(0, len(_PHASES) - 1)),
    st.tuples(st.just("snap")),
    st.tuples(st.just("extra"), st.integers(0, len(_PHASES) - 1)),
    st.tuples(st.just("tick"), st.sampled_from([0.25, 0.5, 2.0])),
    st.tuples(st.just("flush")),
    st.tuples(st.just("stats")),
)


def keyed(records):
    """Records by their GROUP BY values (a NaN by bits), each as sorted
    ``(label, type, value or bits)`` entries."""
    from ..query.test_column_fold import exact_value

    def key_of(record):
        return tuple(
            None if record.get(label).is_empty else exact_value(record.get(label))
            for label in KEY
        )

    out = {}
    for record in records:
        k = key_of(record)
        assert k not in out, f"two rows for key {k}"
        out[k] = sorted((label, *exact_value(v)) for label, v in record.items())
    return out


def run(cali, clk, program):
    depth = 0
    for step in program:
        kind = step[0]
        if kind == "begin":
            cali.begin("function", step[1])
            depth += 1
        elif kind == "end":
            if depth:
                cali.end("function")
                depth -= 1
        elif kind == "set":
            cali.set("phase", _PHASES[step[1]]())
        elif kind == "snap":
            cali.push_snapshot()
        elif kind == "extra":
            cali.push_snapshot({"phase": _PHASES[step[1]]()})
        elif kind == "tick":
            clk.advance(step[1])
        elif kind == "flush":
            cali.channels["online"].flush()
        else:
            cali.channels["online"].stats_record()
    for _ in range(depth):
        cali.end("function")


@pytest.mark.parametrize("sampled", [False, True], ids=["unsampled", "sampled"])
@pytest.mark.parametrize("marked", [False, True], ids=["plain", "where-marked"])
@given(program=st.lists(_steps, max_size=60))
@settings(max_examples=examples(20), deadline=None)
def test_ring_equals_trace_folded(sampled, marked, program):
    """``marked``: a WHERE clause and ``event.mark`` entries on every
    snapshot (rows read from record-shaped entries); else rows read from
    the live blackboard, but for the explicit ``extra`` snapshots."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aggregate_service, "RING_CAPACITY", 3)
        check_ring(sampled, marked, program)


def check_ring(sampled, marked, program):
    text = SCHEME + (WHERE if marked else "")
    clk = VirtualClock()
    cali = Caliper(clock=clk)
    common = {"timer.inclusive": True, "event.mark": marked, "event.trigger_set": True}
    if sampled:
        common.update({"sampling.probability": 0.5, "sampling.seed": 11})
    online = cali.create_channel(
        "online",
        {**common, "services": ["event", "timer", "aggregate"],
         "aggregate.config": text, "aggregate.rename_count": False},
    )
    # aggregate beside a retaining service: rows filled from records
    both = cali.create_channel(
        "both",
        {**common, "services": ["event", "timer", "aggregate", "trace"],
         "aggregate.config": text, "aggregate.rename_count": False},
    )
    trace = cali.create_channel("trace", {**common, "services": ["event", "timer", "trace"]})
    run(cali, clk, program)

    retained = trace.finish()
    reference = AggregationDB(parse_scheme(text), fold_plan="generic")
    for record in retained:
        reference.process(record)
    want = reference.flush()
    for channel in (online, both):
        assert channel.num_snapshots == trace.num_snapshots
        service = channel.service("aggregate")
        (table,) = service.databases() or (StateTable(reference.scheme),)
        assert exact(table) == exact(reference)
        assert keyed(service.flush()) == keyed(want)
        channel.finish()
        stats = channel.stats_record()
        assert stats.get("observe.aggregate.db.offered").value == reference.num_offered
        assert stats.get("observe.aggregate.db.processed").value == reference.num_processed
        assert stats.get("observe.aggregate.db.entries").value == reference.num_entries


def test_nan_set_three_times_is_one_group():
    """``set("x", nan)`` three times: one NaN group, as the reference has."""
    clk = VirtualClock()
    cali = Caliper(clock=clk)
    chan = cali.create_channel(
        "t", {"services": ["event", "aggregate"], "aggregate.config": "AGGREGATE count GROUP BY x",
              "event.trigger_set": True},
    )
    for _ in range(4):
        cali.set("x", Variant.double(float("nan")))
    rows = chan.finish()
    nans = [r for r in rows if not r.get("x").is_empty and math.isnan(r.get("x").value)]
    assert [r.get("aggregate.count").value for r in nans] == [3]
    assert len(rows) == 2  # the first set's snapshot is taken before x exists


def test_states_payload_ships_the_tables_export(monkeypatch):
    """``netflush.payload=states``: the per-thread table goes through
    ``send_states`` as its ``to_binary()``; the server's drain equals
    the reference fold of the traced snapshots exactly."""
    from repro.net import AggregationServer

    monkeypatch.setattr(aggregate_service, "RING_CAPACITY", 4)
    scheme = "AGGREGATE count, sum(time.duration), max(time.duration) GROUP BY function"
    with AggregationServer(scheme, shards=2) as server:
        clk = VirtualClock()
        cali = Caliper(clock=clk)
        chan = cali.create_channel(
            "net", {"services": ["event", "timer", "aggregate", "netflush"],
                    "aggregate.config": scheme, "aggregate.rename_count": False,
                    "netflush.port": server.port, "netflush.payload": "states",
                    "netflush.scheme": scheme},
        )
        trace = cali.create_channel("trace", {"services": ["event", "timer", "trace"]})
        for i in range(23):
            with cali.region("function", ["solve", "io", "init"][i % 3]):
                clk.advance(0.25 * (i % 5))
        chan.finish()
        got = server.drain_results()
    reference = AggregationDB(parse_scheme(scheme), fold_plan="generic")
    for record in trace.finish():
        reference.process(record)
    assert keyed_by_function(got) == keyed_by_function(reference.flush())


def keyed_by_function(records):
    from ..query.test_column_fold import exact_value

    return {
        None if r.get("function").is_empty else r.get("function").value:
            sorted((label, *exact_value(v)) for label, v in r.items())
        for r in records
    }


def test_threads_count_every_event_once(monkeypatch):
    """Two producer threads append rows while a third flushes and reads
    stats: every snapshot is folded exactly once, none lost or doubled."""
    monkeypatch.setattr(aggregate_service, "RING_CAPACITY", 64)
    cali = Caliper()
    chan = cali.create_channel(
        "mt", {"services": ["event", "timer", "aggregate"],
               "aggregate.config": "AGGREGATE count, sum(time.duration) GROUP BY function"},
    )
    rounds = 4000
    done = threading.Event()

    def produce(name):
        for i in range(rounds):
            with cali.region("function", f"{name}{i % 7}"):
                pass

    def read():
        while not done.is_set():
            chan.flush()
            chan.stats_record()

    producers = [threading.Thread(target=produce, args=(n,)) for n in ("a", "b")]
    reader = threading.Thread(target=read)
    reader.start()
    for t in producers:
        t.start()
    for t in producers:
        t.join()
    done.set()
    reader.join()
    rows = chan.finish()
    total = sum(r.get("aggregate.count").value for r in rows)
    assert total == chan.num_snapshots == 2 * 2 * rounds
    per_thread = {}
    for r in rows:
        tid = r.get("thread.id").value
        per_thread[tid] = per_thread.get(tid, 0) + r.get("aggregate.count").value
    assert sorted(per_thread.values()) == [2 * rounds, 2 * rounds]
    stats = chan.stats_record()
    assert stats.get("observe.aggregate.db.offered").value == 4 * rounds


def test_kept_probes_carry_the_rows_drain_share(monkeypatch):
    """A kept event's cost probe adds its thread's drain seconds per row,
    the fold its row causes later on whichever event fills the ring."""
    monkeypatch.setattr(aggregate_service, "RING_CAPACITY", 4)
    cali = Caliper(clock=VirtualClock())
    chan = cali.create_channel(
        "c", {"services": ["event", "timer", "aggregate"],
              "aggregate.config": "AGGREGATE count GROUP BY function",
              "sampling.probability": 0.5, "sampling.seed": 3,
              "sampling.probe_every": 1},
    )
    service, sampler = chan.service("aggregate"), chan.sampler
    share, kept = [], []
    record = sampler.record_kept_probe

    def record_kept_probe(seconds):
        share.append(service.thread_row_cost()())
        kept.append(seconds)
        record(seconds)

    monkeypatch.setattr(sampler, "record_kept_probe", record_kept_probe)
    for i in range(40):
        with cali.region("function", ["solve", "io"][i % 2]):
            pass
    ring = service.thread_ring()
    assert ring.drained >= 4 and ring.drain_seconds > 0.0
    assert share[0] == 0.0 and share[-1] == ring.drain_seconds / ring.drained
    assert all(k >= s > 0.0 for k, s in zip(kept, share) if s)
