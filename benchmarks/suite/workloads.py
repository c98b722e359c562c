"""Seeded input generators and the four benchmark workloads.

Every input is made from ``--seed`` with :class:`random.Random`: the same
seed gives byte-identical inputs, and the program under test only ever sees
the generated inputs, never the seed (the sampling gate's own RNG seed is the
one exception — it is program configuration, like a port number).

A workload object lives for one *repetition*: ``setup()`` (timed by the
harness as one ``setup_s`` sample), ``measure(out)`` (the timed sections,
reporting samples by metric name), ``verify()`` (oracle comparison into the
ledger), ``teardown()``, and — on traced runs — ``replay(out, base)``, the staged
replay that drives the same generated batches through each layer's public
function in isolation.  Sizes are per repetition; the harness repeats until
``--seconds`` is used up (never fewer than three repetitions).

Why these four, and which layers each one exercises and bypasses, is
recorded per workload in ``BENCHMARK.json`` and in the README.
"""

from __future__ import annotations

import io
import os
import random
import statistics
import threading
import time
from collections import deque
from typing import Callable, Optional

from oracle import Ledger, compare_rows, query_rows, reference_rows
from speed import MachineSpeed
from tracing import Tracer

from repro.api import instrument
from repro.calql import parse_scheme
from repro.common import Record, Variant
from repro.runtime import Caliper, set_default_runtime

__all__ = ["WORKLOADS", "SIZES", "SMOKE_SIZES", "Samples"]

# -- sizes (per repetition) ------------------------------------------------------

SIZES = {
    "online_regions": {"events": 150_000, "iteration_values": 32},
    "stream_tree": {"records_per_client": 15_000, "kernels": 40, "ranks": 64},
    "live_windowed": {
        "ticks": 200,
        "tick_s": 0.025,
        "records_per_tick": 150,
        "burst_records": 12_000,
        "kernels": 20,
    },
    "offline_query": {"files": 8, "records_per_file": 15_000, "warm_rounds": 3, "cold_runs": 2},
}

SMOKE_SIZES = {
    "online_regions": {"events": 6_000, "iteration_values": 8},
    "stream_tree": {"records_per_client": 1_500, "kernels": 10, "ranks": 8},
    "live_windowed": {
        "ticks": 70,
        "tick_s": 0.025,
        "records_per_tick": 40,
        "burst_records": 1_000,
        "kernels": 5,
    },
    "offline_query": {"files": 3, "records_per_file": 1_500, "warm_rounds": 1, "cold_runs": 1},
}


# -- sample collection -------------------------------------------------------------


class Samples:
    """Per-metric sample lists pooled across repetitions.

    Times and rates are stored scaled to the reference machine speed (see
    ``speed.py``) with the raw reading kept beside them; everything else is
    stored as measured.
    """

    def __init__(self) -> None:
        self.values: dict[str, list] = {}
        self.raw: dict[str, list] = {}

    def add(self, name: str, value) -> None:
        self.values.setdefault(name, []).append(value)

    def add_time(self, name: str, value: float, factor: float) -> None:
        self.values.setdefault(name, []).append(value * factor)
        self.raw.setdefault(name, []).append(value)

    def add_times(self, name: str, values, factor: float) -> None:
        for value in values:
            self.add_time(name, value, factor)

    def add_rate(self, name: str, value: float, factor: float) -> None:
        self.values.setdefault(name, []).append(value / factor)
        self.raw.setdefault(name, []).append(value)

    def get(self, name: str) -> list:
        return self.values.get(name, [])

    def median(self, name: str) -> Optional[float]:
        values = [v for v in self.get(name) if v is not None]
        return statistics.median(values) if values else None


def _seconds_per_call(func: Callable[[], object], speed: MachineSpeed,
                      min_time: float = 0.12, min_rounds: int = 5) -> float:
    """Median wall seconds of ``func()`` over enough rounds to fill
    ``min_time``, scaled to the reference machine speed."""
    times = []
    spent = 0.0
    before = speed.sample()
    while len(times) < min_rounds or spent < min_time:
        t0 = time.perf_counter()
        func()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
        if len(times) >= 200:
            break
    return statistics.median(times) * (before + speed.sample()) / 2.0


#: a staged-replay stage reports null when its public function no longer
#: exists or changed shape, or when a stage it feeds on was itself skipped
_STAGE_GONE = (ImportError, AttributeError, TypeError, KeyError)


def _drain(function: Callable, items) -> None:
    """Call ``function`` on every item with no per-item bytecode of ours."""
    deque(map(function, items), maxlen=0)


# -- generators ----------------------------------------------------------------------


def region_program(seed: int, events: int, iteration_values: int) -> list[list]:
    """A seeded instrumented-program trace, one op list per outer iteration.

    Ops: an ``int`` sets the ``iteration`` attribute, a ``str`` begins a
    ``function`` region, ``None`` ends the innermost one.  The call tree is
    the same for every seed (main -> 5 phases -> 4 kernels each, two of them
    with one inner region: depth <= 4, 36 paths) and only the walk through it
    is random, so every seed does the same amount of work.  ``iteration``
    cycles through ``iteration_values`` values: a full-size run holds
    37 x 32 = 1184 distinct ``function x iteration`` keys.  Each ``set``
    installs a fresh value object, so the runtime's identity-keyed key cache
    misses on the first visit of every path in every iteration and hits on
    the repeats.
    """
    rng = random.Random(seed)
    phases = [
        (
            f"phase{p}",
            [(f"kernel{p}.{k}", f"inner{p}.{k}" if k % 2 == 0 else None) for k in range(4)],
        )
        for p in range(5)
    ]
    program: list[list] = []
    total = 0
    while total < events:
        ops: list = [len(program) % iteration_values, "main"]
        for phase, kernels in phases:
            if rng.random() < 0.2:
                continue
            ops.append(phase)
            for _ in range(rng.randint(2, 6)):
                kernel, inner = kernels[rng.randrange(len(kernels))]
                ops.append(kernel)
                if inner is not None and rng.random() < 0.5:
                    ops.append(inner)
                    ops.append(None)
                ops.append(None)
            ops.append(None)
        ops.append(None)
        program.append(ops)
        total += len(ops)
    return program


def region_event_counts(program: list[list]) -> dict[tuple, int]:
    """Snapshots per ``(function path, iteration)`` key the trace must produce.

    Event snapshots are taken *before* the blackboard update, so a begin or
    end event is attributed to the path that was open when it fired.
    """
    counts: dict[tuple, int] = {}
    path: list[str] = []
    iteration = None
    for ops in program:
        for op in ops:
            if op is None or op.__class__ is str:
                key = ("/".join(path) if path else None, iteration)
                counts[key] = counts.get(key, 0) + 1
                if op is None:
                    path.pop()
                else:
                    path.append(op)
            else:
                iteration = op
    return counts


def _zipf_picks(rng: random.Random, n_values: int, n: int) -> list[int]:
    weights = [1.0 / (i + 1) for i in range(n_values)]
    return rng.choices(range(n_values), weights=weights, k=n)


def snapshot_records(seed: int, n: int, kernels: int, ranks: int) -> list[Record]:
    """Snapshot-shaped records: Zipf kernel x uniform rank, lognormal durations."""
    rng = random.Random(seed)
    kernel_values = [Variant.of(f"kernel-{i:02d}") for i in range(kernels)]
    rank_values = [Variant.of(r) for r in range(ranks)]
    picks = _zipf_picks(rng, kernels, n)
    return [
        Record.from_variants(
            {
                "kernel": kernel_values[picks[i]],
                "mpi.rank": rank_values[rng.randrange(ranks)],
                "time.duration": Variant.of(rng.lognormvariate(-7.0, 1.0)),
            }
        )
        for i in range(n)
    ]


def rank_file_records(seed: int, rank: int, n: int) -> list[Record]:
    """One rank's off-line profile: kernel, mpi.rank, amr.level, iteration, time."""
    rng = random.Random(seed * 1009 + rank)
    kernel_values = [Variant.of(f"kernel-{i:02d}") for i in range(40)]
    level_values = [Variant.of(i) for i in range(4)]
    iteration_values = [Variant.of(i) for i in range(50)]
    rank_value = Variant.of(rank)
    picks = _zipf_picks(rng, 40, n)
    return [
        Record.from_variants(
            {
                "kernel": kernel_values[picks[i]],
                "mpi.rank": rank_value,
                "amr.level": level_values[rng.randrange(4)],
                "iteration": iteration_values[rng.randrange(50)],
                "time.duration": Variant.of(rng.lognormvariate(-7.0, 1.0)),
            }
        )
        for i in range(n)
    ]


class TimedStream:
    """The live workload's event-time stream: ticks, stragglers, late drops.

    Event time is the due time relative to the run start plus ``BASE``.
    Each tick carries its in-order records plus ~2% stragglers that are 1-3
    ticks old (inside the lateness bound: they must fold) and ~0.2% records
    0.7-1.0 s old (beyond the 0.5 s bound: they must be dropped and
    counted).  ``accepted`` lists exactly the records the server has to
    fold; ``late`` counts the ones it has to refuse.
    """

    BASE = 10.0
    LATENESS = 0.5

    def __init__(self, seed: int, ticks: int, tick_s: float, per_tick: int,
                 burst: int, kernels: int) -> None:
        rng = random.Random(seed)
        kernel_values = [Variant.of(f"k{i:02d}") for i in range(kernels)]
        self.tick_s = tick_s
        self.accepted: list[Record] = []
        self.late = 0

        def record(t: float) -> Record:
            return Record.from_variants(
                {
                    "kernel": kernel_values[rng.randrange(kernels)],
                    "time.start": Variant.of(t),
                    "time.duration": Variant.of(rng.lognormvariate(-7.0, 1.0)),
                }
            )

        step = tick_s / per_tick
        #: sent in set-up to connect the writer; one tick before tick 0
        self.warmup = [record(self.BASE - tick_s + j * step) for j in range(per_tick)]
        self.accepted.extend(self.warmup)
        self.ticks: list[list[Record]] = []
        #: newest event time of each tick (what a fresh answer must reflect)
        self.newest: list[float] = []
        for i in range(ticks):
            t0 = self.BASE + i * tick_s
            batch = []
            for j in range(per_tick):
                roll = rng.random()
                if roll < 0.002 and i * tick_s >= 1.2:
                    batch.append(record(t0 - rng.uniform(0.7, 1.0)))
                    self.late += 1
                    continue
                if roll < 0.022 and i >= 3:
                    rec = record(t0 - rng.randint(1, 3) * tick_s + j * step)
                else:
                    rec = record(t0 + j * step)
                batch.append(rec)
                self.accepted.append(rec)
            # the tick's last record is always in order, so it is the newest
            last = record(t0 + (per_tick - 1) * step + step / 2)
            batch.append(last)
            self.accepted.append(last)
            self.ticks.append(batch)
            self.newest.append(last.get("time.start").value)
        t0 = self.BASE + ticks * tick_s
        self.burst = [record(t0 + j * step) for j in range(burst)]
        self.accepted.extend(self.burst)
        self.burst_newest = self.burst[-1].get("time.start").value


# -- workload base --------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: dict, tracer: Tracer, ledger: Ledger,
                 workdir: str, speed: MachineSpeed, oracle_cache: dict) -> None:
        self.speed = speed
        #: the run's oracle rows: every repetition regenerates the same
        #: inputs, so the serial reference is computed once per run
        self._oracle_cache = oracle_cache
        self.seed = seed
        self.sizes = sizes
        #: a disabled tracer on untraced repetitions (a traced run alternates
        #: the two: the untraced ones are trace.overhead_frac's baseline)
        self.tracer = tracer
        self.traced = tracer.enabled
        self.ledger = ledger
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, out: Samples) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def replay(self, out: Samples, base: Samples) -> None:
        """Staged replay of the layers: once per traced run, before teardown.

        ``out`` takes the stage values; ``base`` holds the untraced
        repetitions' samples (the end-to-end figures a stage is set against).
        """

    def _oracle(self, build: Callable[[], object]):
        if "rows" not in self._oracle_cache:
            self._oracle_cache["rows"] = build()
        return self._oracle_cache["rows"]

    def _time(self, once: Callable[[], object], per: float = 1.0, scale: float = 1.0,
              **timing) -> float:
        """Median wall time of ``once()`` per ``per`` items, times ``scale``."""
        return _seconds_per_call(once, self.speed, **timing) / per * scale

    def _stage(self, out: Samples, name: str, thunk: Callable[[], float]) -> Optional[float]:
        """Run one staged-replay stage; ``thunk`` imports the layer's public
        function itself, so a vanished one gives null instead of a crash."""
        try:
            value = thunk()
        except _STAGE_GONE as exc:
            self.ledger.skipped.append(f"{name}: {type(exc).__name__}: {exc}")
            value = None
        out.add(name, value)
        return value

    @staticmethod
    def _unattributed(out: Samples, name: str, wall: Optional[float], staged: list) -> None:
        """1 - (what the staged stages explain) / (the end-to-end wall)."""
        known = wall is not None and None not in staged
        out.add(name, 1.0 - sum(staged) / wall if known else None)


# -- online_regions ---------------------------------------------------------------------


class OnlineRegions(Workload):
    """Closed loop, 1 thread: annotation events into an in-process channel."""

    name = "online_regions"

    SCHEME = (
        "AGGREGATE count, sum(time.duration), min(time.duration), "
        "max(time.duration) GROUP BY function, iteration"
    )
    FINAL_QUERY = (
        "AGGREGATE sum(aggregate.count), sum(sum#time.duration) "
        "GROUP BY function ORDER BY function"
    )
    BUDGET = "200ns"
    #: the first tenth of the events warms caches (and lets the sampling
    #: controller settle); it is folded and verified but not timed
    WARMUP_FRACTION = 0.10

    def setup(self) -> None:
        self.program = region_program(
            self.seed, self.sizes["events"], self.sizes["iteration_values"]
        )
        self.events = sum(len(ops) for ops in self.program)
        split = 0
        seen = 0
        while seen < self.events * self.WARMUP_FRACTION:
            seen += len(self.program[split])
            split += 1
        self.split = split
        self.timed_events = self.events - seen
        self.channel = self._open_channel({})

    def _open_channel(self, overrides: dict):
        runtime = Caliper()
        set_default_runtime(runtime)
        config = {"services": "event,timer,aggregate", "aggregate.config": self.SCHEME}
        config.update(overrides)
        self.opened_at = time.perf_counter()
        return runtime.create_channel("suite", config)

    @staticmethod
    def _drive(iterations: list[list], first_op: int, tracer: Tracer, label: str) -> None:
        """Replay op lists through the public ``repro.api.instrument`` facade."""
        region, set_attribute = instrument.region, instrument.set
        span = tracer.span
        stack: list = []
        push, pop = stack.append, stack.pop
        for index, ops in enumerate(iterations, start=first_op):
            with span("api.instrument.iteration", op_id=f"{label}.{index}"):
                for op in ops:
                    if op is None:
                        pop().__exit__(None, None, None)
                    elif op.__class__ is str:
                        manager = region(op, "function")
                        manager.__enter__()
                        push(manager)
                    else:
                        set_attribute("iteration", op)

    def _phase(self, channel, label: str) -> dict:
        """Drive the whole program, finish the channel, query the profile."""
        import repro.api

        tracer = self.tracer
        with tracer.span(f"online.{label}", op_id=label):
            self._drive(self.program[: self.split], 0, tracer, label)
            before = self.speed.sample()
            t0 = time.perf_counter()
            self._drive(self.program[self.split:], self.split, tracer, label)
            t1 = time.perf_counter()
            after_events = self.speed.sample()
            stats = {label_: v.value for label_, v in channel.stats_record().items()}
            t1b = time.perf_counter()
            with tracer.span("runtime.channel.finish"):
                flushed = channel.finish()
            t2 = time.perf_counter()
            with tracer.span("api.query"):
                result = repro.api.query(self.FINAL_QUERY, flushed)
            t3 = time.perf_counter()
            with tracer.span("query.to_table"):
                table = result.to_table()
            t4 = time.perf_counter()
            after_query = self.speed.sample()
        self.ledger.op(bool(table), f"{label}: final query rendered nothing")
        return {
            "wall": t1 - t0,
            "flush": t2 - t1b,
            "query": t3 - t2,
            "render": t4 - t3,
            "events_factor": (before + after_events) / 2.0,
            "query_factor": (after_events + after_query) / 2.0,
            "profile_wall": t2 - self.opened_at,
            "flushed": flushed,
            "result": result,
            "stats": stats,
        }

    def measure(self, out: Samples) -> None:
        plain = self._phase(self.channel, "unsampled")
        self.plain = plain
        f_events, f_query = plain["events_factor"], plain["query_factor"]
        out.add_rate("throughput_per_s", self.timed_events / plain["wall"], f_events)
        out.add_time("answer_ms",
                     (plain["flush"] + plain["query"] + plain["render"]) * 1e3, f_query)
        out.add_time("read_ms", (plain["query"] + plain["render"]) * 1e3, f_query)
        out.add_time("ns_per_event", plain["wall"] / self.timed_events * 1e9, f_events)
        out.add_time("runtime.flush_ms", plain["flush"] * 1e3, f_query)
        out.add_time("query.render_ms", plain["render"] * 1e3, f_query)
        stats = plain["stats"]
        hits = stats.get("observe.aggregate.keycache.hits", 0)
        misses = stats.get("observe.aggregate.keycache.misses", 0)
        out.add("aggregate.keycache_hit_ratio", hits / max(hits + misses, 1))
        out.add("aggregate.entries", stats.get("observe.aggregate.db.entries", 0))

        channel = self._open_channel(
            {"sampling.budget": self.BUDGET, "sampling.seed": str(self.seed)}
        )
        sampled = self._phase(channel, "sampled")
        self.sampled = sampled
        out.add_time("timed_wall_s", plain["wall"], f_events)
        out.add_time("sampling.ns_per_event", sampled["wall"] / self.timed_events * 1e9,
                     sampled["events_factor"])
        stats = sampled["stats"]
        kept = stats.get("observe.snapshots", 0)
        dropped = stats.get("observe.snapshots.sampled_out", 0)
        out.add("sampling.keep_probability", stats.get("observe.sampling.probability", 1.0))
        out.add("sampling.sampled_out_frac", dropped / max(kept + dropped, 1))

    def _expected(self):
        counts = region_event_counts(self.program)
        per_key = []
        per_path: dict = {}
        for (path, iteration), n in counts.items():
            entries = {"aggregate.count": n}
            if path is not None:
                entries["function"] = path
            if iteration is not None:
                entries["iteration"] = iteration
            per_key.append(Record(entries))
            per_path[path] = per_path.get(path, 0) + n
        rollup = []
        for path, n in per_path.items():
            entries = {"sum#aggregate.count": n}
            if path is not None:
                entries["function"] = path
            rollup.append(Record(entries))
        return per_key, rollup, per_path

    def verify(self) -> None:
        per_key, rollup, per_path = self._oracle(self._expected)
        plain = self.plain
        self.ledger.rows(
            *compare_rows(plain["flushed"], per_key, ("function", "iteration"),
                          columns=["aggregate.count"]),
            "online profile",
        )
        self.ledger.rows(
            *compare_rows(plain["result"].records, rollup, ("function",),
                          columns=["sum#aggregate.count"]),
            "online final query",
        )
        # Exclusive times partition the channel's life: their sum cannot
        # exceed the wall time between channel creation and finish.
        total = sum(
            r.get("sum#time.duration").value for r in plain["flushed"]
            if not r.get("sum#time.duration").is_empty
        )
        self.ledger.op(
            0.0 < total <= plain["profile_wall"] * (1 + 1e-6),
            f"online time sum {total!r} outside (0, {plain['profile_wall']!r}]",
        )
        # Sampled phase: count-scaled counts estimate the true counts.  What
        # can be held against the program without knowing the controller's
        # probability trajectory is the total: its Horvitz-Thompson estimate
        # over all events must land within a factor 1.5 of the truth (lost
        # or doubled weights miss by 40x).  Per key, the worst relative
        # error on keys with >= 1000 events is reported as
        # sampling.count_err and not failed: the controller was seen to
        # collapse to its 1/4096 floor on some runs, where a single kept
        # event then stands for 4096.
        got = {
            (None if r.get("function").is_empty else r.get("function").value):
                float(r.get("sum#aggregate.count").value)
            for r in self.sampled["result"].records
        }
        true_total = sum(per_path.values())
        ratio = sum(got.values()) / true_total
        self.ledger.op(
            1 / 1.5 <= ratio <= 1.5,
            f"sampled total count is {ratio:.3f} x the true {true_total} events",
        )
        self.count_err = max(
            (abs(got.get(path, 0.0) - true) / true
             for path, true in per_path.items() if true >= 1000),
            default=0.0,
        )

    def teardown(self) -> None:
        set_default_runtime(None)

    # -- staged replay ---------------------------------------------------------------

    def replay(self, out: Samples, base: Samples) -> None:
        out.add("sampling.count_err", self.count_err)
        program = self.program[: max(4, len(self.program) // 8)]
        n_events = sum(len(ops) for ops in program)
        begin_end = sum(1 for ops in program for op in ops if op.__class__ is not int)
        untraced = Tracer(False)

        def facade(config: Optional[dict]) -> Callable[[], None]:
            """The op sequence through ``instrument`` into a fresh runtime with
            this channel (``None``: a disabled runtime, the floor)."""
            def once() -> None:
                runtime = Caliper(enabled=config is not None)
                set_default_runtime(runtime)
                if config is not None:
                    runtime.create_channel("stage", config)
                self._drive(program, 0, untraced, "stage")

            return once

        floor = self._stage(out, "api.instrument_floor_ns",
                            lambda: self._time(facade(None), n_events, 1e9))
        snapshot = self._stage(
            out, "runtime.snapshot_ns",
            lambda: self._time(facade({"services": "event,timer"}), n_events, 1e9) - floor,
        )

        def blackboard() -> float:
            from repro.common import AttrProperty, AttributeRegistry, ValueType
            from repro.runtime import Blackboard

            attribute = AttributeRegistry().create(
                "function", ValueType.STRING, AttrProperty.NESTED
            )
            names = {op: Variant.of(op) for ops in program for op in ops if op.__class__ is str}
            flat = [names.get(op) for ops in program for op in ops if op.__class__ is not int]

            def once() -> None:
                board = Blackboard()
                begin, end = board.begin, board.end
                for value in flat:
                    if value is None:
                        end(attribute)
                    else:
                        begin(attribute, value)

            return self._time(once, len(flat), 1e9)

        self._stage(out, "runtime.blackboard_ns", blackboard)

        # Snapshot-shaped records as the aggregate service sees them.
        keys = [k for k in region_event_counts(program) if None not in k]
        rng = random.Random(self.seed)
        path_values = {path: Variant.of(path) for path, _iteration in keys}
        shaped = []
        for _ in range(4096):
            path, iteration = keys[rng.randrange(len(keys))]
            shaped.append(Record.from_variants({
                "function": path_values[path],
                "iteration": Variant.of(iteration),
                "time.duration": Variant.of(rng.random() * 1e-5),
            }))
        scheme = parse_scheme(self.SCHEME)

        def key_ns() -> float:
            from repro.aggregate import make_extractor

            extract = make_extractor(scheme.key).extract
            return self._time(lambda: _drain(extract, shaped), len(shaped), 1e9)

        self._stage(out, "aggregate.key_ns", key_ns)

        def fold_ns() -> float:
            from repro.aggregate import AggregationDB

            process = AggregationDB(scheme).process
            return self._time(lambda: _drain(process, shaped), len(shaped), 1e9)

        fold = self._stage(out, "aggregate.fold_ns", fold_ns)

        def gate_ns() -> float:
            from repro.sampling import SamplingGate

            decide = SamplingGate(initial=0.05, seed=self.seed).decide
            entries = [{"function": Variant.of("main")}] * 4096
            return self._time(lambda: _drain(decide, entries), len(entries), 1e9)

        self._stage(out, "sampling.gate_ns", gate_ns)

        # fold happens once per snapshot (begin/end), not per set event
        self._unattributed(
            out, "online.unattributed_frac", base.median("ns_per_event"),
            [floor, snapshot, None if fold is None else fold * begin_end / n_events],
        )


# -- stream_tree ----------------------------------------------------------------------


class StreamTree(Workload):
    """Closed loop, 2 client threads / 2 connections into a 2-level tree."""

    name = "stream_tree"

    SCHEME = (
        "AGGREGATE count, sum(time.duration), min(time.duration), "
        "max(time.duration) GROUP BY kernel, mpi.rank"
    )
    ROOT_QUERY = "AGGREGATE sum(count), sum(sum#time.duration) GROUP BY kernel ORDER BY kernel"
    BATCH = 256  # the shipped netflush default
    CHUNK = 4096  # records per push_all call (one span each when traced)
    COMPLETE_TIMEOUT_S = 10.0

    def setup(self) -> None:
        from repro.net import LocalTree

        n = self.sizes["records_per_client"]
        self.streams = [
            snapshot_records(self.seed * 2 + i, n, self.sizes["kernels"], self.sizes["ranks"])
            for i in range(2)
        ]
        self.total = 2 * n
        self.tree = LocalTree(
            self.SCHEME, n_leaves=2, level_sizes=[1, 2], shards=2, forward_interval=0.25
        )
        self.clients = [
            self.tree.leaf_client(
                i, batch_size=self.BATCH, spool_dir=os.path.join(self.workdir, "spool")
            )
            for i in range(2)
        ]
        self.depth_max = 0

    def _push(self, client, records, parent, busy: list, index: int) -> None:
        tracer = self.tracer
        t0 = time.perf_counter()
        ok = True
        try:
            for chunk, start in enumerate(range(0, len(records), self.CHUNK)):
                with tracer.span("net.client.push_all", op_id=f"c{index}.{chunk}", parent=parent):
                    client.push_all(records[start:start + self.CHUNK])
            with tracer.span("net.client.flush", op_id=f"c{index}.flush", parent=parent):
                ok = client.flush()
        except Exception as exc:  # noqa: BLE001 - a client thread must report, not die
            ok = False
            self.ledger.fail(f"client {index}: {type(exc).__name__}: {exc}")
        busy[index] = time.perf_counter() - t0
        self.flushed_ok[index] = ok

    def _watch_depth(self, stop: threading.Event) -> None:
        nodes = self.tree.nodes
        while not stop.wait(0.1):
            for node in nodes:
                node.stats_records()  # refreshes the net.shard.depth gauges
                for shard in range(2):
                    depth = node.metrics.gauge_value("net.shard.depth", shard=shard)
                    if depth is not None and depth > self.depth_max:
                        self.depth_max = depth

    def measure(self, out: Samples) -> None:
        tracer = self.tracer
        busy = [0.0, 0.0]
        self.flushed_ok = [False, False]
        stop = threading.Event()
        watcher = None
        if self.traced:
            watcher = threading.Thread(target=self._watch_depth, args=(stop,), daemon=True)
            watcher.start()
        root = self.tree.root
        try:
            before = self.speed.sample()
            with tracer.span("stream.rep", op_id="stream"):
                t0 = time.perf_counter()
                with tracer.span("stream.ingest") as ingest:
                    threads = [
                        threading.Thread(
                            target=self._push,
                            args=(self.clients[i], self.streams[i], ingest, busy, i),
                        )
                        for i in range(2)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                t_ack = time.perf_counter()
                with tracer.span("net.tree.sync"):
                    synced = self.tree.sync()
                t_sync = time.perf_counter()
                # tree.sync() can return while a relay's own periodic forward
                # cycle still has a delta in flight, so the first root answer
                # may be incomplete: the clock stops at the first complete one
                # and the incomplete ones are counted (net.tree.stale_answers).
                stale = 0
                while True:
                    t_query = time.perf_counter()
                    with tracer.span("net.server.run_query"):
                        result = root.run_query(self.ROOT_QUERY)
                    t_done = time.perf_counter()
                    seen = sum(r.get("sum#count").value for r in result.records)
                    if seen == self.total or t_done - t_sync > self.COMPLETE_TIMEOUT_S:
                        break
                    stale += 1
                    time.sleep(0.005)
            factor = (before + self.speed.sample()) / 2.0
        finally:
            stop.set()
            if watcher is not None:
                watcher.join()
        self.ledger.op(synced, "tree.sync() left deltas spooled")
        self.ledger.op(seen == self.total,
                       f"root answer holds {seen} of {self.total} records "
                       f"{self.COMPLETE_TIMEOUT_S:g} s after sync")
        batches = sum(c.counters["batches"] for c in self.clients)
        undelivered = sum(c.num_spooled for c in self.clients)
        self.ledger.ops(batches, undelivered, "client batches (un-acked or given up)")
        for index, ok in enumerate(self.flushed_ok):
            self.ledger.op(ok, f"client {index} flush() returned False")

        wall = t_done - t0
        out.add_rate("throughput_per_s", self.total / wall, factor)
        # The stream's time to a complete answer.  The drain tail alone (last
        # ACK -> answer) depends on where the relays' forward cycle stands
        # when the last batch lands and spread 23% between invocations; it is
        # reported per layer (net.tree.sync_ms, net.server.root_query_ms).
        out.add_time("answer_ms", wall * 1e3, factor)
        out.add_time("read_ms", (t_done - t_query) * 1e3, factor)
        out.add_time("stream.wall_s", wall, factor)
        out.add_time("timed_wall_s", wall, factor)
        out.add_time("net.client.send_busy_s", statistics.mean(busy), factor)
        out.add_time("net.tree.sync_ms", (t_sync - t_ack) * 1e3, factor)
        out.add_time("net.server.root_query_ms", (t_done - t_query) * 1e3, factor)
        out.add("net.tree.stale_answers", stale)
        out.add("net.client.wire_bytes_per_record",
                sum(c.counters["wire_bytes"] for c in self.clients) / self.total)
        out.add("net.client.retries", sum(
            c.counters["busy"] + c.counters["replayed"] + max(c.counters["reconnects"] - 1, 0)
            for c in self.clients
        ))
        relays = self.tree.levels[-1]
        out.add("net.server.batches",
                sum(n.metrics.counter_value("net.batches", kind="records") for n in relays))
        out.add("net.server.shed", sum(
            n.metrics.counter_value("net.shed") + n.metrics.counter_value("net.duplicates")
            + n.metrics.counter_value("net.errors")
            for n in self.tree.nodes
        ))
        out.add("net.tree.root_rx_bytes_per_record",
                root.metrics.counter_value("net.forward.bytes.rx") / self.total)
        cycles = root.metrics.counter_value("net.batches", kind="forward")
        out.add("net.tree.forward_cycles", cycles)
        self.forward_cycles = cycles
        out.add_time("net.tree.combine_s", sum(
            r.get("observe.combine.seconds").value
            for r in root.stats_records()
            if r.get("observe.kind").value == "tree"
        ), factor)
        if self.traced:
            out.add("net.server.queue_depth_max", self.depth_max)

    def verify(self) -> None:
        want = self._oracle(lambda: reference_rows(self.SCHEME, self.streams))
        got = self.tree.root.drain_results()
        self.groups = len(want)
        self.ledger.rows(*compare_rows(got, want, ("kernel", "mpi.rank")), "tree root result")

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.tree.stop()

    # -- staged replay ---------------------------------------------------------------

    def replay(self, out: Samples, base: Samples) -> None:
        records = self.streams[0]
        batches = [
            records[i:i + self.BATCH]
            for i in range(0, min(len(records), 64 * self.BATCH) - self.BATCH + 1, self.BATCH)
        ]
        n = len(batches)
        scheme = parse_scheme(self.SCHEME)
        state: dict = {}  # each stage's product feeds the next

        def encode() -> float:
            from repro.io.colfile import encode_batch

            def once() -> None:
                state["blobs"] = [encode_batch(b) for b in batches]

            return self._time(once, n, 1e6)

        self._stage(out, "io.colbin_encode_us", encode)

        def decode() -> float:
            from repro.io.colfile import decode_batch_store

            return self._time(lambda: _drain(decode_batch_store, state["blobs"]), n, 1e6)

        self._stage(out, "io.colbin_decode_us", decode)

        def hydrate() -> float:
            from repro.io.colfile import decode_batch_store, records_from_store

            # A store caches its hydrated records, so every round decodes
            # afresh and times the hydration alone.
            rounds = []
            before = self.speed.sample()
            for _ in range(7):
                stores = [decode_batch_store(blob) for blob in state["blobs"]]
                t0 = time.perf_counter()
                _drain(records_from_store, stores)
                rounds.append(time.perf_counter() - t0)
            factor = (before + self.speed.sample()) / 2.0
            return statistics.median(rounds) * factor / n * 1e6

        self._stage(out, "io.hydrate_us", hydrate)

        def frame() -> float:
            from repro.net.protocol import (
                MessageType, read_frame, records_from_binary, records_to_binary, write_frame,
            )

            def once() -> None:
                for batch in batches:
                    pipe = io.BytesIO()
                    write_frame(pipe, MessageType.RECORDS, records_to_binary(batch))
                    pipe.seek(0)
                    _mtype, payload = read_frame(pipe)
                    records_from_binary(payload)

            return self._time(once, n, 1e6)

        frame_us = self._stage(out, "net.protocol.frame_us", frame)

        def shard_fold() -> float:
            from repro.aggregate import AggregationDB

            process = AggregationDB(scheme).process

            def once() -> None:
                for batch in batches:
                    for record in batch:
                        process(record)

            return self._time(once, n, 1e6)

        fold_us = self._stage(out, "aggregate.shard_fold_us", shard_fold)

        # One relay delta at the run's final key count:
        # export_states -> states_to_binary -> states_from_binary -> load_states.
        def export() -> float:
            from repro.aggregate import AggregationDB

            db = AggregationDB(scheme)
            for stream in self.streams:
                db.process_all(stream)

            def once() -> None:
                state["states"] = db.export_states()

            return self._time(once, scale=1e3)

        export_ms = self._stage(out, "aggregate.export_ms", export)

        def states_encode() -> float:
            from repro.net.protocol import states_to_binary

            def once() -> None:
                state["states_blob"] = states_to_binary(state["states"])

            return self._time(once, scale=1e3)

        encode_ms = self._stage(out, "io.states_encode_ms", states_encode)

        def states_decode() -> float:
            from repro.net.protocol import states_from_binary

            def once() -> None:
                state["decoded"] = states_from_binary(state["states_blob"])

            return self._time(once, scale=1e3)

        decode_ms = self._stage(out, "io.states_decode_ms", states_decode)

        def load_states() -> float:
            from repro.aggregate import AggregationDB

            return self._time(
                lambda: AggregationDB(scheme).load_states(state["decoded"]), scale=1e3
            )

        load_ms = self._stage(out, "aggregate.load_states_ms", load_states)

        total_batches = 2 * -(-self.sizes["records_per_client"] // self.BATCH)
        cycles = max(self.forward_cycles, 1)
        self._unattributed(
            out, "stream.unattributed_frac", base.median("stream.wall_s"),
            [None if us is None else us * 1e-6 * total_batches for us in (frame_us, fold_us)]
            + [None if ms is None else ms * 1e-3 * cycles
               for ms in (export_ms, encode_ms, decode_ms, load_ms)],
        )


# -- live_windowed --------------------------------------------------------------------


class LiveWindowed(Workload):
    """Open loop, 1 generator thread, 1 writer + 1 reader connection."""

    name = "live_windowed"

    BASE_SCHEME = "AGGREGATE count, sum(time.duration), max(time.start) GROUP BY kernel"
    WINDOW = "tumbling(1s)"
    READ_QUERY = "AGGREGATE max(max#time.start)"
    RETIRE_EVERY_S = 0.5

    def setup(self) -> None:
        from repro.net import AggregationServer, FlushClient

        s = self.sizes
        self.stream = TimedStream(
            self.seed, s["ticks"], s["tick_s"], s["records_per_tick"],
            s["burst_records"], s["kernels"],
        )
        # Traced repetitions switch the server's own retirement loop off and
        # call (and time) retire_now() from the generator at the same period.
        self.server = AggregationServer(
            f"{self.BASE_SCHEME} WINDOW {self.WINDOW}",
            shards=2,
            lateness=TimedStream.LATENESS,
            retire_interval=0.0 if self.traced else self.RETIRE_EVERY_S,
        ).start()
        host, port = self.server.address
        spool = os.path.join(self.workdir, "spool")
        self.writer = FlushClient(host, port, scheme=self.BASE_SCHEME, client_id="writer",
                                  spool_dir=spool)
        self.reader = FlushClient(host, port, client_id="reader", spool_dir=spool)
        # Warm-up: both connections handshake, the first window opens.
        self.ledger.op(self.writer.send_records(self.stream.warmup), "warm-up batch not acked")
        self.reader.query(self.READ_QUERY, target="estimate")

    def _fresh(self, result, newest: float) -> bool:
        if not result.records:
            return False
        value = result.records[0].get("max#max#time.start")
        return (not value.is_empty) and value.value >= newest

    def measure(self, out: Samples) -> None:
        tracer = self.tracer
        stream = self.stream
        send = self.writer.send_records
        query = self.reader.query
        tick_s = stream.tick_s
        retire_every = max(1, int(round(self.RETIRE_EVERY_S / tick_s)))
        visible, acks, reads, lags, retires = [], [], [], [], []
        perf = time.perf_counter
        before = self.speed.sample()
        with tracer.span("live.open_loop", op_id="open"):
            start = perf() + 0.02
            for index, batch in enumerate(stream.ticks):
                due = start + index * tick_s
                now = perf()
                if now < due:
                    time.sleep(due - now)
                with tracer.span("live.tick", op_id=index):
                    t0 = perf()
                    lags.append(t0 - due)
                    ok = False
                    try:
                        with tracer.span("net.client.send_records"):
                            ok = send(batch)
                    except Exception as exc:  # noqa: BLE001 - count, keep the schedule
                        self.ledger.fail(f"tick {index} send: {type(exc).__name__}: {exc}")
                    self.ledger.op(ok, f"tick {index}: batch left spooled")
                    t1 = perf()
                    fresh = False
                    try:
                        with tracer.span("net.client.query"):
                            fresh = self._fresh(query(self.READ_QUERY, target="estimate"),
                                                stream.newest[index])
                    except Exception as exc:  # noqa: BLE001
                        self.ledger.fail(f"tick {index} query: {type(exc).__name__}: {exc}")
                    t2 = perf()
                    self.ledger.op(fresh, f"tick {index}: answer stale or query failed")
                    if ok and fresh:
                        # a failed or stale tick has no latency: it counts as
                        # missing any limit through the ledger instead
                        visible.append(t2 - due)
                        acks.append(t1 - t0)
                        reads.append(t2 - t1)
                    if self.traced and index % retire_every == retire_every - 1:
                        t3 = perf()
                        with tracer.span("net.server.retire_now"):
                            self.server.retire_now()
                        retires.append(perf() - t3)
            open_wall = perf() - start
        between = self.speed.sample()
        self.server.stats_records()  # refreshes the per-shard gauges
        open_entries = sum(
            self.server.metrics.gauge_value("net.shard.entries", shard=i) or 0 for i in range(2)
        )
        with tracer.span("live.burst", op_id="burst"):
            t0 = perf()
            with tracer.span("net.client.send_records"):
                ok = send(stream.burst)
            with tracer.span("net.client.query"):
                fresh = self._fresh(query(self.READ_QUERY, target="estimate"), stream.burst_newest)
            burst_wall = perf() - t0
        self.ledger.op(ok, "burst left batches spooled")
        self.ledger.op(fresh, "burst: answer does not contain the newest record")

        f_open = (before + between) / 2.0
        f_burst = (between + self.speed.sample()) / 2.0
        out.add_rate("throughput_per_s", len(stream.burst) / burst_wall, f_burst)
        out.add_times("answer_ms", [v * 1e3 for v in visible], f_open)
        out.add_times("live.visible_ms", [v * 1e3 for v in visible], f_open)
        out.add_times("read_ms", [v * 1e3 for v in reads], f_open)
        out.add_times("net.client.ack_ms", [v * 1e3 for v in acks], f_open)
        out.add_times("gen.lag_ms", [v * 1e3 for v in lags], f_open)
        out.add_times("window.retire_ms", [v * 1e3 for v in retires], f_open)
        out.add("window.open_entries", open_entries)
        out.add("live.utilization", (sum(acks) + sum(reads)) / open_wall)
        # the open loop's wall is fixed by its schedule; its busy time is not
        out.add_time("timed_wall_s", sum(acks) + sum(reads), f_open)
        if len(visible) >= 2:
            # least-squares slope of visible latency over tick index (ms/tick)
            xs = range(len(visible))
            mx, my = statistics.fmean(xs), statistics.fmean(visible)
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, visible)) / sum(
                (x - mx) ** 2 for x in xs
            )
            out.add("live.backlog_growth", slope * 1e3)

    def verify(self) -> None:
        self.server.retire_now()  # final: makes the retired count a function of the data
        summary = next(
            r for r in self.server.stats_records() if r.get("observe.kind").value == "server"
        )
        self.late = summary.get("observe.window.late").value
        self.retired = summary.get("observe.window.retired").value
        self.ledger.op(
            self.late == self.stream.late,
            f"window.late is {self.late}, generator sent {self.stream.late} late records",
        )
        want = self._oracle(
            lambda: query_rows(f"{self.BASE_SCHEME} WINDOW {self.WINDOW}", self.stream.accepted)
        )
        got = self.server.drain_results()  # retired windows + open windows
        self.ledger.rows(
            *compare_rows(
                got, want, ("kernel", "window.start", "window.end"),
                columns=["count", "sum#time.duration", "max#time.start"],
            ),
            "windowed result",
        )

    def teardown(self) -> None:
        self.writer.close()
        self.reader.close()
        self.server.stop()

    def replay(self, out: Samples, base: Samples) -> None:
        out.add("window.late", self.late)
        out.add("window.retired", self.retired)
        ticks = self.stream.ticks[:40]

        def stamp() -> float:
            from repro.window import make_assigner, stamp_records

            assigner = make_assigner(self.WINDOW)
            return self._time(
                lambda: _drain(lambda batch: stamp_records(batch, assigner), ticks),
                len(ticks), 1e6,
            )

        self._stage(out, "window.stamp_us", stamp)

        def fold() -> float:
            from repro.window import WindowedAggregationDB

            scheme = parse_scheme(self.BASE_SCHEME)

            def once() -> None:
                db = WindowedAggregationDB(scheme, self.WINDOW, lateness=TimedStream.LATENESS)
                _drain(db.process_all, ticks)

            return self._time(once, len(ticks), 1e6)

        self._stage(out, "window.fold_us", fold)

        # The estimate snapshot called directly on the still-running server.
        estimate = self.server.estimate_results
        before = self.speed.sample()
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            estimate()
            times.append((time.perf_counter() - t0) * 1e3)
        out.add_times("window.estimate_ms", times, (before + self.speed.sample()) / 2.0)


# -- offline_query --------------------------------------------------------------------


class OfflineQuery(Workload):
    """Closed loop, 1 thread (+ the worker pool ``api.query`` picks itself)."""

    name = "offline_query"

    COLD_QUERY = (
        "AGGREGATE count, sum(time.duration), max(time.duration) "
        "GROUP BY kernel, mpi.rank ORDER BY kernel, mpi.rank"
    )
    #: (text, GROUP BY key) — WHERE pushdown, different keys, percent_total,
    #: ORDER/LIMIT; every ORDER BY is total so LIMIT picks the same rows
    WARM_QUERIES = [
        (COLD_QUERY, ("kernel", "mpi.rank")),
        ("AGGREGATE sum(time.duration) WHERE amr.level=2 GROUP BY kernel ORDER BY kernel",
         ("kernel",)),
        ("AGGREGATE percent_total(time.duration) GROUP BY amr.level ORDER BY amr.level",
         ("amr.level",)),
        ("AGGREGATE count GROUP BY iteration ORDER BY count DESC, iteration LIMIT 5",
         ("iteration",)),
        ("AGGREGATE avg(time.duration), min(time.duration) GROUP BY mpi.rank ORDER BY mpi.rank",
         ("mpi.rank",)),
        ("AGGREGATE count, sum(time.duration) WHERE kernel=kernel-00 GROUP BY iteration "
         "ORDER BY iteration", ("iteration",)),
        ("AGGREGATE max(time.duration) WHERE amr.level>0 GROUP BY kernel, amr.level "
         "ORDER BY kernel, amr.level", ("kernel", "amr.level")),
        ("AGGREGATE sum(time.duration) GROUP BY mpi.rank, amr.level "
         "ORDER BY mpi.rank, amr.level", ("mpi.rank", "amr.level")),
        ("AGGREGATE count WHERE iteration<10 GROUP BY kernel ORDER BY count DESC, kernel LIMIT 10",
         ("kernel",)),
        ("AGGREGATE count, min(time.duration), max(time.duration) GROUP BY amr.level, iteration "
         "ORDER BY amr.level, iteration", ("amr.level", "iteration")),
    ]

    def setup(self) -> None:
        from repro.io import Dataset, write_records

        data = os.path.join(self.workdir, "data")
        os.makedirs(data, exist_ok=True)
        self.files = []
        self.records: list[list[Record]] = []
        for rank in range(self.sizes["files"]):
            records = rank_file_records(self.seed, rank, self.sizes["records_per_file"])
            path = os.path.join(data, f"rank{rank}.rcf")
            write_records(path, records)
            self.files.append(path)
            self.records.append(records)
        self.cali = os.path.join(data, "rank0.cali")
        write_records(self.cali, self.records[0])
        self.total = sum(len(r) for r in self.records)
        self.dataset = Dataset.from_files(self.files)
        # Warm-up: the first query touching a column interns it into the
        # cached ColumnStore; users of a loaded dataset pay that once.
        for text, _key in self.WARM_QUERIES:
            self.dataset.query(text)

    def measure(self, out: Samples) -> None:
        import repro.api
        from repro import observe

        tracer = self.tracer
        timed = 0.0
        self.cold_results = []
        mark = self.speed.sample()
        for run in range(self.sizes["cold_runs"]):
            with tracer.span("offline.cold", op_id=f"cold{run}"):
                t0 = time.perf_counter()
                try:
                    with tracer.span("api.query"):
                        result = repro.api.query(self.COLD_QUERY, self.files)
                    with tracer.span("query.to_table"):
                        table = result.to_table()
                except Exception as exc:  # noqa: BLE001 - an errored query is a failed op
                    self.ledger.op(False, f"cold query: {type(exc).__name__}: {exc}")
                    continue
                wall = time.perf_counter() - t0
            previous, mark = mark, self.speed.sample()
            factor = (previous + mark) / 2.0
            self.ledger.op(bool(table), "cold query rendered nothing")
            self.cold_results.append(result)
            out.add_time("answer_ms", wall * 1e3, factor)
            out.add_rate("throughput_per_s", self.total / wall, factor)
            out.add_time("offline.cold_s", wall, factor)
            timed += wall * factor
        self.warm_results = {}
        query = self.dataset.query
        # one read_ms sample per round: the mean over the ten texts (the pooled
        # median would sit between two texts of different cost and flip)
        reads, renders = [], []
        with observe.collecting() as registry:
            for round_ in range(self.sizes["warm_rounds"]):
                round_ms = []
                for index, (text, _key) in enumerate(self.WARM_QUERIES):
                    with tracer.span("offline.warm", op_id=f"warm{round_}.{index}"):
                        t0 = time.perf_counter()
                        try:
                            with tracer.span("io.dataset.query"):
                                result = query(text)
                            t1 = time.perf_counter()
                            with tracer.span("query.to_table"):
                                table = result.to_table()
                        except Exception as exc:  # noqa: BLE001
                            self.ledger.op(False, f"warm query {index}: {type(exc).__name__}: {exc}")
                            continue
                        t2 = time.perf_counter()
                    self.ledger.op(bool(table), f"warm query {index} rendered nothing")
                    self.warm_results[index] = result
                    round_ms.append((t2 - t0) * 1e3)
                    renders.append((t2 - t1) * 1e3)
                if len(round_ms) == len(self.WARM_QUERIES):
                    reads.append(statistics.fmean(round_ms))
            timers = registry.snapshot()["timers"]
        factor = (mark + self.speed.sample()) / 2.0
        out.add_times("read_ms", reads, factor)
        out.add_times("query.render_ms", renders, factor)
        out.add("timed_wall_s", timed + sum(reads) * len(self.WARM_QUERIES) * 1e-3 * factor)
        rounds = self.sizes["warm_rounds"] * len(self.WARM_QUERIES)
        for metric, suffix in (("query.scan_group_s", "columnar.group"),
                               ("query.scan_ops_s", "columnar.ops")):
            total = sum(t[1] for (path, _tags), t in timers.items() if path.endswith(suffix))
            out.add_time(metric, total / rounds, factor)  # program-reported, mean per warm query

    def verify(self) -> None:
        def build() -> list:
            everything = [r for records in self.records for r in records]
            return [query_rows(text, everything) for text, _key in self.WARM_QUERIES]

        expected = self._oracle(build)
        for result in self.cold_results:
            self.ledger.rows(
                *compare_rows(result.records, expected[0], self.WARM_QUERIES[0][1]),
                "cold query",
            )
        for index, (_text, key) in enumerate(self.WARM_QUERIES):
            result = self.warm_results.get(index)
            if result is None:
                continue  # already counted as a failed operation
            self.ledger.rows(
                *compare_rows(result.records, expected[index], key), f"warm query {index}"
            )
            # ORDER BY / LIMIT: same rows in the same order
            same_order = [tuple(r.get(k).value for k in key) for r in result.records] == [
                tuple(r.get(k).value for k in key) for r in expected[index]
            ]
            self.ledger.op(same_order, f"warm query {index}: row order differs from the oracle")

    def teardown(self) -> None:
        self.dataset = None

    def replay(self, out: Samples, base: Samples) -> None:
        scheme = parse_scheme(self.COLD_QUERY)
        state: dict = {}

        def parse() -> float:
            from repro.calql import parse_query

            texts = [text for text, _key in self.WARM_QUERIES]
            return self._time(lambda: _drain(parse_query, texts), len(texts), 1e6)

        parse_us = self._stage(out, "calql.parse_us", parse)

        def rcf_decode() -> float:
            from repro.io.colfile import ColfileReader

            def once() -> None:
                for path in self.files:
                    reader = ColfileReader(path)
                    try:
                        _drain(len, reader.iter_stores())
                    finally:
                        reader.close()

            return self._time(once, min_rounds=3)

        decode_s = self._stage(out, "io.rcf_decode_s", rcf_decode)

        def cali_parse() -> float:
            from repro.io import read_records

            return self._time(lambda: read_records(self.cali), min_time=0.0, min_rounds=2)

        self._stage(out, "io.cali_parse_s", cali_parse)

        def columnar_partial() -> float:
            from repro.io.colfile import ColfileReader
            from repro.query.columnar import columnar_db

            readers = [ColfileReader(path) for path in self.files]
            try:
                stores = [reader.store() for reader in readers]

                def once() -> None:
                    state["partials"] = [columnar_db(store, scheme) for store in stores]

                return self._time(once, min_rounds=3)
            finally:
                for reader in readers:
                    reader.close()

        partial_s = self._stage(out, "query.columnar_partial_s", columnar_partial)

        def combine() -> float:
            from repro.aggregate import AggregationDB

            return self._time(
                lambda: _drain(AggregationDB(scheme).combine, state["partials"]), scale=1e3
            )

        combine_ms = self._stage(out, "aggregate.combine_ms", combine)

        def rows_backend() -> float:
            import repro.api

            seconds = self._time(
                lambda: repro.api.query(self.COLD_QUERY, self.files[0], backend="rows"),
                min_time=0.0, min_rounds=2,
            )
            return len(self.records[0]) / seconds

        self._stage(out, "query.rows_records_per_s", rows_backend)

        def workers() -> float:
            import repro.api
            from repro import observe

            with observe.collecting() as registry:
                repro.api.query(self.COLD_QUERY, self.files)
                timers = registry.snapshot()["timers"]
            for (path, tags), _stats in timers.items():
                if path.endswith("parallel.query_files"):
                    return float(dict(tags).get("workers", 1))
            raise AttributeError("no parallel.query_files span reported")

        n_workers = self._stage(out, "query.parallel_workers", workers)

        render = base.median("query.render_ms")
        self._unattributed(
            out, "offline.unattributed_frac", base.median("offline.cold_s"),
            [
                None if None in (decode_s, partial_s, n_workers)
                else (decode_s + partial_s) / max(n_workers, 1.0),
                None if combine_ms is None else combine_ms * 1e-3,
                None if parse_us is None else parse_us * 1e-6,
                None if render is None else render * 1e-3,
            ],
        )


WORKLOADS = {
    cls.name: cls for cls in (OnlineRegions, StreamTree, LiveWindowed, OfflineQuery)
}
