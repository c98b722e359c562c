"""Equivalence properties for the per-event path.

The per-event path — compiled fold plans, context-key caching, and the
channel's zero-copy snapshot — is only admissible if it is *observationally
identical* to the reference: records folded one by one through
``AggregationDB(scheme, fold_plan="generic")``.  These tests enforce that
over randomized inputs:

* a default database flushes the same records as the reference one,
  off-line, on-line, and split across combine stages;
* grouped kernels (several fast ops sharing one argument label) and
  fallback kernels (ops without a monomorphic fast kernel) fold identically;
* an ``event,timer,aggregate`` channel (and an ``event,aggregate`` one)
  flushes what an ``event,timer,trace`` channel on the same runtime
  retained, folded through the reference — unsampled and sampled, with
  explicit snapshots carrying extra entries — and the key cache survives
  epoch bumps.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregationDB, AggregationScheme, StreamAggregator
from repro.aggregate.ops import (
    AliasedOp,
    AvgOp,
    CountOp,
    FirstOp,
    HistogramOp,
    MaxOp,
    MinOp,
    RatioOp,
    ScaleOp,
    StddevOp,
    SumOp,
    VarianceOp,
)
from repro.aggregate.ops import WEIGHT_LABEL, default_registry
from repro.aggregate.plan import CompiledFoldPlan, make_plan
from repro.common import AggregationError, Record

from ..conftest import examples

# -- random record streams ----------------------------------------------------

#: values that hit every kernel branch: ints/floats (fast numeric), bools
#: (count as 0/1), strings (skipped by numeric ops), None (missing entry),
#: plus the IEEE edge cases inf and nan.
_finite_values = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.sampled_from(["s1", "s2"]),
    st.none(),
)

_values = st.one_of(
    _finite_values,
    st.just(float("inf")),
    st.just(float("-inf")),
    st.just(float("nan")),
)


@st.composite
def streams(draw, max_size=30, finite=False):
    """Records over a small label set so groups and misses both occur."""
    values = _finite_values if finite else _values
    n = draw(st.integers(min_value=0, max_value=max_size))
    out = []
    for _ in range(n):
        entries = {}
        for label in ("x", "y", "k", "k2"):
            v = draw(values)
            if v is not None:
                entries[label] = v
        out.append(Record(entries))
    return out


FAST_OPS = lambda: [  # noqa: E731 - fresh op instances per scheme
    CountOp(),
    SumOp(["x"]),
    MinOp(["x"]),
    MaxOp(["x"]),
    AvgOp(["x"]),
    VarianceOp(["x"]),
    StddevOp(["x"]),
    ScaleOp(["y"], factor=1.5),
]

MIXED_OPS = lambda: FAST_OPS() + [  # noqa: E731
    HistogramOp(["x"], bins=4, lo=-10.0, hi=10.0),
    RatioOp(["x", "y"]),
    FirstOp(["y"]),
    AliasedOp(SumOp(["y"]), "ysum"),
]


def canon(records):
    """Flushed records as a sorted list of plain dicts for comparison."""
    rows = [r.to_plain() for r in records]
    return sorted(rows, key=lambda d: sorted((k, repr(v)) for k, v in d.items()))


def rounding_bounds(recs):
    """How far two summation orders of ``recs`` may leave each sum-derived
    output of ``FAST_OPS`` apart.

    Summed in any order, n doubles land within ``gamma(n) * sum|x|`` of
    the exact total, ``gamma(n) = n*u / (1 - n*u)`` with ``u = 2**-53``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, (4.4)); two
    orders, twice that.  ``gamma(n + 4)`` also covers the few roundings
    each output adds (the mean's division, the squares, the variance's
    subtraction, the scale factor 1.5), and ``|sqrt(a) - sqrt(b)| <=
    sqrt(|a - b|)`` carries the variance's bound to the standard
    deviation.  A group sums a subset of the records, so the bound over
    all of them holds for every group.  An overflowing total bounds
    nothing (``inf``).
    """

    def numbers(label):
        values = (r.to_plain().get(label) for r in recs)
        return [float(v) for v in values if isinstance(v, (int, float))]

    u = 2.0**-53
    xs, ys = numbers("x"), numbers("y")
    g = (len(recs) + 4) * u / (1 - (len(recs) + 4) * u)
    s1 = sum(abs(x) for x in xs)
    squares = sum(x * x for x in xs) + s1 * s1
    variance = 4 * g * squares
    return {
        "sum#x": 2 * g * s1,
        "avg#x": 2 * g * s1,
        "variance#x": variance,
        "stddev#x": math.sqrt(variance) + 4 * u * math.sqrt(squares),
        "scale#y": 2 * g * (1.5 * sum(abs(y) for y in ys)),
    }


def assert_same_output(got, want, bounds=None):
    """Equal outputs; a label in ``bounds`` (see :func:`rounding_bounds`)
    may differ by at most its bound."""
    got, want = canon(got), canon(want)
    bounds = bounds or {}
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for label in w:
            gv, wv = g[label], w[label]
            if label in bounds:
                bound = bounds[label]
                assert gv == wv or math.isinf(bound) or abs(gv - wv) <= bound
            elif isinstance(wv, float) and math.isnan(wv):
                assert isinstance(gv, float) and math.isnan(gv)
            elif isinstance(wv, float) or isinstance(gv, float):
                assert gv == pytest.approx(wv, rel=1e-9, abs=1e-12, nan_ok=True)
            elif isinstance(wv, int) and abs(wv) >= 2**53:
                # Integral totals beyond the float-exact range pass through
                # double-precision fold states, so reassociated passes
                # (combine vs single pass) may differ by ULPs even though
                # both render as int.
                assert gv == pytest.approx(wv, rel=1e-9)
            else:
                assert gv == wv


def run_db(ops, recs, key=("k",), fold_plan="compiled"):
    scheme = AggregationScheme(ops, key=key)
    db = AggregationDB(scheme, fold_plan=fold_plan)
    db.process_all(recs)
    return db


# -- compiled vs generic ------------------------------------------------------


class TestCompiledMatchesGeneric:
    @pytest.mark.parametrize("key", [(), ("k",), ("k", "k2")], ids=["nokey", "k1", "k2"])
    @given(recs=streams())
    @settings(max_examples=examples(8), deadline=None)
    def test_offline_flush(self, key, recs):
        got = run_db(FAST_OPS(), recs, key, "compiled").flush()
        want = run_db(FAST_OPS(), recs, key, "generic").flush()
        assert_same_output(got, want)

    @given(recs=streams())
    @settings(max_examples=examples(15), deadline=None)
    def test_fallback_ops_fold_identically(self, recs):
        got = run_db(MIXED_OPS(), recs, ("k",), "compiled").flush()
        want = run_db(MIXED_OPS(), recs, ("k",), "generic").flush()
        assert_same_output(got, want)

    @given(recs=streams())
    @settings(max_examples=examples(15), deadline=None)
    def test_online_equals_offline(self, recs):
        scheme = AggregationScheme(FAST_OPS(), key=("k",))
        stream = StreamAggregator(scheme)
        for r in recs:
            stream.push(r)
        want = run_db(FAST_OPS(), recs, ("k",), "generic").flush()
        assert_same_output(stream.flush(), want)

    @given(recs=streams(finite=True), split=st.integers(min_value=0, max_value=30))
    @settings(max_examples=examples(15), deadline=None)
    def test_combine_equals_single_pass(self, recs, split):
        # Finite values only: combine reassociates the folds, and IEEE
        # inf/nan arithmetic is not associative (sum([inf, -inf]) vs
        # inf + (-inf) across partials legitimately differ) — that is a
        # property of floats, not of the plans.
        split = min(split, len(recs))
        left = run_db(FAST_OPS(), recs[:split], ("k",), "compiled")
        right = run_db(FAST_OPS(), recs[split:], ("k",), "compiled")
        left.combine(right)
        want = run_db(FAST_OPS(), recs, ("k",), "generic").flush()
        # Finite double sums are not associative either: 2 + (-2**53 - 2)
        # + 1 is -(2**53 - 1) in one pass, but the partial (-2**53 - 2) + 1
        # rounds to -2**53 and the combine reads -(2**53 - 2).  So the
        # sum-derived outputs agree up to the rounding error bound.
        assert_same_output(left.flush(), want, rounding_bounds(recs))


class TestGroupedKernels:
    """Several fast ops sharing one argument label fuse into one kernel."""

    def make_ops(self):
        return [
            CountOp(),
            SumOp(["x"]),
            MinOp(["x"]),
            MaxOp(["x"]),
            VarianceOp(["x"]),
        ]

    def test_plan_groups_shared_label(self):
        plan = make_plan(tuple(self.make_ops()), "compiled")
        assert isinstance(plan, CompiledFoldPlan)
        # all five ops have fast kernels, grouped or not
        assert plan.num_fast_ops == 5

    @given(recs=streams())
    @settings(max_examples=examples(15), deadline=None)
    def test_grouped_fold_matches_generic(self, recs):
        got = run_db(self.make_ops(), recs, ("k",), "compiled").flush()
        want = run_db(self.make_ops(), recs, ("k",), "generic").flush()
        assert_same_output(got, want)

    def test_count_fires_on_records_missing_the_grouped_label(self):
        # count has no argument: it must tick even when the grouped entry
        # lookup for "x" misses.
        recs = [Record({"k": "a"}), Record({"k": "a", "x": 2.0})]
        (row,) = run_db(self.make_ops(), recs, ("k",), "compiled").flush()
        plain = row.to_plain()
        assert plain["count"] == 2
        assert plain["sum#x"] == pytest.approx(2.0)


# -- the on-line path vs the off-line reference ---------------------------------

#: one instrumentation call: ("begin", name) / ("end",) on the nested
#: ``function`` attribute, ("set", value) on the plain ``phase`` attribute,
#: ("snap",) an explicit snapshot, ("extra", value) one whose extra entry
#: overrides ``phase``, ("tick", seconds) a clock advance
_program_steps = st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(["main", "solve", "io"])),
    st.tuples(st.just("end")),
    st.tuples(st.just("set"), st.sampled_from(["init", "run"])),
    st.tuples(st.just("snap")),
    st.tuples(st.just("extra"), st.sampled_from(["marked"])),
    st.tuples(st.just("tick"), st.sampled_from([0.25, 0.5, 2.0])),
)


class TestOnlineMatchesReference:
    """The on-line per-event path changes cost, never flushed results."""

    SCHEME = (
        "AGGREGATE count, sum(time.duration), min(time.duration), "
        "max(time.duration) GROUP BY function"
    )

    @pytest.mark.parametrize("sampled", [False, True], ids=["unsampled", "sampled"])
    @pytest.mark.parametrize("inclusive", [False, True], ids=["exclusive", "inclusive"])
    @given(program=st.lists(_program_steps, max_size=40))
    @settings(max_examples=examples(25), deadline=None)
    def test_aggregate_channel_equals_trace_folded_offline(self, inclusive, sampled, program):
        """Same events, three channels: fold on-line vs retain and fold later.

        One snapshot closure serves all three with different records: the
        trace channel retains records, so it gets a fresh record (a copied
        dict) per snapshot and never touches the key cache or a compiled
        plan; the timed aggregate channel folds a per-thread scratch record
        (timer entries, extra entries and ``sample.weight`` are written
        there); the untimed one folds the blackboard's live record unless an
        extra entry or a weight forces the scratch record.  Sampled, every
        channel runs the same gate (same probability, same seed), so each
        drops the same events, and the trace channel's retained weighted
        records fold to what the aggregate channels folded.  The blackboard's
        live entries must stay what its stacks say: no contributor, extra or
        weight entry is ever written into them.  ``phase`` is only set by
        some programs and never before the first ``set``, so keys with a
        missing attribute occur.
        """
        from repro.calql import parse_scheme
        from repro.runtime import Caliper, VirtualClock

        text = (
            "AGGREGATE count, sum(time.duration), max(time.duration), "
            "sum(time.inclusive.duration) GROUP BY function, phase"
        )
        untimed_text = "AGGREGATE count GROUP BY function, phase"
        clk = VirtualClock()
        cali = Caliper(clock=clk)
        common = {"event.trigger_set": True}
        if sampled:
            common.update({"sampling.probability": 0.5, "sampling.seed": 7})
        timed = {"timer.inclusive": inclusive, **common}
        online = cali.create_channel(
            "online",
            {**timed, "services": ["event", "timer", "aggregate"],
             "aggregate.config": text, "aggregate.rename_count": False},
        )
        untimed = cali.create_channel(
            "untimed",
            {"services": ["event", "aggregate"], "aggregate.config": untimed_text,
             "aggregate.rename_count": False, **common},
        )
        trace = cali.create_channel("trace", {**timed, "services": ["event", "timer", "trace"]})
        blackboard = cali.blackboard()
        depth = 0
        for step in program:
            if step[0] == "begin":
                cali.begin("function", step[1])
                depth += 1
            elif step[0] == "end":
                if depth:
                    cali.end("function")
                    depth -= 1
            elif step[0] == "set":
                cali.set("phase", step[1])
            elif step[0] == "snap":
                cali.push_snapshot()
            elif step[0] == "extra":
                cali.push_snapshot({"phase": step[1]})
            else:
                clk.advance(step[1])
            live = blackboard.snapshot_entries()
            assert WEIGHT_LABEL not in live
            assert live == blackboard.rebuild_entries()
        for _ in range(depth):
            cali.end("function")

        retained = trace.finish()
        channels = ((online, text), (untimed, untimed_text))
        assert len(retained) == trace.num_snapshots
        for channel, _ in channels:
            assert channel.num_snapshots == trace.num_snapshots
            assert channel.num_sampled_out == trace.num_sampled_out
            assert channel.num_fast_snapshots == channel.num_snapshots
        assert trace.num_fast_snapshots == 0
        assert sampled or trace.num_sampled_out == 0
        for channel, scheme_text in channels:
            reference = AggregationDB(parse_scheme(scheme_text), fold_plan="generic")
            for record in retained:
                reference.process(record)
            assert_same_output(channel.finish(), reference.flush())

    def test_key_cache_invalidated_by_table_clear(self):
        """The context-key memo maps values to key codes, not to table state:
        after the thread's table is emptied (``take()``) under a warm memo,
        memo hits fold into fresh slots and nothing of the old ones comes
        back."""
        from repro.runtime import Caliper, VirtualClock

        clk = VirtualClock()
        cali = Caliper(clock=clk)
        chan = cali.create_channel(
            "t",
            {"services": ["event", "timer", "aggregate"],
             "aggregate.config": self.SCHEME},
        )
        for _ in range(10):
            with cali.region("function", "warm"):
                clk.advance(0.5)
        svc = chan.service("aggregate")
        (table,) = svc.databases()  # drains the ring first
        assert len(table.take()) == 2  # "warm" and the empty context
        misses = svc.stats()["keycache.misses"]
        for _ in range(4):
            with cali.region("function", "warm"):
                clk.advance(0.5)
            with cali.region("function", "after"):
                clk.advance(0.5)
        rows = {
            r.to_plain().get("function"): r.to_plain()["aggregate.count"]
            for r in chan.finish()
        }
        assert svc.stats()["keycache.misses"] == misses + 1  # only "after" is new
        assert rows["warm"] == 4
        assert rows["after"] == 4


class TestPlanSelection:
    def test_unknown_fold_plan_rejected(self):
        with pytest.raises(AggregationError, match="fold plan"):
            make_plan((CountOp(),), "vectorized")

    def test_mixed_plan_counts_fast_ops(self):
        plan = make_plan(tuple(MIXED_OPS()), "compiled")
        assert isinstance(plan, CompiledFoldPlan)
        # histogram / ratio / first use the fallback kernel
        assert 0 < plan.num_fast_ops < len(MIXED_OPS())

    #: fast kernels a plan of one built-in operator gets, aliased or not
    FAST_ALONE = {
        "any": 0, "avg": 1, "count": 1, "est_moments": 0, "first": 0, "histogram": 0,
        "max": 1, "mean": 1, "min": 1, "percent_total": 1, "ratio": 0, "scale": 1,
        "stddev": 1, "sum": 1, "variance": 1,
    }

    @pytest.mark.parametrize("name", sorted(FAST_ALONE))
    def test_each_builtin_alone_counts_its_fast_kernel(self, name):
        registry = default_registry()
        assert sorted(self.FAST_ALONE) == registry.known()
        args = {"count": [], "ratio": ["x", "y"], "scale": ["x", "2"]}.get(name, ["x"])
        op = registry.create(name, args)
        plans = [(op,)]
        if len(op.output_labels()) == 1:  # AS renames a single column only
            plans.append((AliasedOp(op, "alias"),))
        for ops in plans:
            assert make_plan(ops, "compiled").num_fast_ops == self.FAST_ALONE[name]
