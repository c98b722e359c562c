"""Windowed streaming aggregation over the network layer.

The acceptance scenario: records stream in with event times, open windows
answer with confidence-interval estimates, the watermark retires closed
windows, and a retired window's final result — even across a relay tree
with a mid-stream relay kill — exactly equals a serial batch query over
the same records restricted to that window.

All synthetic values are multiples of 0.25, so float equality below is
exact: a mismatch is a lost or double-counted record, never rounding.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.api import query as batch_query
from repro.common import Record, Variant
from repro.net import AggregationServer, FlushClient, LocalTree
from repro.net.client import live_query

SCHEME = "AGGREGATE count, sum(v) GROUP BY k WINDOW tumbling(10s)"
BASE_SCHEME = "AGGREGATE count, sum(v) GROUP BY k"


def rec(k: str, t: float, v: float) -> Record:
    return Record.from_variants(
        {
            "k": Variant.of(k),
            "time.start": Variant.of(float(t)),
            "v": Variant.of(float(v)),
        }
    )


def synth(n: int, keys: int = 3) -> list[Record]:
    """In-order timed records, t in [0, n/2), exact quarter values."""
    return [rec(f"k{i % keys}", i * 0.5, 0.25 * (i % 5)) for i in range(n)]


def summarize(records) -> dict:
    return {
        (
            r.get("k").to_string(),
            r.get("window.start").value,
            r.get("window.end").value,
        ): (r.get("count").value, r.get("sum#v").value)
        for r in records
    }


def reference(records) -> dict:
    return summarize(batch_query(SCHEME, records).records)


class TestWindowedServer:
    def test_stream_estimate_retire_matches_batch(self):
        records = synth(200)  # t in [0, 100)
        with AggregationServer(SCHEME, shards=2, lateness=2.0) as server:
            host, port = server.address
            client = FlushClient(host, port, scheme=BASE_SCHEME, client_id="p0")
            client.send_records(records)
            client.close()

            assert server.watermark() == pytest.approx(97.5)
            estimates = server.estimate_records = server.estimate_results()
            assert estimates  # open windows present before retirement
            for est in estimates:
                cols = {k_: v.value for k_, v in est.items()}
                assert 0.0 <= cols["est.fraction"] <= 1.0
                if "est#count" in cols:
                    assert cols["est.lo#count"] <= cols["est#count"] <= cols["est.hi#count"]

            server.retire_now()
            mark = server.watermark()
            ref = reference(records)
            assert summarize(server.retired_results()) == {
                key: val for key, val in ref.items() if key[2] <= mark
            }
            # retired + open together still cover everything exactly
            assert summarize(server.drain_results()) == ref

    def test_windowed_scheme_text_configures_server(self):
        with AggregationServer(SCHEME) as server:
            assert server.windowed
            assert server.window_assigner.describe() == "tumbling(10s)"
            assert "window.start" in server.scheme.key

    def test_accepts_base_and_augmented_hello(self):
        with AggregationServer(SCHEME) as server:
            host, port = server.address
            for text in (BASE_SCHEME, server.scheme.describe()):
                client = FlushClient(host, port, scheme=text, client_id=f"c-{len(text)}")
                client.send_records([rec("a", 1.0, 1.0)])
                client.close()

    def test_late_records_counted_in_observe_window_late(self):
        with AggregationServer(SCHEME, lateness=5.0) as server:
            host, port = server.address
            client = FlushClient(host, port, scheme=BASE_SCHEME, client_id="p0")
            client.send_records([rec("a", 50.0, 1.0)])
            client.send_records([rec("a", 40.0, 1.0)])  # 40 < 50 - 5: late
            client.close()
            assert summarize(server.drain_results()) == {
                ("a", 50.0, 60.0): (1, 1.0)
            }
            result = live_query(
                host,
                port,
                "SELECT observe.metric, observe.value WHERE observe.kind=counter,"
                " observe.metric=window.late",
                target="telemetry",
            )
            assert [r.get("observe.value").value for r in result.records] == [1]
            summary = live_query(
                host, port,
                "SELECT observe.window.late WHERE observe.kind=server",
                target="telemetry",
            )
            assert [r.get("observe.window.late").value for r in summary.records] == [1]

    def test_untimed_records_are_dropped_not_folded(self):
        with AggregationServer(SCHEME) as server:
            host, port = server.address
            client = FlushClient(host, port, scheme=BASE_SCHEME, client_id="p0")
            client.send_records(
                [rec("a", 1.0, 1.0), Record.from_variants({"k": Variant.of("a")})]
            )
            client.close()
            assert sum(v[0] for v in summarize(server.drain_results()).values()) == 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_event_time_is_untimed_and_poisons_nothing(self, bad):
        # Used to raise out of the assigner after the tracker had seen it: the
        # source's front at inf, the batch never ACKed and spooled forever.
        with AggregationServer(SCHEME) as server:
            host, port = server.address
            with FlushClient(host, port, scheme=BASE_SCHEME, client_id="p0") as client:
                assert client.send_records([rec("a", 1.5, 1.0), rec("a", bad, 1.0)])
                assert math.isfinite(server.watermark())
                assert client.send_records([rec("a", 2.5, 1.0), rec("b", 11.0, 1.0)])
                assert client.counters["reconnects"] == 1  # the first connect, never again
            assert summarize(server.drain_results()) == {
                ("a", 0.0, 10.0): (2, 2.0),
                ("b", 10.0, 20.0): (1, 1.0),
            }
            assert server.watermark() == 11.0
            assert server.metrics.counter_value("window.untimed") == 1
            assert server.metrics.counter_value("net.errors") == 0
            assert server.metrics.counter_value("net.disconnects", reason="io") == 0

    def test_live_query_estimate_and_retired_targets(self):
        records = synth(100)
        with AggregationServer(SCHEME, lateness=0.0) as server:
            host, port = server.address
            client = FlushClient(host, port, scheme=BASE_SCHEME, client_id="p0")
            client.send_records(records)
            client.close()
            est = live_query(
                host, port, "AGGREGATE sum(est#count) GROUP BY k", target="estimate"
            )
            assert est.records
            server.retire_now()
            ret = live_query(
                host, port, "AGGREGATE count GROUP BY k", target="retired"
            )
            assert {r.get("k").to_string() for r in ret.records} == {"k0", "k1", "k2"}

    def test_estimate_and_retired_answers_split_into_merge_render_and_query_timers(self):
        """The windowed targets are timed like ``aggregate``: ``net.merge``
        (the snapshot), ``net.render`` (estimate or render as columns) and
        ``net.query`` (all of it, per target)."""
        with AggregationServer(SCHEME, lateness=0.0) as server:
            with FlushClient(*server.address, scheme=BASE_SCHEME, client_id="p0") as c:
                assert c.send_records(synth(100))
                estimate = c.query("AGGREGATE sum(est#count) GROUP BY k", target="estimate")
                server.retire_now()
                retired = c.query("AGGREGATE sum(count)", target="retired")
                timers = c.query(
                    "SELECT observe.path, observe.count WHERE observe.kind=timer",
                    target="telemetry",
                )
        assert estimate.records and retired.records
        counts = {r.get("observe.path").value: r.get("observe.count").value for r in timers.records}
        assert counts["net.merge"] == counts["net.render"] == 2
        for target in ("estimate", "retired"):
            assert server.metrics.timer_stats("net.query", target=target)[0] == 1

    def test_uniform_stream_estimates_land_within_10pct_of_final(self):
        """One open window over a time-uniform stream: at every observed
        fraction the extrapolated count and sum are close to the final ones."""
        n = 2000
        records = [rec("a", i * 0.5, 0.25 * (i % 8)) for i in range(n)]  # [0, 1000)
        truth_sum = sum(r.get("v").value for r in records)
        scheme = "AGGREGATE count, sum(v) GROUP BY k WINDOW tumbling(1000s)"
        with AggregationServer(scheme, shards=2, lateness=0.0) as server:
            client = FlushClient(*server.address, scheme=BASE_SCHEME, client_id="p0")
            sent = 0
            for fraction in (0.1, 0.25, 0.5, 0.75, 0.9):
                cut = int(n * fraction)
                assert client.send_records(records[sent:cut])
                sent = cut
                (est,) = server.estimate_results()
                cols = {k_: v.value for k_, v in est.items()}
                assert cols["est.fraction"] == pytest.approx(fraction, abs=0.01)
                assert cols["est#count"] == pytest.approx(n, rel=0.10)
                assert cols["est#sum#v"] == pytest.approx(truth_sum, rel=0.10)
            client.close()

    def test_estimate_target_on_plain_server_errors(self):
        from repro.common.errors import ReproError

        with AggregationServer(BASE_SCHEME) as server:
            host, port = server.address
            with pytest.raises(ReproError):
                live_query(host, port, "AGGREGATE count GROUP BY k", target="estimate")

    def test_retire_loop_runs_periodically(self):
        with AggregationServer(
            SCHEME, lateness=0.0, retire_interval=0.05
        ) as server:
            host, port = server.address
            client = FlushClient(host, port, scheme=BASE_SCHEME, client_id="p0")
            client.send_records([rec("a", t, 1.0) for t in (0.0, 5.0, 25.0)])
            client.close()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if summarize(server.retired_results()):
                    break
                time.sleep(0.05)
            assert summarize(server.retired_results()) == {("a", 0.0, 10.0): (2, 2.0)}


class TestWindowedTree:
    def test_tree_retired_matches_batch(self):
        records = synth(200)
        with LocalTree(SCHEME, n_leaves=4, fanin=2, lateness=2.0) as tree:
            clients = [tree.leaf_client(i) for i in range(4)]
            for i, record in enumerate(records):
                clients[i % 4].push(record)
            for client in clients:
                client.flush()
                client.close()
            tree.sync()
            tree.root.retire_now()
            mark = tree.root.watermark()
            ref = reference(records)
            assert summarize(tree.root.retired_results()) == {
                key: val for key, val in ref.items() if key[2] <= mark
            }
            assert summarize(tree.root.drain_results()) == ref

    def test_tree_exactness_survives_relay_kill(self):
        """The acceptance criterion: kill a relay mid-stream, stay exact."""
        records = synth(240)
        half = len(records) // 2
        with LocalTree(
            SCHEME, n_leaves=4, fanin=2, level_sizes=[1, 2],
            lateness=2.0, failover_after=0.3,
        ) as tree:
            clients = [tree.leaf_client(i) for i in range(4)]
            for i, record in enumerate(records[:half]):
                clients[i % 4].push(record)
            for client in clients:
                client.flush()
            tree.sync()
            retired_before = tree.root.retire_now()
            assert retired_before  # some windows already final

            tree.kill_relay(1, 0)  # clients 0 and 2 must re-parent

            for i, record in enumerate(records[half:], start=half):
                clients[i % 4].push(record)
            deadline = time.time() + 30.0
            for client in clients:
                while not client.flush():
                    assert time.time() < deadline, "failover never completed"
                    time.sleep(0.2)
                client.close()
            tree.sync()
            tree.root.retire_now()
            mark = tree.root.watermark()
            ref = reference(records)
            assert summarize(tree.root.retired_results()) == {
                key: val for key, val in ref.items() if key[2] <= mark
            }
            assert summarize(tree.root.drain_results()) == ref
