"""Federated reduction-tree aggregation: topology, exactness, failover.

The acceptance scenario for the tree subsystem: a multi-level tree of
relay servers must produce root results *exactly* equal to a serial
reference over the union of all leaf records — in the happy path, and
after a mid-tree relay is killed abruptly while data is in flight (its
children re-parent to the grandparent, the dead incarnation's partial
contribution is retracted, and spools replay).

All synthetic measurement values are multiples of 0.25 (exact binary
fractions), so float sums are order-independent and the equality checks
below are exact, not approximate — any mismatch is a lost or
double-counted record, never rounding.
"""

from __future__ import annotations

import time

import pytest

from repro.aggregate import StateTable
from repro.aggregate.db import AggregationDB
from repro.calql import parse_scheme
from repro.common import Record
from repro.common.variant import Variant
from repro.io import ColumnStore
from repro.net import LocalTree, plan_tree

SCHEME = "AGGREGATE count, sum(x) GROUP BY k"


def synth(seed: int, n: int, keys: int = 5) -> list[Record]:
    """Deterministic records; x values are exact binary fractions."""
    return [
        Record.from_variants(
            {
                "k": Variant.of(f"key-{(seed + i) % keys}"),
                "x": Variant.of(0.25 * ((seed * 7 + i) % 13)),
            }
        )
        for i in range(n)
    ]


def reference(records) -> list:
    db = AggregationDB(parse_scheme(SCHEME))
    for record in records:
        db.process(record)
    return result_keys(db.flush())


def result_keys(records) -> list:
    return sorted(
        (r.get("k").to_string(), r.get("count").value, r.get("sum#x").value)
        for r in records
    )


class TestPlanTree:
    def test_shapes(self):
        assert plan_tree(4, 2) == [1, 2]
        assert plan_tree(8, 2) == [1, 2, 4]
        assert plan_tree(16, 2) == [1, 2, 4, 8]
        assert plan_tree(16, 4) == [1, 4]
        assert plan_tree(9, 3) == [1, 3]

    def test_small_trees_collapse_to_star(self):
        assert plan_tree(1, 2) == [1]
        assert plan_tree(2, 2) == [1]
        assert plan_tree(4, 4) == [1]

    def test_every_level_fits_under_its_parent_level(self):
        for leaves in range(1, 40):
            for fanin in (2, 3, 4):
                sizes = plan_tree(leaves, fanin)
                assert sizes[0] == 1
                for above, below in zip(sizes, sizes[1:]):
                    assert below <= above * fanin

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_tree(0, 2)
        with pytest.raises(ValueError):
            plan_tree(4, 1)


class TestTreeExactness:
    def test_two_level_root_matches_serial_reference(self):
        all_records = []
        with LocalTree(SCHEME, n_leaves=4, level_sizes=[1, 2]) as tree:
            assert tree.depth == 2
            for i in range(4):
                records = synth(i * 31, 50)
                all_records.extend(records)
                client = tree.leaf_client(i, batch_size=16)
                assert client.send_records(records)
                client.close()
            assert tree.sync()
            got = result_keys(tree.root.drain_results())
        assert got == reference(all_records)

    def test_three_level_root_matches_serial_reference(self):
        all_records = []
        with LocalTree(SCHEME, n_leaves=8, level_sizes=[1, 2, 4]) as tree:
            assert tree.depth == 3
            clients = [tree.leaf_client(i, batch_size=8) for i in range(8)]
            for i, client in enumerate(clients):
                records = synth(i * 31, 30, keys=7)
                all_records.extend(records)
                assert client.send_records(records)
            assert tree.sync()
            got = result_keys(tree.root.drain_results())
            for client in clients:
                client.close()
        assert got == reference(all_records)

    def test_a_live_root_query_builds_no_record_per_group(self, monkeypatch):
        """The root's second stage reads the merged state rendered as
        columns: no ``StateTable.flush`` and no records-built store on the
        way (the CI tree smoke checks the same); records are built for the
        answer's rows only, when read."""
        all_records = []
        with LocalTree(SCHEME, n_leaves=4, level_sizes=[1, 2]) as tree:
            for i in range(4):
                records = synth(i * 31, 50, keys=40)
                all_records.extend(records)
                client = tree.leaf_client(i, batch_size=16)
                assert client.send_records(records)
                client.close()
            assert tree.sync()

            def refuse(*args, **kwargs):
                raise AssertionError("a Record was built per group")

            with monkeypatch.context() as patch:
                patch.setattr(StateTable, "flush", refuse)
                patch.setattr(ColumnStore, "from_records", refuse)
                answer = tree.root.run_query("AGGREGATE sum(count), sum(sum#x) GROUP BY k")
                got = sorted(
                    (r.get("k").to_string(), r.get("sum#count").value, r.get("sum#sum#x").value)
                    for r in answer.records
                )
        assert got == reference(all_records)

    def test_tree_root_receives_fewer_bytes_than_flat_star(self):
        """What the tree is for: relays forward per-key partial states, so
        the root's inbound bytes stop growing with the record count."""
        per_leaf = [synth(i * 31, 200) for i in range(8)]
        want = reference([r for records in per_leaf for r in records])
        root_rx = {}
        for name, sizes in (("star", [1]), ("tree", plan_tree(8))):
            with LocalTree(SCHEME, n_leaves=8, level_sizes=sizes) as tree:
                for i, records in enumerate(per_leaf):
                    client = tree.leaf_client(i, batch_size=50)
                    assert client.send_records(records)
                    client.close()
                assert tree.sync()
                root_rx[name] = tree.root.metrics.counter_value("net.bytes.rx")
                assert result_keys(tree.root.drain_results()) == want, name
        # Under half, not merely under: a relay passing its records through
        # unfolded would still save the root six leaf handshakes.
        assert 0 < 2 * root_rx["tree"] < root_rx["star"], root_rx

    def test_sync_waits_for_the_periodic_forwarders_inflight_cycle(self):
        """sync() must not return while a relay's own forwarder thread still
        holds a detached delta: the first root answer is complete, no polling."""
        serial = AggregationDB(parse_scheme(SCHEME))
        with LocalTree(
            SCHEME, n_leaves=2, level_sizes=[1, 2], forward_interval=0.01
        ) as tree:
            # One batch per round and many keys: the forwarder's cycle is long
            # next to its interval, so without the wait it is caught mid-flight
            # in roughly one round in ten.
            clients = [tree.leaf_client(i, batch_size=128) for i in range(2)]
            for round_ in range(50):
                for i, client in enumerate(clients):
                    records = synth(round_ * 2 + i, 128, keys=2000)
                    for record in records:
                        serial.process(record)
                    assert client.send_records(records)
                assert tree.sync()
                got = result_keys(tree.root.drain_results())
                assert got == result_keys(serial.flush()), f"stale in round {round_}"
            for client in clients:
                client.close()

    def test_telemetry_queryable_at_root(self):
        with LocalTree(SCHEME, n_leaves=4, level_sizes=[1, 2]) as tree:
            for i in range(2):  # leaves 0/1 land on different relays
                client = tree.leaf_client(i)
                assert client.send_records(synth(3 + i, 20))
                client.close()
            assert tree.sync()
            result = tree.root.run_query(
                "SELECT observe.node, observe.level, observe.forward.bytes "
                "WHERE observe.kind=tree",
                target="telemetry",
            )
            rows = {
                r.get("observe.node").to_string(): r.get("observe.level").value
                for r in result.records
            }
        # The root knows about itself and both relays, with correct levels.
        assert rows["root"] == 0
        assert rows["relay-L1-0"] == 1
        assert rows["relay-L1-1"] == 1


class TestTreeFailover:
    def test_leaves_reparent_to_grandparent_after_relay_kill(self, tmp_path):
        all_records = []
        with LocalTree(SCHEME, n_leaves=4, level_sizes=[1, 2], failover_after=0.1) as tree:
            clients = [
                tree.leaf_client(
                    i,
                    batch_size=8,
                    retries=1,
                    backoff=0.02,
                    timeout=1.0,
                    spool_dir=str(tmp_path / f"spool-{i}"),
                )
                for i in range(4)
            ]
            # Phase 1: everyone streams; both relays forward partials upward.
            for i, client in enumerate(clients):
                records = synth(i * 31, 40)
                all_records.extend(records)
                assert client.send_records(records)
            tree.sync()

            # Kill relay L1-0 abruptly (serves leaves 0 and 2, round-robin).
            tree.kill_relay(1, 0)

            # Phase 2: leaves keep streaming.  Leaves 0/2 hit the dead relay,
            # spool, and must fail over to the grandparent (the root).
            for i, client in enumerate(clients):
                records = synth(i * 131 + 7, 40)
                all_records.extend(records)
                client.send_records(records)

            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                done = all(client.flush() for client in clients)
                if (
                    done
                    and clients[0].counters["failovers"]
                    and clients[2].counters["failovers"]
                ):
                    break
                time.sleep(0.05)
            assert clients[0].counters["failovers"] >= 1
            assert clients[2].counters["failovers"] >= 1
            assert clients[1].counters["failovers"] == 0
            assert clients[3].counters["failovers"] == 0

            tree.sync()
            got = result_keys(tree.root.drain_results())
            for client in clients:
                client.close()
        # Exact: the dead relay's forwarded partials were retracted and the
        # re-parented leaves replayed their spools first-hand.
        assert got == reference(all_records)

    def test_midtree_relay_kill_reparents_child_relays(self, tmp_path):
        """Kill an L1 relay whose children are themselves relays (L2)."""
        all_records = []
        with LocalTree(
            SCHEME, n_leaves=8, level_sizes=[1, 2, 4], failover_after=0.1
        ) as tree:
            clients = [
                tree.leaf_client(
                    i,
                    batch_size=8,
                    retries=1,
                    backoff=0.02,
                    timeout=1.0,
                    spool_dir=str(tmp_path / f"spool-{i}"),
                )
                for i in range(8)
            ]
            for i, client in enumerate(clients):
                records = synth(i * 31, 30, keys=7)
                all_records.extend(records)
                assert client.send_records(records)
            tree.sync()

            tree.kill_relay(1, 0)  # children: bottom relays L2-0 and L2-2

            for i, client in enumerate(clients):
                records = synth(i * 131 + 7, 30, keys=7)
                all_records.extend(records)
                client.send_records(records)

            # Drive forward cycles until the orphaned bottom relays re-parent
            # to the root.  Each sync retries their spooled forwards, which is
            # what advances the failure window.
            bottom = tree.levels[2]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                for client in clients:
                    client.flush()
                tree.sync()
                failovers = [n._relay.client.counters["failovers"] for n in bottom]
                if failovers[0] >= 1 and failovers[2] >= 1:
                    break
                time.sleep(0.05)
            assert bottom[0]._relay.client.counters["failovers"] >= 1
            assert bottom[2]._relay.client.counters["failovers"] >= 1

            tree.sync()
            tree.sync()
            got = result_keys(tree.root.drain_results())
            for client in clients:
                client.close()
        assert got == reference(all_records)
