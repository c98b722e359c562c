"""Multi-tenant admission control: auth, quotas, shedding, dedup TTL.

The server's contract under pressure: unknown tokens and exhausted
quotas are refused at the handshake, a full shard queue sheds batches with
BUSY instead of blocking the event loop, a shed batch replays from the
client's write-ahead spool exactly once, tenants never observe each
other's records, and idle clients' dedup state is reaped by TTL.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common import Record
from repro.common.errors import ReproError
from repro.net import AggregationServer, FlushClient, TenantQuota

SCHEME = "AGGREGATE count, sum(v) GROUP BY k"


def recs(tag: str, n: int) -> list[Record]:
    return [Record({"k": f"{tag}{i % 4}", "v": float(i)}) for i in range(n)]


def total_count(records) -> int:
    return sum(int(r["count"].value) for r in records)


# -- full-jitter backoff envelope ---------------------------------------------


def test_retry_delay_full_jitter_envelope():
    """Delays are uniform over [0, capped exponential); retry_after floors."""
    client = FlushClient("127.0.0.1", 1, backoff=0.1, backoff_max=2.0)
    try:
        for attempt in range(1, 12):
            cap = min(0.1 * 2 ** (attempt - 1), 2.0)
            for _ in range(200):
                delay = client._retry_delay(attempt)
                assert 0.0 <= delay <= cap
        # A server-named retry_after is a hard floor with jitter on top.
        for _ in range(200):
            delay = client._retry_delay(1, retry_after=0.5)
            assert 0.5 <= delay <= 0.5 + 0.1
        # Full jitter actually spreads — constant delays would re-synchronise
        # the thundering herd the jitter exists to break up.
        draws = {client._retry_delay(4) for _ in range(50)}
        assert len(draws) > 10
    finally:
        client.abort()


# -- tenant namespaces --------------------------------------------------------


def test_tenant_isolation():
    """Two tenants stream concurrently; neither's queries see the other."""
    tenants = {"tok-alpha": "alpha", "tok-beta": {"name": "beta"}}
    with AggregationServer(SCHEME, shards=2, tenants=tenants) as srv:
        with FlushClient(*srv.address, token="tok-alpha", batch_size=16) as a:
            with FlushClient(*srv.address, token="tok-beta", batch_size=16) as b:
                a.push_all(recs("a", 100))
                b.push_all(recs("b", 60))
                assert a.flush() and b.flush()

                alpha = srv.drain_results(tenant="alpha")
                beta = srv.drain_results(tenant="beta")
                assert total_count(alpha) == 100
                assert total_count(beta) == 60
                assert all(r["k"].value.startswith("a") for r in alpha)
                assert all(r["k"].value.startswith("b") for r in beta)
                # The shared default namespace saw nothing at all.
                assert srv.drain_results() == []

                result = srv.run_query(
                    "AGGREGATE sum(count) GROUP BY k", tenant="beta"
                )
                assert all(
                    r["k"].value.startswith("b") for r in result.records
                )


def test_tenant_flood_does_not_leak_or_evict():
    """One tenant flooding full-tilt never perturbs another's totals."""
    tenants = {"tok-loud": "loud", "tok-quiet": "quiet"}
    with AggregationServer(
        SCHEME, shards=1, queue_depth=4, tenants=tenants
    ) as srv:
        with FlushClient(*srv.address, token="tok-loud", batch_size=8) as loud:
            with FlushClient(
                *srv.address, token="tok-quiet", batch_size=8
            ) as quiet:
                loud.push_all(recs("l", 400))
                quiet.push_all(recs("q", 40))
                assert quiet.flush() and loud.flush()
        assert total_count(srv.drain_results(tenant="quiet")) == 40
        assert total_count(srv.drain_results(tenant="loud")) == 400


# -- handshake refusals -------------------------------------------------------


def test_unknown_token_rejected_at_hello():
    with AggregationServer(SCHEME, tenants={"tok": "t"}) as srv:
        client = FlushClient(*srv.address, token="wrong", retries=0)
        try:
            client.push(Record({"k": "x", "v": 1.0}))
            with pytest.raises(ReproError, match="auth token"):
                client.flush()
        finally:
            client.abort()


def test_require_token_rejects_anonymous_clients():
    with AggregationServer(
        SCHEME, tenants={"tok": "t"}, require_token=True
    ) as srv:
        client = FlushClient(*srv.address, retries=0)
        try:
            client.push(Record({"k": "x", "v": 1.0}))
            with pytest.raises(ReproError, match="requires an auth token"):
                client.flush()
        finally:
            client.abort()
        # The registered tenant still gets in.
        with FlushClient(*srv.address, token="tok", batch_size=4) as ok:
            ok.push_all(recs("t", 4))
            assert ok.flush()


def test_connection_quota_rejects_excess_hello():
    tenants = {"tok": {"name": "small", "max_connections": 1}}
    with AggregationServer(SCHEME, tenants=tenants) as srv:
        with FlushClient(*srv.address, token="tok", batch_size=4) as first:
            first.push_all(recs("a", 4))
            assert first.flush()  # holds the tenant's one connection slot
            second = FlushClient(*srv.address, token="tok", retries=0)
            try:
                second.push(Record({"k": "x", "v": 1.0}))
                with pytest.raises(ReproError, match="connection quota"):
                    second.flush()
            finally:
                second.abort()
        # The slot frees on disconnect: a later client is admitted again.
        with FlushClient(*srv.address, token="tok", batch_size=4) as third:
            third.push_all(recs("c", 4))
            assert third.flush()


def test_entries_quota_refuses_hard():
    """Entry quotas refuse with a fatal ERROR, not BUSY — entries never drain."""
    tenants = {"tok": {"name": "bounded", "max_db_entries": 3}}
    with AggregationServer(SCHEME, shards=1, tenants=tenants) as srv:
        client = FlushClient(*srv.address, token="tok", batch_size=8, retries=0)
        try:
            client.push_all(recs("e", 8))  # 4 distinct keys -> 4 entries
            client.flush()
            srv.merged_db(tenant="bounded")  # barrier: folds are visible
            with pytest.raises(ReproError, match="entry quota"):
                client.push_all(recs("e", 8))  # ships at batch_size
                client.flush()
            assert client.counters["busy"] == 0  # refused, never shed
        finally:
            client.abort()


def test_quota_spec_takes_exactly_the_documented_keys():
    name, quota = TenantQuota.from_spec(
        {"name": "a", "max_connections": 2, "max_queued": 3, "max_db_entries": 4}
    )
    assert (name, quota.max_connections, quota.max_queued, quota.max_db_entries) == ("a", 2, 3, 4)
    assert TenantQuota.from_spec("b")[1].max_db_entries == 0  # bare name: unlimited


@pytest.mark.parametrize("key", ["max_entires", "max_entries", "max_queued_batches"])
def test_quota_spec_rejects_unknown_keys(key):
    """A misspelt (or retired alias) quota key must not mean "unlimited"."""
    with pytest.raises(ValueError, match=key):
        TenantQuota.from_spec({"name": "a", key: 3})
    with pytest.raises(ValueError, match=key):
        AggregationServer(SCHEME, tenants={"tok": {"name": "a", key: 3}})


# -- admission control: shed, spool, replay -----------------------------------


def test_shed_then_spool_replay_exactly_once():
    """A stalled shard sheds with BUSY; the spool replays exactly once.

    A barrier call that waits parks the single shard worker, so with
    ``queue_depth=1`` and ``admission_timeout=0`` the second batch finds
    the queue full and is shed.  Shed batches are never dedup-marked, so
    the replay after the stall lifts must fold every record exactly once.
    """
    with AggregationServer(
        SCHEME,
        shards=1,
        queue_depth=1,
        admission_timeout=0.0,
        busy_retry_after=0.02,
    ) as srv:
        release, parked = threading.Event(), threading.Event()

        def park(shard) -> None:
            parked.set()
            release.wait(timeout=30)

        threading.Thread(target=srv._shards.call, args=(park,), daemon=True).start()
        assert parked.wait(timeout=5)  # the worker is inside the call
        client = FlushClient(
            *srv.address,
            batch_size=8,
            busy_retries=2,
            backoff=0.01,
            backoff_max=0.05,
            client_id="shed-client",
        )
        try:
            records = recs("s", 24)  # three batches of eight
            client.push_all(records)
            assert not client.flush()  # stalled server: spooled, not lost
            assert client.counters["busy"] > 0
            assert client.num_spooled > 0
            assert srv._admission.tenants["default"].shed > 0

            release.set()
            deadline = time.time() + 15
            while not client.flush():
                assert time.time() < deadline, "replay never drained the spool"
                time.sleep(0.05)
            assert client.num_spooled == 0

            got = srv.drain_results()
            # Exactly once: nothing lost to the shed, nothing double-counted
            # by the replay.
            assert total_count(got) == len(records)
        finally:
            release.set()
            client.close()


# -- dedup state TTL ----------------------------------------------------------


def test_dedup_state_pruned_after_idle_ttl():
    """An aborted client's dedup entry is reaped by TTL, not by BYE."""
    with AggregationServer(SCHEME, dedup_ttl=0.2) as srv:
        client = FlushClient(
            *srv.address, batch_size=4, client_id="ttl-client"
        )
        client.push_all(recs("t", 4))
        assert client.flush()
        assert "ttl-client" in srv._dedup
        client.abort()  # no BYE: only the TTL sweep can reclaim the entry
        deadline = time.time() + 10
        while "ttl-client" in srv._dedup:
            assert time.time() < deadline, "dedup entry never pruned"
            time.sleep(0.05)


def test_bye_still_forgets_immediately():
    """Orderly BYE drops dedup state without waiting out the TTL."""
    with AggregationServer(SCHEME, dedup_ttl=900.0) as srv:
        with FlushClient(
            *srv.address, batch_size=4, client_id="short-lived"
        ) as client:
            client.push_all(recs("t", 4))
            assert client.flush()
            assert "short-lived" in srv._dedup
        deadline = time.time() + 5
        while "short-lived" in srv._dedup:
            assert time.time() < deadline, "BYE did not forget the client"
            time.sleep(0.02)
