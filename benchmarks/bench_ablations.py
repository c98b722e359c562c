"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Per-thread DBs vs a shared locked DB** — the paper chooses per-thread
   databases "as this design avoids the use of thread locks".
2. **Reduction-tree fanout** — binomial (k=2) vs flatter k-ary trees in the
   cross-process reduction (Section IV-C).
3. **On-line vs off-line placement** of the same aggregation — Section
   VI-F's observation that the stages are interchangeable, quantified as a
   volume/time tradeoff.
"""

import threading

import pytest

from repro.aggregate import AggregationDB, AggregationScheme, make_op
from repro.apps.paradis import TOTAL_TIME_QUERY, ParaDiSConfig, generate_rank_records
from repro.common import Record
from repro.query import MPIQueryRunner, QueryEngine


def _records(n=4000):
    return [
        Record(
            {
                "kernel": f"k{i % 11}",
                "mpi.rank": i % 32,
                "iteration": (i // 32) % 50,
                "time.duration": 0.25 + (i % 7) * 0.5,
            }
        )
        for i in range(n)
    ]


RECORDS = _records()


def _scheme():
    return AggregationScheme(
        ops=[make_op("count"), make_op("sum", ["time.duration"])],
        key=["kernel", "mpi.rank", "iteration"],
    )


# -- 1. per-thread vs shared locked DB -------------------------------------------


class _LockedSharedDB:
    """The design the paper rejects: one DB, one lock, all threads."""

    def __init__(self, scheme):
        self.db = AggregationDB(scheme)
        self.lock = threading.Lock()

    def process(self, record):
        with self.lock:
            self.db.process(record)


@pytest.mark.parametrize("design", ["per-thread", "shared-locked"])
def test_ablation_threading_design(benchmark, design):
    """4 threads streaming records concurrently under both designs."""
    n_threads = 4
    chunks = [RECORDS[i::n_threads] for i in range(n_threads)]

    def run_per_thread():
        dbs = [AggregationDB(_scheme()) for _ in range(n_threads)]

        def worker(db, chunk):
            process = db.process
            for record in chunk:
                process(record)

        threads = [
            threading.Thread(target=worker, args=(dbs[i], chunks[i]))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = AggregationDB(_scheme())
        for db in dbs:
            merged.combine(db)
        return merged

    def run_shared():
        shared = _LockedSharedDB(_scheme())

        def worker(chunk):
            for record in chunk:
                shared.process(record)

        threads = [
            threading.Thread(target=worker, args=(chunks[i],)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return shared.db

    db = benchmark(run_per_thread if design == "per-thread" else run_shared)
    assert db.num_processed == len(RECORDS)


# -- 2. reduction-tree fanout ---------------------------------------------------


@pytest.mark.parametrize("fanout", [2, 4, 8], ids=lambda f: f"fanout{f}")
def test_ablation_reduction_fanout(benchmark, fanout):
    cfg = ParaDiSConfig(ranks=64, records_per_rank=200, iterations=20)
    per_rank = [generate_rank_records(cfg, r) for r in range(64)]

    def run():
        runner = MPIQueryRunner(TOTAL_TIME_QUERY, size=64, fanout=fanout)
        return runner.run_records(per_rank)

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    assert outcome.num_output_records > 0


def test_ablation_fanout_tradeoff(benchmark):
    """Deeper trees (k=2) have more levels; flatter trees (k=8) do more
    sequential combines at each node.  Print the measured tradeoff."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cfg = ParaDiSConfig(ranks=64, records_per_rank=200, iterations=20)
    per_rank = [generate_rank_records(cfg, r) for r in range(64)]
    print()
    print("Reduction-tree fanout ablation (64 ranks)")
    for fanout in (2, 4, 8, 16):
        runner = MPIQueryRunner(
            TOTAL_TIME_QUERY, size=64, fanout=fanout, local_rate=2e5, combine_rate=2e5
        )
        outcome = runner.run_records(per_rank)
        print(
            f"  fanout {fanout:>2}: reduce {outcome.times.reduce * 1e3:8.3f} ms, "
            f"messages {outcome.messages}"
        )


# -- 3. on-line vs off-line placement of the aggregation ----------------------------


def test_ablation_stage_shift(benchmark):
    """Same end result, different stage split: aggregate fully on-line (tiny
    intermediate volume) vs trace + aggregate off-line (full volume)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fine = RECORDS
    online = QueryEngine(
        "AGGREGATE sum(time.duration) GROUP BY kernel ORDER BY kernel"
    ).run(fine)

    # two-stage: per-rank profile first (the "on-line" stage), then reduce
    staged_1 = QueryEngine(
        "AGGREGATE sum(time.duration) GROUP BY kernel, mpi.rank"
    ).run(fine)
    staged_2 = QueryEngine(
        "AGGREGATE sum(sum#time.duration) GROUP BY kernel ORDER BY kernel"
    ).run(list(staged_1))

    a = {r.get("kernel").value: r["sum#time.duration"].to_double() for r in online}
    b = {
        r.get("kernel").value: r["sum#sum#time.duration"].to_double() for r in staged_2
    }
    assert set(a) == set(b)
    for key in a:
        assert abs(a[key] - b[key]) < 1e-6 * max(1.0, abs(a[key]))

    print()
    print("Stage-shift ablation: identical results, different intermediate volume")
    print(f"  input records:              {len(fine)}")
    print(f"  direct aggregation output:  {len(online)}")
    print(f"  staged intermediate volume: {len(staged_1)}")
