"""Section V: 'a comprehensive overhead study of the aggregation operations'.

Micro-benchmarks of the aggregation hot path: per-snapshot cost of each
operator kernel, of key extraction, and of whole-record processing under
keys of different widths — the constants behind the Fig. 3 overheads.
"""

import pytest

from repro.aggregate import AggregationDB, AggregationScheme, make_op
from repro.common import Record

RECORDS = [
    Record(
        {
            "function": f"main/f{i % 7}",
            "kernel": f"k{i % 5}",
            "mpi.rank": i % 16,
            "iteration": i % 100,
            "time.duration": 0.5 + (i % 13) * 0.25,
        }
    )
    for i in range(2000)
]

OPERATORS = [
    ("count", []),
    ("sum", ["time.duration"]),
    ("min", ["time.duration"]),
    ("max", ["time.duration"]),
    ("avg", ["time.duration"]),
    ("variance", ["time.duration"]),
    ("histogram", ["time.duration", "16", "0", "4"]),
]


@pytest.mark.parametrize("name,args", OPERATORS, ids=[o[0] for o in OPERATORS])
def test_operator_update_cost(benchmark, name, args):
    """Per-record streaming update cost of a single operator."""
    op = make_op(name, args)
    state = op.init()
    gets = [r.get for r in RECORDS]

    def run():
        for get in gets:
            op.update(state, get)

    benchmark(run)


@pytest.mark.parametrize("key_width", [1, 2, 4], ids=lambda w: f"key{w}")
def test_db_process_cost(benchmark, key_width):
    """Whole-pipeline per-snapshot cost: key extraction + kernel updates."""
    key = ["kernel", "mpi.rank", "function", "iteration"][:key_width]
    scheme = AggregationScheme(
        ops=[make_op("count"), make_op("sum", ["time.duration"])],
        key=key,
    )

    def run():
        db = AggregationDB(scheme)
        process = db.process
        for record in RECORDS:
            process(record)
        return db

    db = benchmark(run)
    assert db.num_processed == len(RECORDS)


def test_combine_cost(benchmark):
    """Cost of merging two partial databases (the tree-reduction step)."""
    scheme = AggregationScheme(
        ops=[make_op("count"), make_op("sum", ["time.duration"])],
        key=["kernel", "mpi.rank", "iteration"],
    )
    a = AggregationDB(scheme)
    b = AggregationDB(scheme)
    a.process_all(RECORDS[::2])
    b.process_all(RECORDS[1::2])

    def run():
        merged = AggregationDB(scheme)
        merged.combine(a)
        merged.combine(b)
        return merged

    merged = benchmark(run)
    assert merged.num_entries > 0


def test_flush_cost(benchmark):
    scheme = AggregationScheme(
        ops=[make_op("count"), make_op("sum", ["time.duration"])],
        key=["kernel", "mpi.rank", "iteration"],
    )
    db = AggregationDB(scheme)
    db.process_all(RECORDS)

    out = benchmark(db.flush)
    assert len(out) == db.num_entries
