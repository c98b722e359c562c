"""Ablation: row-streaming vs columnar (vectorized) off-line aggregation.

The on-line path must stream record by record; the off-line path can
convert to columns and use numpy group-by.  This benchmark measures both
backends on the same profile-shaped dataset — the vectorization payoff the
scientific-Python optimization guides predict for batch analytics.
"""

import pytest

from repro.aggregate import aggregate_records
from repro.calql import parse_scheme
from repro.common import Record
from repro.query.columnar import columnar_aggregate

RECORDS = [
    Record(
        {
            "kernel": f"k{i % 13}",
            "mpi.rank": i % 64,
            "iteration": (i // 64) % 50,
            "time.duration": 0.25 + (i % 7) * 0.5,
        }
    )
    for i in range(20_000)
]

SCHEME = parse_scheme(
    "AGGREGATE count, sum(time.duration), min(time.duration), max(time.duration) "
    "GROUP BY kernel, mpi.rank"
)


FULL_OP_SCHEME = parse_scheme(
    "AGGREGATE count, sum(time.duration), avg(time.duration), "
    "variance(time.duration), percent_total(time.duration), "
    "histogram(time.duration,8,0,4), ratio(time.duration,iteration) "
    "GROUP BY kernel, mpi.rank"
)


def columnar_records(records, scheme):
    """The columnar result as records, as the row engine returns it."""
    return columnar_aggregate(records, scheme).records


@pytest.mark.parametrize("backend", ["row-streaming", "columnar"])
def test_offline_backend(benchmark, backend):
    fn = aggregate_records if backend == "row-streaming" else columnar_records
    out = benchmark(lambda: fn(RECORDS, SCHEME))
    assert len(out) == 13 * 64


@pytest.mark.parametrize("backend", ["row-streaming", "columnar"])
def test_full_operator_set(benchmark, backend):
    """The complete vectorized kernel set vs streaming on the same scheme."""
    fn = aggregate_records if backend == "row-streaming" else columnar_records
    out = benchmark(lambda: fn(RECORDS, FULL_OP_SCHEME))
    assert len(out) == 13 * 64


@pytest.mark.parametrize("path", ["planner-cold", "planner-cached", "rows"])
def test_planned_query_over_dataset(benchmark, path):
    """Dataset.query through the planner: the cached ColumnStore pays off
    once the same dataset is queried repeatedly."""
    from repro.io import Dataset

    ds = Dataset(RECORDS)
    text = (
        "AGGREGATE count, sum(time.duration), variance(time.duration) "
        'WHERE kernel!="k0" GROUP BY kernel, mpi.rank'
    )
    if path == "rows":
        run = lambda: ds.query(text, backend="rows")
    elif path == "planner-cached":
        ds.query(text)  # warm the interned columns
        run = lambda: ds.query(text)
    else:
        def run():
            ds._store = None  # drop the cache: measure intern + aggregate
            return ds.query(text)

    out = benchmark(run)
    assert len(out) == 12 * 64


def test_backends_agree(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    a = {
        tuple(sorted(r.to_plain().items())): None for r in aggregate_records(RECORDS, SCHEME)
    }
    b = {
        tuple(sorted(r.to_plain().items())): None for r in columnar_records(RECORDS, SCHEME)
    }
    assert a.keys() == b.keys()
