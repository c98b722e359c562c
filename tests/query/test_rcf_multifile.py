"""Multi-file ``.rcf`` queries stay columnar.

Every way of running an aggregation query over several ``.rcf`` files — a
path list (serial and pooled), a glob, ``parallel_query_files``, the
simulated-MPI runner and the CLI — folds decoded chunk stores and must equal
the reference row engine run over the records with each file's globals
folded in.  Unless LET or WINDOW derive the rows, none of them may build a
``Record`` on the way.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.common import Record
from repro.io import colfile, write_colfile
from repro.query import MPIQueryRunner, QueryEngine, QueryOptions, parallel_query_files
from repro.query.cli import main as cli_main

#: every ORDER BY is total over its GROUP BY, so row lists compare in order;
#: ``rank`` only exists as a per-file global, ``origin`` is both a column and
#: (in some files) a global
QUERIES = [
    "AGGREGATE count, sum(t), min(t), max(t) GROUP BY kernel ORDER BY kernel",
    "AGGREGATE count, sum(t) GROUP BY rank, kernel ORDER BY rank, kernel",
    "AGGREGATE count, max(t) GROUP BY origin, level ORDER BY origin, level",
    "AGGREGATE sum(t) WHERE level>0 GROUP BY rank ORDER BY sum#t DESC, rank",
    "AGGREGATE count WHERE origin=file GROUP BY kernel ORDER BY count DESC, kernel",
]

#: durations are multiples of 0.25, so sums are exact in any combine order
record_st = st.builds(
    lambda kernel, level, quarter: Record(
        {
            key: value
            for key, value in (
                ("kernel", kernel),
                ("level", level),
                ("t", quarter * 0.25),
                ("origin", "row"),
            )
            if value is not None
        }
    ),
    kernel=st.sampled_from([None, "k0", "k1", "k2"]),
    level=st.sampled_from([None, 0, 1, 2]),
    quarter=st.integers(min_value=0, max_value=400),
)

file_st = st.tuples(
    st.lists(record_st, max_size=25),
    st.integers(min_value=1, max_value=9),  # chunk_rows
    st.booleans(),  # this file's globals override the ``origin`` column
)


def rows(result) -> list:
    return [sorted(r.to_plain().items()) for r in result.records]


def write_files(directory: str, files) -> tuple[list[str], list[Record]]:
    """Write one ``.rcf`` per entry; returns the paths and the oracle's input
    (every record with its file's globals folded in, in file order)."""
    paths, folded = [], []
    for rank, (records, chunk_rows, collides) in enumerate(files):
        globals_ = {"rank": rank, "origin": "file"} if collides else {"rank": rank}
        path = os.path.join(directory, f"part-{rank}.rcf")
        write_colfile(path, records, globals_=globals_, chunk_rows=chunk_rows)
        paths.append(path)
        folded.extend(r.with_entries(globals_) for r in records)
    return paths, folded


@given(files=st.lists(file_st, min_size=2, max_size=4), query=st.sampled_from(QUERIES))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_multifile_spelling_equals_the_rows_oracle(files, query):
    with tempfile.TemporaryDirectory() as directory:
        paths, folded = write_files(directory, files)
        want = rows(QueryEngine(query).run(folded, backend="rows"))
        assert rows(api.query(query, paths, jobs=1)) == want
        assert rows(api.query(query, paths, jobs=2)) == want
        assert rows(api.query(query, os.path.join(directory, "part-*.rcf"))) == want
        assert rows(MPIQueryRunner(query, size=2).run_files(paths).result) == want


@pytest.fixture
def two_files(tmp_path):
    files = [
        ([Record({"kernel": f"k{j % 3}", "t": 0.25 * j, "origin": "row"}) for j in range(20)],
         6, rank == 1)
        for rank in range(2)
    ]
    return write_files(str(tmp_path), files)


def test_auto_backend_never_hydrates_a_record(two_files, no_record_hydration, capsys):
    paths, folded = two_files
    query = QUERIES[1]
    want = QueryEngine(query).run(folded, backend="rows")
    glob_source = os.path.join(os.path.dirname(paths[0]), "part-*.rcf")
    for got in (
        api.query(query, paths, jobs=1),
        api.query(query, paths, jobs=2),  # forked workers inherit the patch
        api.query(query, glob_source),
        parallel_query_files(query, paths, QueryOptions(jobs=2)),
        MPIQueryRunner(query, size=2).run_files(paths).result,
    ):
        assert rows(got) == rows(want)
    for jobs in ([], ["--jobs", "2"]):
        assert cli_main(["-q", query, *jobs, *paths]) == 0
        assert capsys.readouterr().out == str(want) + "\n"


def test_let_hydrates_nothing_and_the_rows_engine_still_matches(two_files, monkeypatch):
    paths, folded = two_files
    hydrated = []
    real = colfile.records_from_store

    def counting(store):
        hydrated.append(len(store))
        return real(store)

    monkeypatch.setattr(colfile, "records_from_store", counting)
    per_chunk = [6, 6, 6, 2] * 2  # 20 rows in chunks of 6, two files
    query = QUERIES[1]
    want = rows(QueryEngine(query).run(folded, backend="rows"))
    # the reference engine reads each file as its own input, chunk by
    # chunk, every row once
    assert rows(api.query(query, paths, jobs=1, backend="rows")) == want
    assert hydrated == per_chunk
    let_query = "LET half = t / 2 AGGREGATE count, sum(half) GROUP BY rank ORDER BY rank"
    want = rows(QueryEngine(let_query).run(folded, backend="rows"))
    del hydrated[:]
    # LET adds its columns to each chunk store: nothing is hydrated
    assert rows(api.query(let_query, paths, jobs=1)) == want
    assert hydrated == []
    # the reference engine hydrates the derived chunk stores, every row once
    assert rows(api.query(let_query, paths, jobs=1, backend="rows")) == want
    assert hydrated == per_chunk
