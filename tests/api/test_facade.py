"""The unified public entry point (repro.api.query).

Every source flavor the facade dispatches on must return results identical
to calling the wrapped engine directly.
"""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.common import QueryError, Record
from repro.io.dataset import Dataset, write_records
from repro.query import QueryEngine, QueryOptions, parallel_query_files

QUERY = "AGGREGATE count, sum(x) GROUP BY k ORDER BY k"


def make_records(seed: int = 0, n: int = 40) -> list[Record]:
    return [
        Record({"k": f"key-{(seed + i) % 4}", "x": 0.25 * ((seed + i) % 9)})
        for i in range(n)
    ]


def rows(result) -> list:
    return [
        sorted((label, v.value) for label, v in record.items())
        for record in result.records
    ]


@pytest.fixture()
def files(tmp_path):
    paths = []
    for i in range(3):
        path = tmp_path / f"part-{i}.json"
        write_records(path, make_records(seed=i * 17))
        paths.append(str(path))
    return paths


class TestQueryDispatch:
    def test_records_iterable(self):
        records = make_records()
        got = api.query(QUERY, records)
        want = QueryEngine(QUERY).run(records)
        assert rows(got) == rows(want)

    def test_generator_source(self):
        records = make_records()
        got = api.query(QUERY, (r for r in records))
        want = QueryEngine(QUERY).run(records)
        assert rows(got) == rows(want)

    def test_single_path(self, files):
        got = api.query(QUERY, files[0])
        want = Dataset.from_file(files[0]).query(QUERY)
        assert rows(got) == rows(want)

    def test_one_file_is_the_one_element_list_whatever_its_format(self, tmp_path):
        # each file's globals are folded into its rows on every route
        records = [Record({"kernel": f"k{i % 3}"}) for i in range(12)]
        text = "AGGREGATE count GROUP BY mpi.rank, kernel ORDER BY kernel"
        answers = {}
        for name in ("one.cali", "one.json", "one.rcf"):
            path = str(tmp_path / name)
            write_records(path, records, {"mpi.rank": 3})
            answers[name] = rows(api.query(text, path))
            answers[name + " rows"] = rows(api.query(text, path, backend="rows"))
            answers[f"[{name}]"] = rows(api.query(text, [path]))
        want = [
            [("count", 4), ("kernel", f"k{i}"), ("mpi.rank", 3)] for i in range(3)
        ]
        assert answers == dict.fromkeys(answers, want)

    @pytest.mark.parametrize("text", [QUERY, "SELECT k, x"], ids=["aggregate", "select"])
    @pytest.mark.parametrize("backend", ["auto", "rows"])
    def test_a_file_query_compiles_its_text_once(self, tmp_path, text, backend):
        from repro import observe

        path = str(tmp_path / "one.rcf")
        write_records(path, make_records())
        with observe.collecting() as reg:
            api.query(text, path, backend=backend)
        assert reg.timer_stats("query.parse")[0] == 1

    def test_glob(self, files, tmp_path):
        pattern = str(tmp_path / "part-*.json")
        got = api.query(QUERY, pattern)
        want = Dataset.from_glob(pattern).query(QUERY)
        assert rows(got) == rows(want)

    def test_dataset(self, files):
        dataset = Dataset.from_files(files)
        got = api.query(QUERY, dataset)
        assert rows(got) == rows(dataset.query(QUERY))

    def test_file_list_equals_serial(self, files):
        got = api.query(QUERY, files)
        want = Dataset.from_files(files).query(QUERY)
        assert rows(got) == rows(want)

    def test_file_list_respects_jobs_option(self, files):
        got = api.query(QUERY, files, QueryOptions(jobs=2))
        want = parallel_query_files(QUERY, files, QueryOptions(jobs=2))
        assert rows(got) == rows(want)

    def test_keyword_options_shorthand(self, files):
        got = api.query(QUERY, files[0], backend="rows")
        want = Dataset.from_file(files[0]).query(QUERY, backend="rows")
        assert rows(got) == rows(want)

    def test_live_server_string_and_tuple(self):
        from repro.net import AggregationServer, FlushClient, live_query

        scheme = "AGGREGATE count, sum(x) GROUP BY k"
        records = make_records()
        with AggregationServer(scheme) as server:
            client = FlushClient("127.0.0.1", server.port, scheme=scheme)
            assert client.send_records(records)
            client.close()
            text = "SELECT k, count, sum#x ORDER BY k"
            want = live_query("127.0.0.1", server.port, text)
            got_str = api.query(text, f"127.0.0.1:{server.port}")
            got_tup = api.query(text, ("127.0.0.1", server.port))
        assert rows(got_str) == rows(want)
        assert rows(got_tup) == rows(want)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            api.query(QUERY, make_records(), workers=4)

    def test_missing_path_raises(self):
        with pytest.raises(QueryError, match="neither an existing file"):
            api.query(QUERY, "no/such/file.json")

    def test_mixed_collection_rejected(self, files):
        with pytest.raises(QueryError, match="unsupported query source"):
            api.query(QUERY, [files[0], 42])

    def test_reexports(self):
        assert repro.api.query is api.query
        for name in ("Dataset", "QueryEngine", "QueryOptions",
                     "AggregationServer", "FlushClient", "LocalTree"):
            assert hasattr(repro, name), name


class TestQueryOptions:
    def test_defaults(self):
        opts = QueryOptions()
        assert opts.backend == "auto" and opts.jobs is None and opts.stats is False

    def test_coerce_dict(self):
        opts = QueryOptions.coerce({"backend": "rows", "jobs": 2})
        assert opts == QueryOptions(backend="rows", jobs=2)

    def test_invalid_backend_rejected(self):
        with pytest.raises(Exception):
            QueryOptions(backend="gpu")

    def test_coerce_rejects_garbage(self):
        with pytest.raises(TypeError):
            QueryOptions.coerce(42)
