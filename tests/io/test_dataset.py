"""Tests for the Dataset container and multi-file loading."""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import DatasetError, Record, Variant
from repro.io import Dataset, read_records, write_colfile, write_records
from repro.query import QueryEngine


@pytest.fixture
def rank_files(tmp_path):
    paths = []
    for rank in range(3):
        recs = [
            Record({"kernel": "k", "time.duration": float(rank + 1)}),
            Record({"kernel": "other", "time.duration": 0.5}),
        ]
        path = tmp_path / f"rank-{rank}.cali"
        write_records(path, recs, globals_={"mpi.rank": rank})
        paths.append(path)
    return paths


class TestWriteReadRecords:
    def test_extension_dispatch(self, tmp_path):
        recs = [Record({"a": 1})]
        for ext in ("cali", "json", "csv"):
            path = tmp_path / f"f.{ext}"
            write_records(path, recs)
            back, _ = read_records(path)
            assert back[0]["a"].value == 1

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(DatasetError):
            write_records(tmp_path / "f.xyz", [])


class TestDataset:
    def test_from_file(self, rank_files):
        ds = Dataset.from_file(rank_files[0])
        assert len(ds) == 2
        assert ds.globals["mpi.rank"].value == 0

    def test_from_files_folds_globals_into_records(self, rank_files):
        ds = Dataset.from_files(rank_files)
        assert len(ds) == 6
        ranks = {r["mpi.rank"].value for r in ds}
        assert ranks == {0, 1, 2}
        # conflicting globals are dropped at dataset level
        assert "mpi.rank" not in ds.globals

    def test_from_glob(self, rank_files, tmp_path):
        ds = Dataset.from_glob(str(tmp_path / "rank-*.cali"))
        assert len(ds) == 6
        assert len(ds.sources) == 3

    def test_from_glob_no_match(self, tmp_path):
        with pytest.raises(DatasetError):
            Dataset.from_glob(str(tmp_path / "nope-*.cali"))

    def test_labels_and_column(self, rank_files):
        ds = Dataset.from_files(rank_files)
        assert "kernel" in ds.labels()
        values = ds.column("time.duration")
        assert len(values) == 6

    def test_query(self, rank_files):
        ds = Dataset.from_files(rank_files)
        res = ds.query("AGGREGATE sum(time.duration) GROUP BY kernel ORDER BY kernel")
        rows = res.rows(["kernel", "sum#time.duration"])
        assert rows == [("k", 6.0), ("other", 1.5)]

    def test_container_protocol(self, rank_files):
        ds = Dataset.from_file(rank_files[0])
        assert ds[0] == list(iter(ds))[0]
        ds.extend([Record({"extra": 1})])
        assert len(ds) == 3

    @pytest.mark.parametrize("ext", ["cali", "json", "rcf"])
    def test_from_file_is_the_one_element_from_files(self, tmp_path, ext):
        """A file's globals reach its rows whichever loader opens it."""
        path = tmp_path / f"rank-1.{ext}"
        write_records(path, [Record({"a": 1}), Record({"a": 2})], globals_={"mpi.rank": 1})
        query = "AGGREGATE count GROUP BY mpi.rank"
        one = Dataset.from_file(path).query(query)
        assert [r.to_plain() for r in one.records] == [{"mpi.rank": 1, "count": 2}]
        assert str(one) == str(Dataset.from_files([path]).query(query))
        assert Dataset.from_file(path).globals["mpi.rank"].value == 1

    def test_to_file_roundtrip(self, rank_files, tmp_path):
        ds = Dataset.from_files(rank_files)
        out = tmp_path / "merged.cali"
        ds.to_file(out)
        back = Dataset.from_file(out)
        assert len(back) == len(ds)


class TestRcfDataset:
    """The binary columnar .rcf path: save/load, laziness, chunked scans."""

    QUERY = "AGGREGATE count(), sum(time.duration) GROUP BY kernel ORDER BY kernel"

    def _dataset(self, n=200):
        import random

        rng = random.Random(31)
        return Dataset(
            [
                Record(
                    {
                        "kernel": rng.choice(["a", "b", "c"]),
                        "mpi.rank": rng.randrange(4),
                        "time.duration": round(rng.random(), 6),
                    }
                )
                for _ in range(n)
            ]
        )

    def test_save_and_from_file_roundtrip(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "d.rcf"
        ds.save(path)
        back = Dataset.from_file(path)
        assert len(back) == len(ds)
        assert str(back.query(self.QUERY)) == str(ds.query(self.QUERY))

    def _saved_result(self, tmp_path):
        """A query's own output, and its records back from an .rcf file."""
        result = self._dataset().query(self.QUERY)
        path = tmp_path / "result.rcf"
        write_colfile(path, result.records)
        back, _ = read_records(path)
        return result, back

    def test_aggregated_result_roundtrips_identically(self, tmp_path):
        """A query's own output saved as .rcf comes back with the same
        (type, value) per entry."""
        result, back = self._saved_result(tmp_path)

        def exact(records):
            return [sorted((k, v.type, v.value) for k, v in r.items()) for r in records]

        assert exact(back) == exact(result.records)

    def test_loaded_result_requeries_identically(self, tmp_path):
        """An .rcf-loaded result re-aggregates exactly like the original."""
        result, back = self._saved_result(tmp_path)
        requery = "AGGREGATE sum(count) GROUP BY kernel ORDER BY kernel"
        assert str(Dataset(back).query(requery)) == str(
            Dataset(result.records).query(requery)
        )

    def test_rcf_extension_dispatch(self, tmp_path):
        recs = [Record({"a": 1, "s": "x"})]
        path = tmp_path / "f.rcf"
        write_records(path, recs)
        back, _ = read_records(path)
        assert back[0]["a"].value == 1 and back[0]["s"].value == "x"

    def test_rcf_load_is_lazy_for_columnar_queries(self, tmp_path):
        """Opening + columnar-querying a .rcf never materializes Records."""
        ds = self._dataset()
        path = tmp_path / "lazy.rcf"
        ds.save(path)
        back = Dataset.from_file(path)
        assert back._records is None
        assert len(back) == len(ds)
        assert "kernel" in back.labels()
        back.query(self.QUERY)
        assert back._records is None  # still no Record objects
        # rows backend hydrates the store's records, with identical results
        rows = back.query(self.QUERY, backend="rows")
        assert back.column_store().held_records is not None
        assert str(rows) == str(ds.query(self.QUERY))

    def test_repr_of_a_lazy_dataset_builds_no_record(self, tmp_path, no_record_hydration):
        path = tmp_path / "lazy.rcf"
        self._dataset().save(path)
        assert repr(Dataset.from_file(path)) == "Dataset(200 records from 1 source(s))"

    def test_window_and_filter_queries_over_a_lazy_rcf_build_no_record(
        self, tmp_path, no_record_hydration
    ):
        records = [
            Record({"kernel": f"k{i % 3}", "time.duration": 0.25 * (i % 5), "i": i})
            for i in range(50)
        ]
        path = tmp_path / "lazy.rcf"
        write_colfile(path, records, chunk_rows=8)
        lazy = Dataset.from_file(path)
        for text in (
            "AGGREGATE count, sum(time.duration) GROUP BY kernel WINDOW tumbling(2s) "
            "ORDER BY window.start, kernel",
            "AGGREGATE count GROUP BY kernel WINDOW sliding(4s, 2s)",
            "SELECT kernel, i WHERE kernel=k1, i>10 ORDER BY i DESC LIMIT 4",
            "SELECT kernel WHERE kernel=k1 LIMIT 2",
        ):
            got = lazy.query(text)
            assert lazy._records is None and lazy.column_store().held_records is None
            assert str(got) == str(QueryEngine(text).run(records)), text
            assert got.records  # an answer's own rows hydrate, not the input

    def test_chunked_query_matches_in_memory(self, tmp_path):
        """Acceptance: the out-of-core chunked scan == the in-memory path."""
        import repro.api as api

        ds = self._dataset(n=500)
        path = tmp_path / "big.rcf"
        ds.save(path, chunk_rows=37)  # 14 chunks
        from repro.io.colfile import ColfileReader

        reader = ColfileReader(path)
        assert reader.num_chunks > 1
        reader.close()
        chunked = api.query(self.QUERY, str(path))
        in_memory = ds.query(self.QUERY)
        assert str(chunked) == str(in_memory)
        # non-aggregation queries fall back to the full-load path
        sel = api.query("SELECT kernel WHERE kernel = a FORMAT expand", str(path))
        ref = ds.query("SELECT kernel WHERE kernel = a FORMAT expand")
        assert str(sel) == str(ref)

    def test_parallel_from_files_identical_to_serial(self, tmp_path):
        """Workers ship column buffers, not re-encoded text — results must
        be byte-identical to the serial loader."""
        paths = []
        for i in range(3):
            ds = self._dataset(n=60 + i)
            p = tmp_path / f"part-{i}.cali"
            ds.to_file(p)
            paths.append(str(p))
        serial = Dataset.from_files(paths)
        parallel = Dataset.from_files(paths, parallel=2)
        key = lambda r: sorted((k, v.type, v.value) for k, v in r.items())
        assert [key(r) for r in parallel.records] == [key(r) for r in serial.records]
        assert str(parallel.query(self.QUERY)) == str(serial.query(self.QUERY))


# -- multi-file loading: .rcf parts stay column stores --------------------------------

#: every ORDER BY is total over its GROUP BY, so row lists compare in order.
#: ``rank`` only exists as a per-file global, ``origin`` is a column and (in
#: some files) a global, ``tag`` is a column some files hide with an empty
#: global, ``n`` mixes int and double spellings of the same numbers
MULTIFILE_QUERIES = [
    "AGGREGATE count, sum(t) WHERE level>0 GROUP BY kernel ORDER BY kernel",
    "AGGREGATE count, sum(t) GROUP BY rank, origin ORDER BY rank, origin",
    "AGGREGATE count GROUP BY n, tag ORDER BY n, tag",
    "AGGREGATE min(t), max(t), first(kernel) GROUP BY level ORDER BY level",
    "AGGREGATE percent_total(t) GROUP BY kernel ORDER BY kernel",
]

#: durations are multiples of 0.25, so sums (and percent_total's global
#: denominator) are exact in any summation order
multifile_record_st = st.builds(
    lambda kernel, level, n, quarter: Record(
        {
            key: value
            for key, value in (
                ("kernel", kernel),
                ("level", level),
                ("n", n),
                ("t", quarter * 0.25),
                ("origin", "row"),
                ("tag", "x"),
            )
            if value is not None
        }
    ),
    kernel=st.sampled_from([None, "k0", "k1", "k2"]),
    level=st.sampled_from([None, 0, 1, 2]),
    n=st.sampled_from([None, 1, 1.0, 2, 2.0]),
    quarter=st.integers(min_value=0, max_value=400),
)

multifile_file_st = st.tuples(
    st.lists(multifile_record_st, max_size=25),
    st.integers(min_value=1, max_value=9),  # chunk_rows
    st.booleans(),  # a global overrides the ``origin`` column
    st.booleans(),  # an empty global hides the ``tag`` column
)


def exact(records) -> list:
    """(label, type, value) of every non-empty entry, record order kept.  An
    empty global hides a column; whether the hidden entry is absent (a
    hydrated store) or present-but-empty (``with_entries``) is not observable
    through ``Record.get``."""
    return [
        sorted((k, v.type, v.value) for k, v in r.items() if not v.is_empty)
        for r in records
    ]


def write_parts(directory, files, cali_at=None):
    """One file per entry (``.rcf``; ``.cali`` at index ``cali_at``); returns
    the paths and the in-memory records with each file's globals folded in."""
    paths, folded = [], []
    for rank, (records, chunk_rows, collides, hides) in enumerate(files):
        globals_ = {"rank": Variant.of(rank)}
        if collides:
            globals_["origin"] = Variant.of("file")
        if hides:
            globals_["tag"] = Variant.empty()
        if rank == cali_at:
            path = os.path.join(directory, f"part-{rank}.cali")
            write_records(path, records, globals_=globals_)
        else:
            path = os.path.join(directory, f"part-{rank}.rcf")
            write_colfile(path, records, globals_=globals_, chunk_rows=chunk_rows)
        paths.append(path)
        folded.extend(r.with_entries(globals_) for r in records)
    return paths, folded


@given(
    files=st.lists(multifile_file_st, min_size=2, max_size=4),
    cali_at=st.sampled_from([None, None, 0, 1]),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_from_files_answers_and_hydrates_like_the_per_file_reader(files, cali_at):
    with tempfile.TemporaryDirectory() as directory:
        paths, _folded = write_parts(directory, files, cali_at)
        oracle = []
        for path in paths:
            records, globals_ = read_records(path)
            oracle.extend(r.with_entries(globals_) for r in records)
        dataset = Dataset.from_files(paths)
        # all-.rcf lists stay column stores; a text file parsed here hydrates
        assert (dataset._records is None) == (cali_at is None)
        assert len(dataset) == len(oracle) and dataset.sources == paths
        for query in MULTIFILE_QUERIES:
            want = QueryEngine(query).run(oracle, backend="rows")
            assert exact(dataset.query(query)) == exact(want), query
        assert exact(dataset.records) == exact(oracle)
        by_glob = Dataset.from_glob(os.path.join(directory, "part-*"))
        assert exact(by_glob.records) == exact(oracle)


@given(files=st.lists(multifile_file_st, min_size=2, max_size=4))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_all_rcf_from_files_and_auto_queries_build_no_record(files, no_record_hydration):
    with tempfile.TemporaryDirectory() as directory:
        paths, folded = write_parts(directory, files)
        dataset = Dataset.from_files(paths, parallel=2)  # nothing to parse: no pool
        assert len(dataset) == len(folded) and "rank" in dataset.labels()
        for query in MULTIFILE_QUERIES:
            want = QueryEngine(query).run(folded, backend="rows")
            assert exact(dataset.query(query)) == exact(want), query


class TestFromFilesPoolSizing:
    """Only files that need a text parse count as (and go to) pool work."""

    def _write(self, tmp_path, n_cali):
        big = [Record({"kernel": f"k{i % 3}", "t": 0.25 * i}) for i in range(1000)]
        write_colfile(tmp_path / "big.rcf", big, globals_={"rank": 0})
        paths = [str(tmp_path / "big.rcf")]
        for i in range(n_cali):
            path = tmp_path / f"small-{i}.cali"
            write_records(path, big[: 3 + i], globals_={"rank": i + 1})
            paths.append(str(path))
        return paths

    @pytest.fixture
    def many_cores(self, monkeypatch):
        from repro.io import dataset as dataset_mod

        # at 40 records a worker the .rcf's 1000 footer rows alone would
        # justify every worker the file count allows
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(dataset_mod, "MIN_PARALLEL_RECORDS_PER_WORKER", 40)

    @pytest.fixture
    def no_pool(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    def test_one_small_text_file_beside_a_large_rcf_forks_nothing(
        self, tmp_path, many_cores, no_pool
    ):
        from repro import observe

        paths = self._write(tmp_path, n_cali=1)
        with observe.collecting() as reg:
            dataset = Dataset.from_files(paths, parallel=True)
        assert len(dataset) == 1003
        assert reg.timer_stats("ingest.from_files", files=2, workers=1)[0] == 1
        assert reg.counter_value("parallel.fallback") == 0  # one item: no decision

    def test_auto_pool_is_sized_from_the_text_files_only(
        self, tmp_path, many_cores, no_pool
    ):
        from repro import observe

        paths = self._write(tmp_path, n_cali=2)
        with observe.collecting() as reg:
            Dataset.from_files(paths, parallel=True)
        assert reg.timer_stats("ingest.from_files", files=3, workers=1)[0] == 1
        assert (
            reg.counter_value("parallel.fallback", reason="small-input", workers=1) == 1
        )

    def test_pooled_text_parts_keep_their_place_and_stay_columnar(self, tmp_path):
        from repro import observe

        paths = self._write(tmp_path, n_cali=2)
        paths = [paths[1], paths[0], paths[2]]  # text, .rcf, text
        serial = Dataset.from_files(paths)
        with observe.collecting() as reg:
            pooled = Dataset.from_files(paths, parallel=2)
        assert reg.timer_stats("ingest.from_files", files=3, workers=2)[0] == 1
        assert reg.counter_value("ingest.records") == 1000 + 3 + 4
        assert pooled._records is None and serial._records is not None
        assert pooled.sources == serial.sources == paths
        assert exact(pooled.records) == exact(serial.records)
