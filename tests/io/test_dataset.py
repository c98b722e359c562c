"""Tests for the Dataset container and multi-file loading."""

import pytest

from repro.common import DatasetError, Record
from repro.io import Dataset, read_records, write_records


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
        back.query(self.QUERY, backend="columnar")
        assert back._records is None  # still no Record objects
        # rows backend hydrates, with identical results
        rows = back.query(self.QUERY, backend="rows")
        assert back._records is not None
        assert str(rows) == str(ds.query(self.QUERY))

    def test_repr_of_a_lazy_dataset_builds_no_record(self, tmp_path, no_record_hydration):
        path = tmp_path / "lazy.rcf"
        self._dataset().save(path)
        assert repr(Dataset.from_file(path)) == "Dataset(200 records from 1 source(s))"

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
