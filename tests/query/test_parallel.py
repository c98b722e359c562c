"""Tests for real process-parallel ingestion and partial aggregation."""

import pytest

from repro.aggregate.table import StateTable
from repro.common import QueryError, Record
from repro.io import Dataset, write_colfile, write_records
from repro.query import QueryEngine, QueryOptions, parallel_query_files
from repro.query.parallel import _partial_worker

QUERY = (
    "AGGREGATE count, sum(time.duration), variance(time.duration) "
    "GROUP BY kernel ORDER BY kernel"
)


def write_parts(tmp_path, ext):
    """Five per-process files, globals kept.  Every record carries
    ``origin="row"`` and part 3's globals say ``origin="file"`` (a global
    colliding with a column label); the ``.rcf`` part 2 has several chunks."""
    paths = []
    for i in range(5):
        recs = [
            Record({"kernel": f"k{j % 3}", "time.duration": 0.5 * (i + j), "origin": "row"})
            for j in range(20)
        ]
        globals_ = {"part": i, "origin": "file"} if i == 3 else {"part": i}
        path = tmp_path / f"part-{i}{ext}"
        if ext == ".rcf":
            write_colfile(path, recs, globals_=globals_, chunk_rows=7 if i == 2 else 0)
        else:
            write_records(path, recs, globals_=globals_)
        paths.append(path)
    return paths


@pytest.fixture
def many_files(tmp_path):
    return write_parts(tmp_path, ".cali")


@pytest.fixture
def rcf_files(tmp_path):
    return write_parts(tmp_path, ".rcf")


def serial_result(paths, query=QUERY):
    return Dataset.from_files(paths).query(query)


class TestParallelQueryFiles:
    def test_matches_serial(self, many_files):
        got = parallel_query_files(QUERY, many_files, QueryOptions(jobs=2))
        want = serial_result(many_files)
        labels = ["kernel", "count", "sum#time.duration", "variance#time.duration"]
        assert got.rows(labels) == pytest.approx(want.rows(labels))

    def test_single_worker_falls_back_to_serial(self, many_files):
        got = parallel_query_files(QUERY, many_files, QueryOptions(jobs=1))
        want = serial_result(many_files)
        assert got.rows(["kernel", "count"]) == want.rows(["kernel", "count"])

    def test_counts_are_preserved(self, many_files):
        got = parallel_query_files(QUERY, many_files, QueryOptions(jobs=2))
        assert sum(row[0] for row in got.rows(["count"])) == 100

    def test_globals_folded_into_records(self, many_files):
        # per-file globals must reach the worker-side records
        res = parallel_query_files(
            "AGGREGATE count GROUP BY part ORDER BY part", many_files, QueryOptions(jobs=2)
        )
        assert res.rows(["part", "count"]) == [(i, 20) for i in range(5)]

    def test_global_overrides_same_named_column(self, many_files):
        # as Record.with_entries does: the file-level value wins in that file
        for jobs in (1, 2):
            res = parallel_query_files(
                "AGGREGATE count GROUP BY origin ORDER BY origin",
                many_files,
                QueryOptions(jobs=jobs),
            )
            assert res.rows(["origin", "count"]) == [("file", 20), ("row", 80)]

    def test_rejects_pure_filter_query(self, many_files):
        with pytest.raises(QueryError):
            parallel_query_files("SELECT kernel", many_files, QueryOptions(jobs=2))

    def test_backend_rows_override(self, many_files):
        got = parallel_query_files(QUERY, many_files, QueryOptions(jobs=2, backend="rows"))
        want = serial_result(many_files)
        labels = ["kernel", "sum#time.duration"]
        assert got.rows(labels) == pytest.approx(want.rows(labels))


class TestWorker:
    def test_partial_worker_states_merge(self, many_files):
        """Two half-chunks merged at the parent equal the one-shot run."""
        paths = [str(p) for p in many_files]
        engine = QueryEngine(QUERY)
        db = engine.make_db()
        for chunk in (paths[:2], paths[2:]):
            blob, offered, processed, _timings = _partial_worker(QUERY, chunk, "auto")
            part = StateTable.from_binary(engine.scheme, blob)
            part.num_offered, part.num_processed = offered, processed
            db.merge(part)
        assert db.num_processed == 100
        got = engine.finalize(db)
        want = serial_result(many_files)
        labels = ["kernel", "count", "sum#time.duration"]
        assert got.rows(labels) == pytest.approx(want.rows(labels))


class TestParallelQueryFilesRcf(TestParallelQueryFiles):
    """The same contract over ``.rcf`` inputs (folded columnar, per chunk)."""

    @pytest.fixture
    def many_files(self, rcf_files):
        return rcf_files


class TestWorkerRcf(TestWorker):
    @pytest.fixture
    def many_files(self, rcf_files):
        return rcf_files


class TestParallelDatasetLoading:
    def test_from_files_parallel_matches_serial(self, many_files):
        serial = Dataset.from_files(many_files)
        parallel = Dataset.from_files(many_files, parallel=2)
        assert len(parallel) == len(serial)
        assert [r.to_plain() for r in parallel] == [r.to_plain() for r in serial]
        assert parallel.sources == serial.sources

    def test_from_glob_parallel(self, many_files, tmp_path):
        ds = Dataset.from_glob(str(tmp_path / "part-*.cali"), parallel=2)
        assert len(ds) == 100
        assert len(ds.sources) == 5


class TestIngestionTelemetry:
    """Per-file parse/feed time attribution across worker processes."""

    def test_from_files_records_per_file_parse_time(self, many_files):
        from repro import observe

        with observe.collecting() as reg:
            Dataset.from_files(many_files)
        assert reg.timer_stats("ingest.from_files", files=5, workers=1)[0] == 1
        # one parse sample per input file, tagged with its basename
        parse = reg.timer_stats("ingest.file.parse", file="part-0.cali")
        assert parse is not None and parse[0] == 1
        assert reg.counter_value("ingest.records") == 100

    def test_parallel_loading_ships_timings_back(self, many_files):
        from repro import observe

        with observe.collecting() as reg:
            Dataset.from_files(many_files, parallel=2)
        # durations measured in the workers land in the parent's registry
        assert reg.timer_total("ingest.file.parse") > 0.0
        assert reg.timer_stats("ingest.file.parse", file="part-3.cali")[0] == 1
        assert reg.counter_value("ingest.records") == 100

    def test_parallel_query_files_telemetry(self, many_files):
        from repro import observe

        with observe.collecting() as reg:
            parallel_query_files(QUERY, many_files, QueryOptions(jobs=2))
        assert reg.timer_stats("parallel.query_files", files=5, workers=2)[0] == 1
        assert reg.timer_total("parallel.query_files/parallel.merge") > 0.0
        # 3 kernels per file chunk, merged from 2 workers
        assert reg.counter_value("parallel.states.shipped") > 0
        for i in range(5):
            feed = reg.timer_stats("parallel.file.feed", file=f"part-{i}.cali")
            assert feed is not None and feed[0] == 1

    def test_serial_fallback_still_attributes_files(self, many_files):
        from repro import observe

        with observe.collecting() as reg:
            parallel_query_files(QUERY, many_files, QueryOptions(jobs=1))
        assert reg.timer_stats("parallel.file.parse", file="part-0.cali")[0] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rcf_files_report_decode_as_parse(self, rcf_files, jobs):
        from repro import observe

        with observe.collecting() as reg:
            parallel_query_files(QUERY, rcf_files, QueryOptions(jobs=jobs))
        for i in range(5):
            # parse = reader open + chunk decode; feed = the column kernels
            for name in ("parallel.file.parse", "parallel.file.feed"):
                stats = reg.timer_stats(name, file=f"part-{i}.rcf")
                assert stats is not None and stats[0] == 1 and stats[1] > 0.0


class TestAutoParallelHeuristics:
    """``parallel=True`` clamps to serial when a pool cannot pay off."""

    def test_single_core_falls_back_to_serial(self, many_files, monkeypatch):
        import os

        from repro import observe
        from repro.io import dataset as dataset_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with observe.collecting() as reg:
            ds = Dataset.from_files(many_files, parallel=True)
        assert len(ds) == 100
        assert reg.timer_stats("ingest.from_files", files=5, workers=1)[0] == 1
        assert reg.counter_value("parallel.fallback", reason="single-core") == 1
        assert dataset_mod._resolve_workers(True, 5) == 1

    def test_small_input_clamps_pool(self, many_files, monkeypatch):
        import os

        from repro import observe

        # Plenty of cores, but the 5 tiny files are far below the per-worker
        # record threshold — auto mode must shrink the pool to one worker.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        with observe.collecting() as reg:
            ds = Dataset.from_files(many_files, parallel=True)
        assert len(ds) == 100
        assert reg.timer_stats("ingest.from_files", files=5, workers=1)[0] == 1
        assert (
            reg.counter_value("parallel.fallback", reason="small-input", workers=1)
            == 1
        )

    def test_large_input_keeps_pool(self, many_files, monkeypatch):
        import os

        from repro.io import dataset as dataset_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # Lower the threshold instead of writing huge files.
        monkeypatch.setattr(dataset_mod, "MIN_PARALLEL_RECORDS_PER_WORKER", 1)
        paths = [str(p) for p in many_files]
        assert dataset_mod._resolve_workers(True, len(paths), paths) == 5

    def test_rcf_worker_count_uses_the_footer_row_count(
        self, many_files, rcf_files, monkeypatch
    ):
        import os

        from repro import observe
        from repro.io import dataset as dataset_mod

        # 100 rows exactly, whatever the files weigh (.rcf is ~12 B/record,
        # not the 48 the byte estimate assumes for text formats).
        rcf = [str(p) for p in rcf_files]
        assert dataset_mod._estimate_records(rcf) == 100
        cali = [str(p) for p in many_files]
        assert dataset_mod._estimate_records(cali) == (
            sum(os.path.getsize(p) for p in cali) // dataset_mod.APPROX_BYTES_PER_RECORD
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(dataset_mod, "MIN_PARALLEL_RECORDS_PER_WORKER", 40)
        with observe.collecting() as reg:
            assert dataset_mod._resolve_workers(True, len(rcf), rcf) == 2
        assert (
            reg.counter_value("parallel.fallback", reason="small-input", workers=2) == 1
        )

    def test_rcf_rows_that_stay_columnar_weigh_a_fraction_of_a_record(
        self, rcf_files, monkeypatch
    ):
        import os

        from repro import observe
        from repro.io import dataset as dataset_mod
        from repro.query import parallel as parallel_mod

        # 100 rows over 5 files: a query that folds the chunk stores sizes its
        # pool on 100 / RCF_ROWS_PER_RECORD records, one that hydrates rows
        # (rows backend, LET) on all 100.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(dataset_mod, "MIN_PARALLEL_RECORDS_PER_WORKER", 1)
        monkeypatch.setattr(parallel_mod, "RCF_ROWS_PER_RECORD", 50)
        let_query = "LET twice = time.duration * 2 " + QUERY
        for query, backend, workers in (
            (QUERY, "auto", 2),
            (QUERY, "rows", 5),
            (let_query, "auto", 5),
        ):
            with observe.collecting() as reg:
                got = parallel_query_files(
                    query, rcf_files, QueryOptions(jobs=True, backend=backend)
                )
            assert (
                reg.timer_stats("parallel.query_files", files=5, workers=workers)[0] == 1
            ), (query, backend)
            labels = ["kernel", "count", "sum#time.duration", "variance#time.duration"]
            assert got.rows(labels) == pytest.approx(serial_result(rcf_files).rows(labels))

    def test_explicit_workers_bypass_heuristics(self, many_files, monkeypatch):
        import os

        from repro import observe

        # An explicit integer is a user override: a real pool runs even on a
        # "single-core" box, and no fallback is recorded.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with observe.collecting() as reg:
            got = parallel_query_files(QUERY, many_files, QueryOptions(jobs=2))
        assert reg.timer_stats("parallel.query_files", files=5, workers=2)[0] == 1
        assert reg.counter_value("parallel.states.shipped") > 0
        assert reg.counter_value("parallel.fallback", reason="single-core") == 0
        assert str(got) == str(serial_result(many_files))

    def test_auto_query_files_falls_back_serially(self, many_files, monkeypatch):
        import os

        from repro import observe

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        with observe.collecting() as reg:
            got = parallel_query_files(QUERY, many_files, QueryOptions(jobs=True))
        # Tiny input: the auto heuristics pick the serial path, results match.
        assert reg.timer_stats("parallel.query_files", files=5, workers=1)[0] == 1
        assert str(got) == str(serial_result(many_files))


class TestEdgeCases:
    def test_empty_file_list(self):
        result = parallel_query_files(QUERY, [])
        assert result.records == []

    def test_empty_file_list_with_explicit_workers(self):
        result = parallel_query_files(QUERY, [], QueryOptions(jobs=8))
        assert result.records == []

    def test_more_workers_than_files(self, many_files):
        result = parallel_query_files(QUERY, many_files, QueryOptions(jobs=64))
        assert str(result) == str(serial_result(many_files))

    def test_zero_and_negative_workers_degrade_to_serial(self, many_files):
        for workers in (0, -3):
            result = parallel_query_files(QUERY, many_files, QueryOptions(jobs=workers))
            assert str(result) == str(serial_result(many_files))

    def test_single_file_with_many_workers(self, many_files):
        result = parallel_query_files(QUERY, many_files[:1], QueryOptions(jobs=8))
        assert str(result) == str(serial_result(many_files[:1]))

    def test_dataset_from_files_empty_list(self):
        ds = Dataset.from_files([])
        assert ds.records == [] and ds.globals == {} and ds.sources == []

    def test_dataset_from_files_empty_list_parallel(self):
        ds = Dataset.from_files([], parallel=4)
        assert ds.records == []

    def test_dataset_more_workers_than_files(self, many_files):
        serial = Dataset.from_files(many_files)
        wide = Dataset.from_files(many_files, parallel=64)
        assert wide.records == serial.records
