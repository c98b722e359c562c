"""Tests for the MPI-parallel query application."""

import pytest

from repro.common import QueryError, Record
from repro.mpi import ZeroCostNetwork
from repro.query import MPIQueryRunner, QueryEngine


def make_records(n=60, kernels=3):
    return [
        Record({"kernel": f"k{i % kernels}", "time.duration": 1.0 + i * 0.1})
        for i in range(n)
    ]


def split(records, parts):
    return [records[i::parts] for i in range(parts)]


QUERY = "AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel"


def assert_results_close(a, b):
    """Compare result record lists, tolerant of float summation order."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        da, db = ra.to_plain(), rb.to_plain()
        assert set(da) == set(db)
        for key in da:
            if isinstance(da[key], float) or isinstance(db[key], float):
                assert da[key] == pytest.approx(db[key], rel=1e-9)
            else:
                assert da[key] == db[key]


class TestCorrectness:
    @pytest.mark.parametrize("size", [1, 2, 3, 8, 16])
    def test_matches_serial_result(self, size):
        records = make_records()
        serial = QueryEngine(QUERY).run(records)
        parallel = MPIQueryRunner(QUERY, size=size).run_records(split(records, size))
        assert_results_close(list(parallel.result), list(serial))

    @pytest.mark.parametrize("fanout", [2, 3, 4, 8])
    def test_fanout_does_not_change_result(self, fanout):
        records = make_records()
        serial = QueryEngine(QUERY).run(records)
        parallel = MPIQueryRunner(QUERY, size=8, fanout=fanout).run_records(
            split(records, 8)
        )
        assert_results_close(list(parallel.result), list(serial))

    def test_where_applied_locally(self):
        records = make_records() + [Record({"mpi.function": "MPI_Send", "time.duration": 100.0})] * 4
        query = (
            "AGGREGATE sum(time.duration) WHERE not(mpi.function) "
            "GROUP BY kernel ORDER BY kernel"
        )
        parallel = MPIQueryRunner(query, size=4).run_records(split(records, 4))
        assert all(r.get("mpi.function").is_empty for r in parallel.result)

    def test_empty_ranks_tolerated(self):
        records = make_records(n=2)
        parallel = MPIQueryRunner(QUERY, size=8).run_records(
            split(records, 2) + [[] for _ in range(6)]
        )
        assert sum(r["count"].value for r in parallel.result) == 2

    def test_wrong_rank_count_rejected(self):
        with pytest.raises(QueryError):
            MPIQueryRunner(QUERY, size=4).run_records([[], []])

    def test_non_aggregation_query_rejected(self):
        with pytest.raises(QueryError):
            MPIQueryRunner("SELECT kernel WHERE kernel", size=2)


class TestFiles:
    def test_run_files(self, tmp_path):
        from repro.io import write_records

        records = make_records()
        paths = []
        for i, chunk in enumerate(split(records, 4)):
            path = tmp_path / f"part-{i}.cali"
            write_records(path, chunk)
            paths.append(str(path))
        outcome = MPIQueryRunner(QUERY, size=2).run_files(paths)
        serial = QueryEngine(QUERY).run(records)
        assert_results_close(list(outcome.result), list(serial))

    def test_io_model_adds_virtual_time(self, tmp_path):
        from repro.io import write_records

        path = tmp_path / "data.cali"
        write_records(path, make_records())
        fast = MPIQueryRunner(QUERY, size=1).run_files([str(path)])
        slow = MPIQueryRunner(
            QUERY, size=1, io_bandwidth=1e3, io_latency=0.01
        ).run_files([str(path)])
        assert slow.times.local > fast.times.local
        assert slow.times.io > 0.0


class TestTimings:
    def test_phase_times_accounting(self):
        records = make_records(200)
        outcome = MPIQueryRunner(QUERY, size=4).run_records(split(records, 4))
        t = outcome.times
        assert t.local > 0.0
        assert t.reduce >= 0.0
        # total additionally includes the root's finalize post-processing
        assert t.total >= t.local + t.reduce
        assert len(outcome.per_rank) == 4

    def test_reduction_time_grows_with_depth(self):
        """More ranks -> deeper tree -> more reduction time at the root."""
        records = make_records(128)
        shallow = MPIQueryRunner(QUERY, size=2, network=ZeroCostNetwork()).run_records(
            split(records, 2)
        )
        deep = MPIQueryRunner(QUERY, size=64, network=ZeroCostNetwork()).run_records(
            split(records, 64)
        )
        # With a zero-cost network the reduce phase is pure combine work,
        # which still grows with tree depth.
        assert deep.messages > shallow.messages

    def test_message_count_is_size_minus_one(self):
        records = make_records(64)
        for size in (2, 5, 16):
            outcome = MPIQueryRunner(QUERY, size=size).run_records(split(records, size))
            assert outcome.messages == size - 1


class TestGeneratedMode:
    def test_run_generated_matches_run_records(self):
        records = make_records(80)
        chunks = split(records, 8)
        a = MPIQueryRunner(QUERY, size=8).run_records(chunks)
        b = MPIQueryRunner(QUERY, size=8).run_generated(lambda rank: chunks[rank])
        assert_results_close(list(a.result), list(b.result))

    def test_generation_excluded_from_local_time(self):
        import time as _time

        def slow_factory(rank):
            _time.sleep(0.05)
            return make_records(10)

        outcome = MPIQueryRunner(QUERY, size=2).run_generated(slow_factory)
        # feeding 10 records takes micro-seconds; the 50 ms generation
        # sleep must not be charged to the measured local phase
        assert outcome.times.local < 0.02


class TestReductionTelemetry:
    """Per-level reduction-tree telemetry (Fig. 8-style wire/combine data)."""

    def run(self, size=7, fanout=2):
        records = make_records()
        return MPIQueryRunner(QUERY, size=size, fanout=fanout).run_records(
            split(records, size)
        )

    def test_levels_cover_the_tree(self):
        outcome = self.run(size=7, fanout=2)  # complete binary tree: depth 2
        assert sorted(outcome.wire_bytes_by_level) == [1, 2]
        assert sorted(outcome.sends_by_level) == [1, 2]
        # every non-root rank sends exactly once
        assert sum(outcome.sends_by_level.values()) == 6
        assert outcome.sends_by_level[1] == 2  # ranks 1, 2
        assert outcome.sends_by_level[2] == 4  # ranks 3..6

    def test_wire_bytes_sum_to_total_traffic(self):
        outcome = self.run(size=9, fanout=3)
        assert sum(outcome.wire_bytes_by_level.values()) == outcome.bytes
        assert sum(outcome.sends_by_level.values()) == outcome.messages

    def test_wire_bytes_are_the_state_batches_sent(self, monkeypatch):
        # Fig. 4's per-level bytes are the codec's bytes, not an estimate
        from repro.aggregate.table import StateTable

        sent = []
        encode = StateTable.to_binary

        def to_binary(table):
            blob = encode(table)
            sent.append(len(blob))
            return blob

        monkeypatch.setattr(StateTable, "to_binary", to_binary)
        outcome = self.run(size=9, fanout=3)
        assert len(sent) == outcome.messages == 8
        assert sum(outcome.wire_bytes_by_level.values()) == sum(sent)

    def test_combine_time_recorded_per_level(self):
        outcome = self.run(size=7)
        # combine is keyed by the *child's* level; with 7 ranks both
        # child levels appear and all combine times are real measurements
        assert sorted(outcome.combine_seconds_by_level) == [1, 2]
        assert all(t > 0.0 for t in outcome.combine_seconds_by_level.values())

    def test_timing_summary_reports_levels(self):
        outcome = self.run(size=7)
        text = outcome.timing_summary()
        lines = text.splitlines()
        assert lines[0].startswith("total ")
        assert "messages 6" in lines[0]
        assert any(line.startswith("level 1: sends 2") for line in lines)
        assert any(line.startswith("level 2: sends 4") for line in lines)

    def test_telemetry_published_to_registry(self):
        from repro import observe

        records = make_records()
        with observe.collecting() as reg:
            outcome = MPIQueryRunner(QUERY, size=7, fanout=2).run_records(
                split(records, 7)
            )
        assert reg.gauge_value("mpi.ranks") == 7
        assert reg.gauge_value("mpi.fanout") == 2
        assert reg.counter_value("mpi.messages") == outcome.messages
        assert reg.counter_value("mpi.bytes") == outcome.bytes
        for level, nbytes in outcome.wire_bytes_by_level.items():
            assert reg.counter_value("mpi.wire.bytes", level=level) == nbytes
        for level, seconds in outcome.combine_seconds_by_level.items():
            assert reg.timer_total("mpi.combine", level=level) == seconds
        # one local + one reduce sample per rank
        assert reg.timer_stats("mpi.phase.local")[0] == 7

    def test_no_registry_calls_when_disabled(self):
        from repro import observe

        assert not observe.enabled()
        before = observe.registry().snapshot()
        self.run(size=3)
        assert observe.registry().snapshot() == before
