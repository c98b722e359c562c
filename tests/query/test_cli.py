"""Tests for the repro-query command-line interface."""

import pytest

from repro.common import Record
from repro.io import write_records
from repro.query.cli import _suggest_subcommand, main


@pytest.fixture
def data_file(tmp_path):
    records = [
        Record({"kernel": "hot", "time.duration": 3.0}),
        Record({"kernel": "cold", "time.duration": 1.0}),
        Record({"kernel": "hot", "time.duration": 2.0}),
    ]
    path = tmp_path / "data.cali"
    write_records(path, records)
    return str(path)


class TestCli:
    def test_basic_query_to_stdout(self, data_file, capsys):
        code = main(["-q", "AGGREGATE sum(time.duration) GROUP BY kernel ORDER BY kernel", data_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "hot" in out and "5" in out

    def test_csv_format(self, data_file, capsys):
        code = main(["-q", "AGGREGATE count GROUP BY kernel FORMAT csv", data_file])
        assert code == 0
        assert capsys.readouterr().out.startswith("kernel,")

    def test_output_file(self, data_file, tmp_path, capsys):
        out_path = tmp_path / "result.txt"
        code = main(["-q", "AGGREGATE count GROUP BY kernel", "-o", str(out_path), data_file])
        assert code == 0
        assert "kernel" in out_path.read_text()
        assert capsys.readouterr().out == ""

    def test_parallel_mode(self, data_file, capsys):
        code = main(
            ["-q", "AGGREGATE sum(time.duration) GROUP BY kernel", "--parallel", "2",
             "--timing", data_file]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "hot" in captured.out
        assert "total" in captured.err

    def test_query_error_reported(self, data_file, capsys):
        code = main(["-q", "AGGREGATE nonsense(x)", data_file])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_reported(self, capsys):
        code = main(["-q", "AGGREGATE count", "/nonexistent/file.cali"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCliIsApiQuery:
    """The CLI has no source dispatch of its own: it prints what
    ``repro.api.query`` returns for the same query, files and options."""

    @pytest.fixture
    def two_files(self, tmp_path):
        paths = []
        for rank in range(2):
            path = tmp_path / f"rank{rank}.cali"
            write_records(
                path,
                [Record({"kernel": f"k{i % 3}", "time.duration": 0.25 * (i + rank)})
                 for i in range(40)],
                globals_={"mpi.rank": rank},
            )
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize(
        "query, n_files, flags, options",
        [
            ("AGGREGATE count, sum(time.duration) GROUP BY kernel, mpi.rank "
             "ORDER BY kernel, mpi.rank", 2, [], {}),
            ("AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel",
             2, ["--jobs", "2"], {"jobs": 2}),
            ("SELECT kernel, mpi.rank WHERE time.duration > 9 FORMAT csv", 2, [], {}),
            ("AGGREGATE sum(time.duration) GROUP BY kernel ORDER BY kernel", 1, [], {}),
            ("AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel",
             2, ["--sample", "0.5", "--sample-seed", "3"],
             {"sampling": 0.5, "sampling_seed": 3}),
        ],
    )
    def test_prints_what_api_query_returns(
        self, two_files, capsys, query, n_files, flags, options
    ):
        from repro import api

        files = two_files[:n_files]
        assert main(["-q", query, *flags, *files]) == 0
        assert capsys.readouterr().out == str(api.query(query, files, **options)) + "\n"


class TestNonFiniteResults:
    """A result that overflows to inf or turns NaN renders as its Variant
    text in the table, from the API and from the CLI alike."""

    QUERY = "AGGREGATE sum(t) GROUP BY k ORDER BY k"

    @pytest.fixture
    def non_finite_file(self, tmp_path):
        records = [
            Record({"k": "big", "t": 1e308}),
            Record({"k": "big", "t": 1e308}),  # the sum overflows to inf
            Record({"k": "nan", "t": float("inf")}),
            Record({"k": "nan", "t": float("-inf")}),  # inf - inf is nan
        ]
        path = tmp_path / "non_finite.cali"
        write_records(path, records)
        return str(path)

    @staticmethod
    def cells(table):
        return [line.split() for line in table.splitlines()[1:]]

    def test_api_to_table(self, non_finite_file):
        from repro import api

        table = api.query(self.QUERY, non_finite_file).to_table()
        assert self.cells(table) == [["big", "inf"], ["nan", "nan"]]

    def test_cli_table(self, non_finite_file, capsys):
        assert main(["-q", self.QUERY, non_finite_file]) == 0
        assert self.cells(capsys.readouterr().out) == [["big", "inf"], ["nan", "nan"]]


class TestStatsFlags:
    QUERY = "AGGREGATE sum(time.duration) GROUP BY kernel"

    def test_stats_prints_table_to_stderr(self, data_file, capsys):
        code = main(["-q", self.QUERY, "--stats", data_file])
        assert code == 0
        captured = capsys.readouterr()
        assert "hot" in captured.out  # query result untouched
        assert captured.err.startswith("observe:")
        assert "query.scan" in captured.err

    def test_json_stats_file(self, data_file, tmp_path, capsys):
        import json

        stats_path = tmp_path / "stats.json"
        code = main(["-q", self.QUERY, "--json-stats", str(stats_path), data_file])
        assert code == 0
        payload = json.loads(stats_path.read_text())
        assert set(payload) == {"counters", "gauges", "timers"}
        # one file folds as the one-element list does: per file, into a table
        assert any(key.startswith("parallel.query_files") for key in payload["timers"])
        assert any("query.scan" in key for key in payload["timers"])
        # no table unless --stats was also given
        assert "observe:" not in capsys.readouterr().err

    def test_json_stats_to_stdout(self, data_file, capsys):
        import json

        code = main(["-q", self.QUERY, "--json-stats", "-", "--output",
                     "/dev/null", data_file])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "timers" in payload

    def test_quiet_suppresses_table_but_not_json(self, data_file, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code = main(["-q", self.QUERY, "--stats", "--quiet",
                     "--json-stats", str(stats_path), data_file])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert stats_path.exists()

    def test_quiet_suppresses_timing_summary(self, data_file, capsys):
        code = main(["-q", self.QUERY, "--parallel", "2", "--timing",
                     "--quiet", data_file])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_collection_state_restored_after_run(self, data_file, capsys):
        from repro import observe

        main(["-q", self.QUERY, "--stats", data_file])
        capsys.readouterr()
        assert not observe.enabled()

    def test_no_stats_emitted_on_error(self, data_file, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code = main(["-q", "AGGREGATE nonsense(x)",
                     "--json-stats", str(stats_path), data_file])
        assert code == 1
        assert not stats_path.exists()


class TestInspectionFlags:
    def test_list_attributes(self, data_file, capsys):
        code = main(["--list-attributes", data_file])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "kernel" in out and "time.duration" in out

    def test_globals(self, tmp_path, capsys):
        from repro.common import Record
        from repro.io import write_records

        path = tmp_path / "g.cali"
        write_records(path, [Record({"a": 1})], globals_={"mpi.rank": 7})
        code = main(["--globals", str(path)])
        assert code == 0
        assert "mpi.rank=7" in capsys.readouterr().out

    def test_rcf_inspection_builds_no_record(self, tmp_path, capsys, no_record_hydration):
        from repro.io import write_colfile

        path = str(tmp_path / "g.rcf")
        write_colfile(
            path,
            [Record({"kernel": "hot", "time.duration": 3.0}), Record({"level": 1})],
            globals_={"mpi.rank": 7},
            chunk_rows=1,
        )
        assert main(["--list-attributes", "--globals", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "kernel", "level", "time.duration", f"{path}: mpi.rank=7",
        ]

    def test_query_required_without_flags(self, data_file, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main([data_file])


class TestSubcommandSuggestions:
    def test_typo_suggests_convert(self, capsys):
        assert main(["conver"]) == 2
        err = capsys.readouterr().err
        assert "unknown subcommand 'conver'" in err
        assert "did you mean 'convert'?" in err

    def test_typo_suggests_serve(self, capsys):
        assert main(["sevre"]) == 2
        assert "did you mean 'serve'?" in capsys.readouterr().err

    def test_flags_files_and_gibberish_are_not_typos(self, tmp_path, monkeypatch):
        assert _suggest_subcommand("-q") is None
        assert _suggest_subcommand("data.cali") is None
        assert _suggest_subcommand("zzzzqqq") is None
        (tmp_path / "servee").write_text("")
        monkeypatch.chdir(tmp_path)
        assert _suggest_subcommand("servee") is None

    @pytest.mark.parametrize(
        "argv", [["check", "a.rcf", "b.rcf"], ["store", "list", "--store", "profiles"]]
    )
    def test_removed_subcommands_are_usage_errors(self, tmp_path, monkeypatch, capsys, argv):
        from repro.io import write_colfile

        monkeypatch.chdir(tmp_path)
        for name in ("a.rcf", "b.rcf"):
            write_colfile(name, [Record({"kernel": "hot", "time.duration": 3.0})])
        (tmp_path / "profiles").mkdir()
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse's usage error
            code = exit_.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(("usage: repro-query", "repro-query: unknown subcommand"))
        assert "Traceback" not in err
