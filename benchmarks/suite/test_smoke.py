"""Smoke test of the benchmark suite.

Run with ``python -m pytest benchmarks/suite -q``.  Not part of tier-1: it
starts servers and worker pools and takes about a minute.  Everything runs
at ``--smoke`` size, where the numbers mean nothing and only the shape of
the output, the oracles and the trace are checked.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
RUN = os.path.join(SUITE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: table rows that are not metrics of the manifest
ACCOUNTING_ROWS = {"failed_frac"}
#: counts that must repeat exactly for one seed
EXACT_COUNTS = {
    "online_regions": ["aggregate.entries"],
    "stream_tree": ["net.server.batches"],
    "live_windowed": ["window.late", "window.retired"],
}


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, timeout=600, cwd=cwd
    )


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def everything(tmp_path_factory):
    """All four workloads, untraced and traced, through the one command."""
    tmp = tmp_path_factory.mktemp("suite")
    out = str(tmp / "result.json")
    traces = str(tmp / "trace")
    proc = run("--smoke", "--out", out, "--trace-out", traces)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as stream:
        return proc, json.load(stream), out, traces


def test_manifest_names_and_units(manifest):
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_every_metric_printed_once_with_its_unit(manifest, everything):
    proc, _result, _out, _traces = everything
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    seen: dict[str, int] = {}
    for line in proc.stdout.splitlines():
        tokens = line.split()
        # metric rows are "<name> <unit> <one cell per workload>"
        if len(tokens) != 2 + len(manifest["workloads"]) or tokens[0] == "metric":
            continue
        name, unit = tokens[0], tokens[1]
        assert name in units or name in ACCOUNTING_ROWS, f"unnamed metric row: {line!r}"
        if name in units:
            assert unit == units[name], line
            seen[name] = seen.get(name, 0) + 1
    assert seen == {name: 1 for name in units}


def test_oracles_pass_and_every_metric_has_an_owner(manifest, everything):
    _proc, result, _out, _traces = everything
    for name, entry in result["results"].items():
        assert entry["attempted"] > 0 and entry["failed"] == 0, (name, entry["failures"])
        assert not entry["skipped"], entry["skipped"]
        for metric in manifest["end_to_end"]:
            value = entry["metrics"][metric["name"]]["value"]
            assert value is not None and value > 0, (name, metric["name"])
    for metric in manifest["per_layer"]:
        owners = [
            name for name, entry in result["results"].items()
            if entry["metrics"][metric["name"]]["value"] is not None
        ]
        assert owners, f"no workload reports {metric['name']}"
    assert result["run"]["run.cpu_count"] >= 1 and "run.python" in result["run"]
    assert result["seed"] and all("sizes" in e for e in result["results"].values())


def test_spans_nest_and_share_an_op_id(manifest, everything):
    _proc, _result, _out, traces = everything
    for workload in (w["name"] for w in manifest["workloads"]):
        with open(f"{traces}.{workload}.json", encoding="utf-8") as stream:
            spans = json.load(stream)
        assert spans, workload
        by_id = {s["id"]: s for s in spans}
        roots_per_op: dict = {}
        for span in spans:
            assert span["end_ns"] >= span["start_ns"]
            assert span["op_id"] is not None, span
            parent = by_id.get(span["parent"]) if span["parent"] is not None else None
            if span["parent"] is not None:
                assert parent is not None, f"dangling parent: {span}"
                assert parent["start_ns"] <= span["start_ns"], (parent, span)
                assert span["end_ns"] <= parent["end_ns"], (parent, span)
            if parent is None or parent["op_id"] != span["op_id"]:
                roots_per_op.setdefault(span["op_id"], []).append(span["name"])
        # the spans of one operation form one tree
        for op_id, roots in roots_per_op.items():
            assert len(roots) == 1, (workload, op_id, roots)


def test_contract_lines(manifest):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run("--workload", "online_regions", "--seed", "3", "--seconds", "0",
                   "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in manifest[group]]
        for metric in manifest[group]:
            cell = line["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert isinstance(cell["value"], (int, float))


def test_counts_repeat_exactly_for_one_seed(everything):
    _proc, result, _out, _traces = everything
    for workload, names in EXACT_COUNTS.items():
        proc = run("--workload", workload, "--seed", str(result["seed"]), "--seconds", "0",
                   "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in names:
            first = result["results"][workload]["metrics"][name]["value"]
            assert line["metrics"][name]["value"] == first, (workload, name)


def test_same_seed_same_inputs():
    code = (
        "import sys, hashlib; sys.path[:0] = [%r, %r]\n"
        "import workloads as w\n"
        "from repro.io.colfile import encode_batch\n"
        "h = hashlib.sha256()\n"
        "h.update(repr(w.region_program(int(sys.argv[1]), 3000, 8)).encode())\n"
        "h.update(encode_batch(w.snapshot_records(int(sys.argv[1]), 500, 10, 8)))\n"
        "h.update(encode_batch(w.rank_file_records(int(sys.argv[1]), 1, 500)))\n"
        "s = w.TimedStream(int(sys.argv[1]), 60, 0.025, 40, 200, 5)\n"
        "h.update(encode_batch(s.accepted)); h.update(str(s.late).encode())\n"
        "print(h.hexdigest())\n"
    ) % (SUITE, os.path.join(ROOT, "src"))

    def digest(seed: int) -> str:
        return subprocess.run(
            [sys.executable, "-c", code, str(seed)], capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout.strip()

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_compare_verdicts(everything, tmp_path):
    _proc, result, out, _traces = everything
    same = run("--compare", out, out)
    assert same.returncode == 0, same.stdout
    assert "REGRESSED" not in same.stdout and "PASS" in same.stdout

    def doctored(label: str, readings: list) -> str:
        """The result with one cell replaced by these per-invocation readings."""
        doc = json.loads(json.dumps(result))
        cell = doc["results"]["stream_tree"]["metrics"]["throughput_per_s"]
        base = cell["value"]
        cell["values"] = [base * r for r in readings]
        cell["value"] = sorted(cell["values"])[len(readings) // 2]
        cell["min"], cell["max"] = min(cell["values"]), max(cell["values"])
        path = str(tmp_path / f"{label}.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(doc, stream)
        return path

    steady = doctored("steady", [1.0, 1.01, 0.99])
    regressed = run("--compare", steady, doctored("worse", [0.5, 0.51, 0.49]))
    assert regressed.returncode == 1
    assert re.search(r"throughput_per_s\s+stream_tree.*REGRESSED", regressed.stdout)
    noisy = run("--compare", steady, doctored("noisy", [0.6, 1.0, 1.4]))
    assert noisy.returncode == 0
    assert re.search(r"throughput_per_s\s+stream_tree.*UNRESOLVED", noisy.stdout)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the suite: no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        SUITE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "online_regions",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
