#!/usr/bin/env python3
"""The repo's benchmark: one harness, four workloads, one result schema.

Three ways to run it::

    # the driver's contract: one workload, one JSON result line last on stdout
    python3 benchmarks/suite/run.py --workload stream_tree --seed 7 --seconds 25 --trace 0

    # everything: each workload untraced (end-to-end metrics) and traced
    # (per-layer metrics), every one in a fresh interpreter, one table
    python3 benchmarks/suite/run.py [--seed N] [--seconds S] [--repeat R] [--smoke] [--out A.json]

    # two result files of the all-workloads form, judged against the bounds
    python3 benchmarks/suite/run.py --compare A.json B.json

End-to-end metrics come from the untraced run; ``--trace 1`` runs the same
inputs with spans recorded around the benchmark's calls into the program and
then replays each layer in isolation (see ``workloads.py``/``tracing.py``).
A repetition is set-up + timed sections + oracle check + tear-down; the
harness repeats until ``--seconds`` is used up (at least three times, four
when tracing so both traced and untraced repetitions exist).  A metric's
value is the median of its samples pooled over the repetitions; the result
file also carries min, max and the sample count.

Exit code: 0 when every oracle passed and no operation failed, 1 otherwise
(and when ``--compare`` finds a regression), 2 for a usage or set-up error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
MANIFEST = os.path.join(REPO_ROOT, "BENCHMARK.json")
WORK_DIR = os.path.join(SUITE_DIR, ".work")
DEFAULT_SEED = 20170905  # CLUSTER 2017; also recorded in the README

#: how each metric is computed from the samples: sample name and aggregate
#: (``median`` unless named).  Names and units live in BENCHMARK.json.
AGGREGATES = {
    "gen.lag_ms_p95": ("gen.lag_ms", "p95"),
    "live.visible_ms_p95": ("live.visible_ms", "p95"),
    "net.server.queue_depth_max": ("net.server.queue_depth_max", "max"),
    "net.client.ack_ms_p50": ("net.client.ack_ms", "median"),
    "window.retire_ms_p50": ("window.retire_ms", "median"),
    "window.estimate_ms_p50": ("window.estimate_ms", "median"),
}


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as stream:
        return json.load(stream)


def aggregate(values: list, how: str):
    values = sorted(v for v in values if v is not None)
    if not values:
        return None
    if how == "p95":  # nearest rank
        return values[int(round(0.95 * (len(values) - 1)))]
    if how == "max":
        return max(values)
    return statistics.median(values)


def summarize(samples, names: list[dict]) -> dict:
    """``{metric: {value, unit, min, max, n[, raw]}}`` for the manifest's metrics.

    ``raw`` is the same aggregate over the unscaled readings, for metrics
    that are scaled to the reference machine speed (see ``speed.py``).
    """
    out = {}
    for spec in names:
        name = spec["name"]
        sample_name, how = AGGREGATES.get(name, (name, "median"))
        values = [v for v in samples.get(sample_name) if v is not None]
        out[name] = {
            "value": aggregate(values, how),
            "unit": spec["unit"],
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "n": len(values),
        }
        if sample_name in samples.raw:
            out[name]["raw"] = aggregate(samples.raw[sample_name], how)
    return out


# -- one workload, in this interpreter ------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 trace_out: str | None) -> dict:
    from oracle import Ledger
    from speed import MachineSpeed
    from tracing import Tracer
    from workloads import SIZES, SMOKE_SIZES, WORKLOADS, Samples

    from repro import observe

    manifest = load_manifest()
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    workload_cls = WORKLOADS[name]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    tracer, untraced = Tracer(True), Tracer(False)
    speed = MachineSpeed()
    ledger = Ledger()
    oracle_cache: dict = {}
    plain, traced = Samples(), Samples()
    min_reps = 4 if trace else 3
    rep_walls: list[float] = []
    started = time.perf_counter()
    try:
        while True:
            # A traced run alternates untraced and traced repetitions: the
            # untraced ones are the baseline of trace.overhead_frac.
            traced_rep = trace and len(rep_walls) % 2 == 1
            out = traced if traced_rep else plain
            rep_start = time.perf_counter()
            tracer.scope = f"rep{len(rep_walls)}."
            workload = workload_cls(seed, sizes, tracer if traced_rep else untraced,
                                    ledger, workdir, speed, oracle_cache)
            try:
                before = speed.sample()
                setup_start = time.perf_counter()
                workload.setup()
                setup_s = time.perf_counter() - setup_start
                out.add_time("setup_s", setup_s, (before + speed.sample()) / 2.0)
                # Keep the harness's own heap (generated inputs, oracle rows)
                # out of the cyclic collector's sight while the program is
                # timed: collections then cost what the program's objects cost.
                gc.collect()
                gc.freeze()
                workload.measure(out)
                workload.verify()
                now = time.perf_counter()
                rep_walls.append(now - rep_start)
                done = (len(rep_walls) >= min_reps
                        and now - started + min(rep_walls) > seconds)
                if done and trace:
                    workload.replay(traced, plain)
            finally:
                workload.teardown()
                gc.unfreeze()
            if done:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        base, with_spans = plain.median("timed_wall_s"), traced.median("timed_wall_s")
        traced.add("trace.overhead_frac", with_spans / base - 1.0)
        traced.add("harness.calibration_ms", statistics.median(speed.samples) * 1e3)
        if trace_out:
            tracer.write(trace_out)
        metrics = summarize(traced, manifest["per_layer"])
    else:
        plain.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = summarize(plain, manifest["end_to_end"])
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "sizes": sizes,
        "repetitions": len(rep_walls),
        "run": observe.run_info(repo=REPO_ROOT, workload=name, config=sizes),
        "calibration": speed.summary(),
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed_frac,
        "failures": ledger.notes,
        "ledger": {"skipped": ledger.skipped},
        "metrics": metrics,
    }
    if trace:
        doc["spans"] = len(tracer.spans)
        doc["self_time_s"] = {
            span: ns / 1e9 for span, ns in sorted(tracer.self_times_ns().items())
        }
    return doc


def contract_line(doc: dict) -> str:
    """The driver's result line.  A metric this workload does not exercise
    (or a staged stage whose function is gone) reads 0 there; the result
    file keeps null and ``ledger.skipped`` says which it was."""
    return json.dumps({
        "correct": doc["correct"],
        "attempted": max(doc["attempted"], 1),
        "failed": doc["failed"],
        "metrics": {
            name: {"value": m["value"] if m["value"] is not None else 0, "unit": m["unit"]}
            for name, m in doc["metrics"].items()
        },
    })


def print_workload(doc: dict) -> None:
    kind = "per-layer (traced)" if doc["trace"] else "end-to-end (untraced)"
    print(f"# {doc['workload']}  seed={doc['seed']}  {kind}  "
          f"repetitions={doc['repetitions']}  sizes={json.dumps(doc['sizes'])}")
    for name, m in doc["metrics"].items():
        if m["value"] is None:
            continue
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']:<6} "
              f"min {m['min']:.6g}  max {m['max']:.6g}  n={m['n']}")
    print(f"{'failed_frac':<36} {doc['failed_frac']:>16.6g} ratio  "
          f"failed {doc['failed']} / attempted {doc['attempted']}")
    for note in doc["failures"]:
        print(f"  FAILED: {note}")
    for note in doc["ledger"]["skipped"]:
        print(f"  SKIPPED: {note}")


# -- all workloads, each in a fresh interpreter --------------------------------------------


def run_all(args) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    os.makedirs(WORK_DIR, exist_ok=True)
    invocations: dict[str, dict[str, list]] = {n: {"e2e": [], "layers": []} for n in names}
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            for trace, slot in ((0, "e2e"), (1, "layers")):
                handle, doc_path = tempfile.mkstemp(suffix=".json", dir=WORK_DIR)
                os.close(handle)
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", doc_path,
                ]
                if args.smoke:
                    command.append("--smoke")
                if trace and args.trace_out:
                    command += ["--trace-out", f"{args.trace_out}.{name}.json"]
                try:
                    proc = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=600)
                    with open(doc_path, encoding="utf-8") as stream:
                        text = stream.read()
                finally:
                    os.unlink(doc_path)
                if not text:
                    print(f"{name} (--trace {trace}) exited {proc.returncode} without a result",
                          file=sys.stderr)
                    return 2
                invocations[name][slot].append(json.loads(text))
                status = max(status, proc.returncode)
    result = merge_invocations(manifest, invocations, args)
    print_tables(manifest, result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(result, stream, indent=1)
            stream.write("\n")
        print(f"wrote {args.out}")
    return status


def merge_invocations(manifest: dict, invocations: dict, args) -> dict:
    """One result file: per (workload, metric) the median over invocations."""
    from repro import observe

    results = {}
    for name, slots in invocations.items():
        entry = {"sizes": slots["e2e"][0]["sizes"], "metrics": {}, "attempted": 0,
                 "failed": 0, "failures": [], "skipped": []}
        for docs in slots.values():
            for doc in docs:
                entry["attempted"] += doc["attempted"]
                entry["failed"] += doc["failed"]
                entry["failures"] += doc["failures"]
                entry["skipped"] += [s for s in doc["ledger"]["skipped"]
                                     if s not in entry["skipped"]]
            for metric in docs[0]["metrics"]:
                cells = [d["metrics"][metric] for d in docs]
                values = [c["value"] for c in cells if c["value"] is not None]
                if not values:
                    entry["metrics"][metric] = {"value": None, "unit": cells[0]["unit"]}
                    continue
                entry["metrics"][metric] = {
                    "value": statistics.median(values),
                    "unit": cells[0]["unit"],
                    # one reading per invocation: the run-to-run spread
                    "values": values,
                    "min": min(values),
                    "max": max(values),
                    "samples": sum(c["n"] for c in cells),
                }
                raws = [c["raw"] for c in cells if c.get("raw") is not None]
                if raws:
                    entry["metrics"][metric]["raw"] = statistics.median(raws)
        entry["failed_frac"] = entry["failed"] / max(entry["attempted"], 1)
        results[name] = entry
    return {
        "run": observe.run_info(repo=REPO_ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "invocations": args.repeat,
        "results": results,
    }


def print_tables(manifest: dict, result: dict) -> None:
    names = [w["name"] for w in manifest["workloads"]]
    run = result["run"]
    print(f"commit {run.get('run.commit', '?')}  python {run['run.python']}  "
          f"cpus {run['run.cpu_count']}  seed {result['seed']}  "
          f"invocations {result['invocations']}")
    width = 18

    def table(title: str, specs: list[dict]) -> None:
        print(f"\n{title}")
        print(f"{'metric':<34}{'unit':<7}" + "".join(f"{n:>{width}}" for n in names))
        for spec in specs:
            cells = []
            for name in names:
                m = result["results"][name]["metrics"].get(spec["name"], {})
                cells.append("-" if m.get("value") is None else f"{m['value']:.6g}")
            print(f"{spec['name']:<34}{spec['unit']:<7}"
                  + "".join(f"{c:>{width}}" for c in cells))

    table("end-to-end (untraced runs)", manifest["end_to_end"])
    print(f"{'failed_frac':<34}{'ratio':<7}" + "".join(
        f"{result['results'][n]['failed_frac']:>{width}.6g}" for n in names))
    print(f"{'failed / attempted':<34}{'count':<7}" + "".join(
        f"{str(result['results'][n]['failed']) + ' / ' + str(result['results'][n]['attempted']):>{width}}"
        for n in names))
    table("per-layer (traced runs; '-' = layer not exercised by the workload)",
          manifest["per_layer"])
    for name in names:
        for note in result["results"][name]["failures"]:
            print(f"FAILED {name}: {note}")
        for note in result["results"][name]["skipped"]:
            print(f"SKIPPED {name}: {note}")


# -- compare two result files -------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    manifest = load_manifest()
    with open(path_a, encoding="utf-8") as stream:
        a = json.load(stream)
    with open(path_b, encoding="utf-8") as stream:
        b = json.load(stream)
    print(f"A = {path_a} (commit {a['run'].get('run.commit', '?')}, seed {a['seed']}, "
          f"{a['invocations']} invocations)")
    print(f"B = {path_b} (commit {b['run'].get('run.commit', '?')}, seed {b['seed']}, "
          f"{b['invocations']} invocations)")
    print(f"{'metric':<22}{'workload':<16}{'A':>14}{'B':>14}  {'B/A (base A)':<22}"
          f"{'bound':>7}  verdict")
    regressed = 0
    for name in (w["name"] for w in manifest["workloads"]):
        ra, rb = a["results"].get(name), b["results"].get(name)
        if ra is None or rb is None:
            continue
        for spec in manifest["end_to_end"]:
            ma, mb = ra["metrics"].get(spec["name"], {}), rb["metrics"].get(spec["name"], {})
            va, vb = ma.get("value"), mb.get("value")
            if va is None or vb is None:
                continue
            bound = spec["bound"]
            lower = spec["better"] == "lower"
            worse_by = (vb / va - 1.0) if lower else (va / vb - 1.0)
            verdict = "REGRESSED" if worse_by > bound else "PASS"
            if min(len(ma["values"]), len(mb["values"])) < 2:
                verdict += " (one invocation: run-to-run spread unknown, use --repeat)"
            else:
                spread = max((m["max"] - m["min"]) / m["value"] for m in (ma, mb))
                # every B reading better than every A reading settles it
                b_all_better = mb["max"] < ma["min"] if lower else mb["min"] > ma["max"]
                if spread > bound and not b_all_better:
                    verdict = f"UNRESOLVED (spread {spread:.1%} > bound)"
            regressed += verdict.startswith("REGRESSED")
            print(f"{spec['name']:<22}{name:<16}{va:>14.6g}{vb:>14.6g}  "
                  f"{vb / va:<8.4f}of {va:<10.4g}{bound:>7.0%}  {verdict}")
        for side, r in (("A", ra), ("B", rb)):
            if r["failed"]:
                print(f"{'failed_frac':<22}{name:<16} {side}: {r['failed']} / {r['attempted']}")
        if rb["failed"] * max(ra["attempted"], 1) > ra["failed"] * max(rb["attempted"], 1):
            print(f"{'failed_frac':<22}{name:<16} REGRESSED (any increase fails)")
            regressed += 1
        for spec in manifest["per_layer"]:
            if spec["unit"] != "count":
                continue
            va = ra["metrics"].get(spec["name"], {}).get("value")
            vb = rb["metrics"].get(spec["name"], {}).get("value")
            if va is not None and vb is not None and va != vb:
                print(f"{spec['name']:<22}{name:<16}{va:>14.6g}{vb:>14.6g}  count DIFFERS")
    return 1 if regressed else 0


# -- entry point --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this interpreter "
                        "(default: all, each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds; "
                        "0 with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="1: traced run, per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--trace-out", help="write the spans here (traced runs)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--repeat", type=int, default=1,
                        help="invocations per workload when running all of them")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print(f"run.py: {os.path.join(REPO_ROOT, 'src', 'repro')} not found: the benchmark "
              "measures the program in this checkout and cannot run without it",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.path.insert(0, SUITE_DIR)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(load_manifest()["run_seconds"])
    if args.workload is None:
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.smoke, args.trace_out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(doc, stream)
    print_workload(doc)
    print(contract_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
