"""Generate the smoke profile of the ``docs/regression.md`` demo.

Runs a tiny fixed workload — four cleverleaf-flavored kernels, each a fixed
numpy computation, repeated ``--reps`` times — and aggregates the measured
per-(kernel, rep) durations into a profile::

    AGGREGATE count, sum(time.duration), avg(time.duration)
    GROUP BY kernel, rep

Each rep contributes one sample per kernel, so ``repro-query check --key
kernel`` compares per-kernel *sample distributions* with the rank test
instead of single scalars.  The profile is written as an ``.rcf`` file
(``-o``) and/or saved into a profile store (``--store``), stamped with run
metadata.

``--slowdown KERNEL:FRACTION`` injects a synthetic relative slowdown into
one kernel's recorded durations, which gives a profile that *must* trip the
checker.  Absolute timings are machine-dependent, so both profiles of a
comparison are taken on the same machine, back to back::

    python benchmarks/smoke_profile.py -o base.rcf
    python benchmarks/smoke_profile.py -o slow.rcf --slowdown calc-dt:0.30
    repro-query check base.rcf slow.rcf --key kernel   # exit 1, names calc-dt

The checker's verdicts themselves (+30% => exit 1 naming the kernel,
identical profiles => exit 0) are pinned on fixed inputs by
``tests/store/test_cli.py::TestCheckFileMode``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.common import Record  # noqa: E402
from repro.common.variant import Variant  # noqa: E402
from repro.query.engine import QueryEngine  # noqa: E402

QUERY = (
    "AGGREGATE count, sum(time.duration), avg(time.duration) "
    "GROUP BY kernel, rep ORDER BY kernel, rep"
)

#: fixed kernel workloads: name -> (array size, matmul size)
KERNELS = {
    "calc-dt": (60_000, 40),
    "advec-cell": (120_000, 0),
    "pdv": (80_000, 30),
    "accel": (40_000, 50),
}


def run_kernel(name: str, rng: np.random.Generator) -> float:
    """One timed execution of a fixed synthetic kernel."""
    n, m = KERNELS[name]
    data = rng.random(n)
    t0 = time.perf_counter()
    acc = np.sqrt(data * data + 1.0).sum()
    if m:
        a = data[: m * m].reshape(m, m)
        acc += float(np.linalg.norm(a @ a.T))
    if acc < 0:  # pragma: no cover - keeps the work observable
        print(acc)
    return time.perf_counter() - t0


def collect_records(reps: int, slowdown: dict[str, float]) -> list[Record]:
    rng = np.random.default_rng(seed=7)
    records = []
    for kernel in KERNELS:
        run_kernel(kernel, rng)  # warm caches/JIT'd ufunc paths
    for rep in range(reps):
        for kernel in KERNELS:
            # Best-of-3 per sample: keeps the per-rep sample distribution the
            # rank test wants while trimming scheduler-noise outliers.
            duration = min(run_kernel(kernel, rng) for _ in range(3))
            duration *= 1.0 + slowdown.get(kernel, 0.0)
            records.append(
                Record({"kernel": kernel, "rep": rep, "time.duration": duration})
            )
    return records


def parse_slowdown(spec: str | None) -> dict[str, float]:
    if not spec:
        return {}
    kernel, sep, frac = spec.partition(":")
    if not sep or kernel not in KERNELS:
        raise SystemExit(
            f"--slowdown wants KERNEL:FRACTION with KERNEL in "
            f"{', '.join(KERNELS)}; got {spec!r}"
        )
    return {kernel: float(frac)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", help="write the profile to this .rcf file")
    parser.add_argument("--store", help="also save into this profile store")
    parser.add_argument("--workload", default="bench.smoke")
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument(
        "--slowdown",
        metavar="KERNEL:FRACTION",
        help="inject a synthetic relative slowdown into one kernel",
    )
    parser.add_argument(
        "--timestamp", type=float, help="run timestamp (epoch seconds; default now)"
    )
    args = parser.parse_args(argv)
    if not args.output and not args.store:
        parser.error("nothing to do: give -o and/or --store")

    records = collect_records(args.reps, parse_slowdown(args.slowdown))
    result = QueryEngine(QUERY).run(records)
    timestamp = time.time() if args.timestamp is None else args.timestamp

    if args.output:
        from repro.io.colfile import write_colfile
        from repro.observe import run_info

        globals_ = {
            "profile.workload": Variant.of(args.workload),
            "profile.columns": Variant.of(json.dumps(result.preferred_columns)),
            "profile.format": Variant.of(result.format),
        }
        for key, value in run_info(workload=args.workload, timestamp=timestamp).items():
            globals_[key] = Variant.of(value)
        write_colfile(args.output, result.records, globals_=globals_)
        print(f"wrote {args.output} ({len(result.records)} rows)")

    if args.store:
        from repro.store import ProfileStore

        entry = ProfileStore(args.store).save(
            result, workload=args.workload, timestamp=timestamp
        )
        print(f"saved {entry.profile_id[:12]} (workload {args.workload}) to {args.store}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
