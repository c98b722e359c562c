"""Experiment drivers for every table and figure in the paper.

Each ``experiment_*`` function reproduces one evaluation artifact and
returns structured data; the ``render_*`` helpers print the same rows or
series the paper reports.  The ``bench_*.py`` files wrap the hot paths in
pytest-benchmark; ``run_report.py`` executes everything and prints the full
report used to fill EXPERIMENTS.md.

Scale: the default configuration is laptop-sized (a few seconds per
experiment) but structurally identical to the paper's setup.  Set the
environment variable ``REPRO_BENCH_FULL=1`` for paper-scale runs
(100 timesteps / 36 ranks / ~200k snapshots per process for the overhead
study; 4096 simulated ranks for the scalability sweep).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.apps.cleverleaf import (
    SCHEME_A,
    SCHEME_B,
    SCHEME_C,
    CleverLeafConfig,
    WorkloadPlan,
    channel_config_aggregate,
    channel_config_sampling,
    channel_config_trace,
    run_rank,
    run_simulation,
)
from repro.apps.paradis import TOTAL_TIME_QUERY, ParaDiSConfig, generate_rank_records
from repro.common.util import format_count
from repro.mpi import LatencyBandwidthNetwork
from repro.query import MPIQueryRunner, QueryEngine
from repro.report import (
    format_barchart,
    format_distribution,
    format_series,
    format_table,
    pivot_series,
)

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0", "false")


# ---------------------------------------------------------------------------
# shared configuration
# ---------------------------------------------------------------------------


def overhead_config() -> CleverLeafConfig:
    """The Section V-B overhead-study workload.

    Full scale matches the paper: 100 timesteps, 36 ranks, and an event
    volume in the 200k-snapshots-per-process range.  Quick scale keeps the
    structure at ~1/40 of the event volume.
    """
    if FULL_SCALE:
        # 36 kernel repetitions per (level, kernel) per step lands the event
        # volume at ~216k snapshots per process — the paper's 219 382.
        return CleverLeafConfig(timesteps=100, ranks=36, events_scale=36)
    return CleverLeafConfig(timesteps=40, ranks=36, target_runtime=10.0, events_scale=2)


def case_study_config() -> CleverLeafConfig:
    """The Section VI case-study workload (18 ranks in the paper)."""
    if FULL_SCALE:
        return CleverLeafConfig(timesteps=100, ranks=18)
    return CleverLeafConfig(timesteps=30, ranks=18, target_runtime=8.0)


_plan_cache: dict = {}


def plan_for(config: CleverLeafConfig) -> WorkloadPlan:
    key = repr(config)
    if key not in _plan_cache:
        _plan_cache[key] = WorkloadPlan(config)
    return _plan_cache[key]


#: (name, mode, channel-config factory) for Table I / Fig. 3 configurations
def overhead_configurations() -> list[tuple[str, str, Optional[dict]]]:
    out: list[tuple[str, str, Optional[dict]]] = []
    for mode in ("sample", "event"):
        out.append((f"trace ({mode})", mode, channel_config_trace(mode)))
        for name, scheme in (("A", SCHEME_A), ("B", SCHEME_B), ("C", SCHEME_C)):
            out.append(
                (
                    f"scheme {name} ({mode})",
                    mode,
                    channel_config_aggregate(scheme, mode),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Table I — snapshots and output records per process
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    config: str
    snapshots: int
    output_records: int


def experiment_table1(rank: int = 0) -> list[Table1Row]:
    config = overhead_config()
    plan = plan_for(config)
    rows: list[Table1Row] = []
    for name, _mode, channel_config in overhead_configurations():
        run = run_rank(config, plan, rank, channel_config)
        rows.append(Table1Row(name, run.num_snapshots, run.num_output_records))
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    lines = ["Table I — snapshots and output records per process", ""]
    width = max(len(r.config) for r in rows)
    lines.append(f"{'Config'.ljust(width)}  {'Snapshots':>10}  {'Output records':>15}")
    for r in rows:
        lines.append(
            f"{r.config.ljust(width)}  {format_count(r.snapshots):>10}  "
            f"{format_count(r.output_records):>15}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 3 — on-line aggregation overhead
# ---------------------------------------------------------------------------


@dataclass
class OverheadRow:
    config: str
    mean_seconds: float
    stdev_seconds: float
    overhead_pct: Optional[float] = None  # added wall time vs application time


def experiment_fig3(repetitions: int = 5, rank: int = 0) -> list[OverheadRow]:
    """Collection cost of each configuration, as application overhead.

    The paper measures the instrumented target program's wall-clock runtime;
    the application compute itself is what dominates it, and the collection
    machinery adds a small percentage.  In our reproduction the application
    compute is *simulated* (a virtual clock), so we measure the real wall
    time of driving the full annotation/snapshot/aggregation pipeline and
    report overhead as::

        (mean wall time - baseline wall time) / simulated application time

    — the added cost relative to what the application's computation would
    have cost on the real machine, which is exactly the quantity the paper's
    percentages express.
    """
    config = overhead_config()
    plan = plan_for(config)
    app_time = plan.rank_total(rank)
    rows: list[OverheadRow] = []

    configurations: list[tuple[str, Optional[dict], bool]] = [
        ("baseline (no collection)", None, False)
    ]
    configurations += [
        (name, channel_config, True)
        for name, _mode, channel_config in overhead_configurations()
    ]

    import gc

    baseline_mean = None
    for name, channel_config, enabled in configurations:
        times = []
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repetitions):
                run = run_rank(config, plan, rank, channel_config, enabled=enabled)
                times.append(run.wall_seconds)
        finally:
            if gc_was_enabled:
                gc.enable()
        # Median over the repetitions: robust against one-off allocator or
        # OS hiccups, which dominate the variation at these magnitudes.
        mean = statistics.median(times)
        stdev = statistics.stdev(times) if len(times) > 1 else 0.0
        row = OverheadRow(name, mean, stdev)
        if name.startswith("baseline"):
            baseline_mean = mean
        elif baseline_mean is not None:
            row.overhead_pct = 100.0 * (mean - baseline_mean) / app_time
        rows.append(row)
    return rows


def render_fig3(rows: list[OverheadRow]) -> str:
    lines = [
        "Figure 3 — on-line aggregation overhead",
        "(collection wall time; overhead relative to the simulated application time)",
        "",
    ]
    width = max(len(r.config) for r in rows)
    lines.append(
        f"{'Config'.ljust(width)}  {'mean [s]':>10}  {'stdev':>8}  {'overhead':>9}"
    )
    for r in rows:
        pct = f"{r.overhead_pct:+.2f}%" if r.overhead_pct is not None else "-"
        lines.append(
            f"{r.config.ljust(width)}  {r.mean_seconds:>10.4f}  "
            f"{r.stdev_seconds:>8.4f}  {pct:>9}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 4 — scalability of the MPI query application
# ---------------------------------------------------------------------------


@dataclass
class ScalingPoint:
    processes: int
    total: float
    local: float
    reduce: float
    output_records: int


def experiment_fig4(sizes: Optional[list[int]] = None) -> list[ScalingPoint]:
    """Weak-scaling sweep: one (generated) ParaDiS file per process."""
    if sizes is None:
        sizes = (
            [1, 4, 16, 64, 256, 1024, 4096] if FULL_SCALE else [1, 4, 16, 64, 256]
        )
    cfg = (
        ParaDiSConfig(ranks=max(sizes))
        if FULL_SCALE
        else ParaDiSConfig(ranks=max(sizes), records_per_rank=400, iterations=20)
    )
    network = LatencyBandwidthNetwork(latency=1.5e-6, bandwidth=12e9)
    points: list[ScalingPoint] = []
    for size in sizes:
        runner = MPIQueryRunner(TOTAL_TIME_QUERY, size=size, network=network)
        # Streaming generation: one rank's records in memory at a time, so
        # the 4096-rank point stays laptop-sized and GC noise stays out of
        # the measured local times.
        outcome = runner.run_generated(lambda rank: generate_rank_records(cfg, rank))
        points.append(
            ScalingPoint(
                processes=size,
                total=outcome.times.total,
                local=outcome.times.local,
                reduce=outcome.times.reduce,
                output_records=outcome.num_output_records,
            )
        )
    return points


def render_fig4(points: list[ScalingPoint]) -> str:
    lines = [
        "Figure 4 — cross-process aggregation scalability (weak scaling, "
        "1 file/process)",
        "",
        f"{'procs':>6}  {'total [s]':>10}  {'local [s]':>10}  {'reduce [s]':>10}  {'out':>5}",
    ]
    for p in points:
        lines.append(
            f"{p.processes:>6}  {p.total:>10.5f}  {p.local:>10.5f}  "
            f"{p.reduce:>10.5f}  {p.output_records:>5}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Case study: shared dataset (scheme C profile over all ranks)
# ---------------------------------------------------------------------------

_case_study_dataset = None


def case_study_dataset():
    """Scheme-C event profiles for every rank of the case-study run."""
    global _case_study_dataset
    if _case_study_dataset is None:
        config = case_study_config()
        out = run_simulation(
            config, channel_config_aggregate(SCHEME_C, "event"), plan=plan_for(config)
        )
        _case_study_dataset = out.dataset()
    return _case_study_dataset


# ---------------------------------------------------------------------------
# Figure 5 — computational kernel profile (sampling)
# ---------------------------------------------------------------------------


def experiment_fig5() -> list[tuple[str, float]]:
    """100 Hz sampling; counts summed across processes, scaled to seconds."""
    config = case_study_config()
    out = run_simulation(
        config, channel_config_sampling(period=0.01), plan=plan_for(config)
    )
    result = out.dataset().query(
        "AGGREGATE sum(aggregate.count) GROUP BY kernel "
        "ORDER BY sum#aggregate.count DESC"
    )
    rows = []
    for r in result:
        kernel = r.get("kernel").value or "(no kernel)"
        rows.append((kernel, r["sum#aggregate.count"].to_double() * 0.01))
    return rows


def render_fig5(rows: list[tuple[str, float]]) -> str:
    return format_barchart(
        rows,
        unit=" s",
        title="Figure 5 — CPU time per computational kernel (from 100 Hz samples)",
    )


# ---------------------------------------------------------------------------
# Figure 6 — MPI function profile
# ---------------------------------------------------------------------------


def experiment_fig6() -> list[tuple[str, float]]:
    result = case_study_dataset().query(
        "AGGREGATE sum(sum#time.duration) WHERE mpi.function "
        "GROUP BY mpi.function ORDER BY sum#sum#time.duration DESC LIMIT 10"
    )
    return [
        (r["mpi.function"].value, r["sum#sum#time.duration"].to_double())
        for r in result
    ]


def render_fig6(rows: list[tuple[str, float]]) -> str:
    return format_barchart(
        rows, unit=" s", title="Figure 6 — accumulated CPU time, top 10 MPI functions"
    )


# ---------------------------------------------------------------------------
# Figure 7 — load balance across ranks
# ---------------------------------------------------------------------------


def experiment_fig7() -> list[tuple[str, list[float]]]:
    ds = case_study_dataset()

    def per_rank(where: str) -> list[float]:
        result = ds.query(
            f"AGGREGATE sum(sum#time.duration) {where} GROUP BY mpi.rank ORDER BY mpi.rank"
        )
        return [r["sum#sum#time.duration"].to_double() for r in result]

    return [
        ("computation (total)", per_rank("WHERE not(mpi.function)")),
        ("MPI (total)", per_rank("WHERE mpi.function")),
        ("calc-dt", per_rank('WHERE kernel="calc-dt"')),
        ("advec-cell", per_rank('WHERE kernel="advec-cell"')),
        ("advec-mom", per_rank('WHERE kernel="advec-mom"')),
        ("MPI_Barrier", per_rank('WHERE mpi.function="MPI_Barrier"')),
        ("MPI_Allreduce", per_rank('WHERE mpi.function="MPI_Allreduce"')),
    ]


def render_fig7(rows: list[tuple[str, list[float]]]) -> str:
    return format_distribution(
        rows, title="Figure 7 — time distribution across MPI ranks (min/median/max)"
    )


# ---------------------------------------------------------------------------
# Figures 8 & 9 — AMR level time over timesteps / ranks
# ---------------------------------------------------------------------------


def experiment_fig8():
    result = case_study_dataset().query(
        "AGGREGATE sum(sum#time.duration) WHERE not(mpi.function) "
        "GROUP BY amr.level, iteration#mainloop"
    )
    return pivot_series(
        list(result), "iteration#mainloop", "amr.level", "sum#sum#time.duration"
    )


def render_fig8(pivoted) -> str:
    xs, names, series = pivoted
    series = {f"level {n}": v for n, v in series.items() if n}
    return (
        "Figure 8 — runtime per mesh refinement level per timestep\n"
        + format_series(xs, series, x_label="step")
    )


def experiment_fig9():
    result = case_study_dataset().query(
        "AGGREGATE sum(sum#time.duration) WHERE not(mpi.function) "
        "GROUP BY amr.level, mpi.rank"
    )
    return pivot_series(list(result), "mpi.rank", "amr.level", "sum#sum#time.duration")


def render_fig9(pivoted) -> str:
    xs, names, series = pivoted
    series = {f"level {n}": v for n, v in series.items() if n}
    return (
        "Figure 9 — runtime per mesh refinement level per MPI rank\n"
        + format_series(xs, series, x_label="rank")
    )


# ---------------------------------------------------------------------------
# Section III-B — the Listing 1 table
# ---------------------------------------------------------------------------


def experiment_listing1():
    from repro.apps.listing1 import run_listing1
    from repro.calql.ast import OrderSpec
    from repro.io import ColumnStore
    from repro.query.engine import order_rows

    records, _ = run_listing1(iterations=4)
    store = ColumnStore.from_records(records)
    order = [OrderSpec("loop.iteration"), OrderSpec("function", ascending=False)]
    return store.take(order_rows(store, order)).records


def render_listing1(records) -> str:
    return (
        "Section III-B — time-series function profile of Listing 1\n"
        + format_table(
            records,
            preferred=["function", "loop.iteration", "count", "sum#time.duration"],
        )
    )
