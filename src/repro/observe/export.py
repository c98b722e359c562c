"""Exporters: metrics → stats table, JSON payload, or snapshot records.

Three consumers, three shapes:

* :func:`stats_table` — the human-readable ``--stats`` table the query CLI
  prints to stderr;
* :func:`to_dict` — a JSON-able payload (``--json-stats``);
* :func:`to_records` — the headline: every metric becomes an ordinary
  snapshot :class:`~repro.common.record.Record` with ``observe.*`` labels,
  so the profiler's own telemetry is CalQL-queryable::

      AGGREGATE sum(observe.time) GROUP BY observe.phase

  :func:`flush_to_channel` goes one step further and pushes those records
  through a real runtime channel (blackboard snapshot → trace service →
  flush), dogfooding the exact pipeline the system profiles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..common.record import Record
from ..common.variant import Variant
from .registry import MetricsRegistry, registry

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.instrumentation import Caliper

__all__ = ["stats_table", "to_dict", "to_records", "flush_to_channel"]


def _flat_name(name: str, tags: tuple) -> str:
    """``name{k=v,...}`` — one stable string key per metric identity."""
    if not tags:
        return name
    inner = ",".join(f"{k}={v}" for k, v in tags)
    return f"{name}{{{inner}}}"


def to_dict(reg: Optional[MetricsRegistry] = None) -> dict:
    """JSON-able payload: counters/gauges as flat maps, timers with stats."""
    snap = (reg or registry()).snapshot()
    return {
        "counters": {
            _flat_name(name, tags): value
            for (name, tags), value in sorted(snap["counters"].items())
        },
        "gauges": {
            _flat_name(name, tags): value
            for (name, tags), value in sorted(snap["gauges"].items())
        },
        "timers": {
            _flat_name(name, tags): {
                "count": n,
                "total": total,
                "mean": total / n if n else 0.0,
                "min": mn,
                "max": mx,
            }
            for (name, tags), (n, total, mn, mx) in sorted(snap["timers"].items())
        },
    }


def to_records(reg: Optional[MetricsRegistry] = None) -> list[Record]:
    """One snapshot record per metric, in the system's own data model.

    Shared labels: ``observe.kind`` (timer/counter/gauge), ``observe.phase``
    (the metric's leaf name — what per-phase aggregations group by), and one
    ``observe.<tag>`` entry per tag.  Timers add ``observe.path`` (the full
    nesting path), ``observe.count``, ``observe.time`` (total seconds) and
    min/max; counters and gauges add ``observe.metric``/``observe.value``.
    """
    snap = (reg or registry()).snapshot()
    out: list[Record] = []
    for (path, tags), (n, total, mn, mx) in snap["timers"].items():
        entries: dict[str, Variant] = {
            "observe.kind": Variant.of("timer"),
            "observe.path": Variant.of(path),
            "observe.phase": Variant.of(path.rsplit("/", 1)[-1]),
            "observe.count": Variant.of(n),
            "observe.time": Variant.of(total),
            "observe.time.min": Variant.of(mn),
            "observe.time.max": Variant.of(mx),
        }
        for key, value in tags:
            entries[f"observe.{key}"] = Variant.of(value)
        out.append(Record.from_variants(entries))
    for kind, table in (("counter", snap["counters"]), ("gauge", snap["gauges"])):
        for (name, tags), value in table.items():
            entries = {
                "observe.kind": Variant.of(kind),
                "observe.metric": Variant.of(name),
                "observe.phase": Variant.of(name.rsplit("/", 1)[-1]),
                "observe.value": Variant.of(value),
            }
            for key, value_ in tags:
                entries[f"observe.{key}"] = Variant.of(value_)
            out.append(Record.from_variants(entries))
    return out


def stats_table(reg: Optional[MetricsRegistry] = None) -> str:
    """The aligned, human-readable metrics report (``--stats`` output).

    Timer totals are printed with microsecond resolution; the per-phase rows
    here are the numbers the telemetry records reproduce under CalQL.
    """
    snap = (reg or registry()).snapshot()
    lines: list[str] = [
        f"observe: {len(snap['timers'])} timers, "
        f"{len(snap['counters'])} counters, {len(snap['gauges'])} gauges"
    ]

    if snap["timers"]:
        rows = [
            (
                _flat_name(path, tags),
                str(n),
                f"{total:.6f}",
                f"{total / n:.6f}",
                f"{mn:.6f}",
                f"{mx:.6f}",
            )
            for (path, tags), (n, total, mn, mx) in sorted(snap["timers"].items())
        ]
        header = ("timer (path)", "count", "total s", "mean s", "min s", "max s")
        widths = [
            max(len(header[i]), max(len(r[i]) for r in rows)) for i in range(6)
        ]
        lines.append("")
        lines.append(
            "  ".join(
                h.ljust(widths[i]) if i == 0 else h.rjust(widths[i])
                for i, h in enumerate(header)
            )
        )
        for row in rows:
            lines.append(
                "  ".join(
                    c.ljust(widths[i]) if i == 0 else c.rjust(widths[i])
                    for i, c in enumerate(row)
                )
            )

    for title, table in (("counters", snap["counters"]), ("gauges", snap["gauges"])):
        if not table:
            continue
        rows = [
            (_flat_name(name, tags), str(value))
            for (name, tags), value in sorted(table.items())
        ]
        name_w = max(len(title), max(len(r[0]) for r in rows))
        val_w = max(len("value"), max(len(r[1]) for r in rows))
        lines.append("")
        lines.append(f"{title.ljust(name_w)}  {'value'.rjust(val_w)}")
        for name, value in rows:
            lines.append(f"{name.ljust(name_w)}  {value.rjust(val_w)}")
    return "\n".join(lines)


def flush_to_channel(
    caliper: Optional["Caliper"] = None,
    channel_name: str = "observe.telemetry",
    reg: Optional[MetricsRegistry] = None,
) -> list[Record]:
    """Push the collected metrics through a real runtime channel.

    Creates a trace-service channel on ``caliper`` (a private runtime
    instance by default), takes one snapshot per metric record, and returns
    the channel's flushed output — the profiler's telemetry delivered by the
    very snapshot pipeline it measures.  The channel is finished (and the
    name freed) before returning.
    """
    from ..runtime.instrumentation import Caliper  # deferred: observe sits below runtime

    cali = caliper if caliper is not None else Caliper()
    name = channel_name
    suffix = 1
    while name in cali.channels:
        name = f"{channel_name}.{suffix}"
        suffix += 1
    channel = cali.create_channel(name, {"services": ["trace"]})
    try:
        for record in to_records(reg):
            channel.push_snapshot(record.as_dict())
        return channel.flush()
    finally:
        cali.finish_channel(name)
        cali.remove_channel(name)
