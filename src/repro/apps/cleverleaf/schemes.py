"""The evaluation's aggregation schemes and channel profiles (Section V-B).

The paper examines three aggregation schemes over the 7 collected
attributes:

* **Scheme A** — the aggregation key contains all attributes *except* the
  main-loop iteration number;
* **Scheme B** — only two attributes (we use ``kernel`` and
  ``mpi.function``, the profile a kernel/communication study needs);
* **Scheme C** — all attributes *including* the iteration number (the
  time-series profile; many more output records, Table I).

plus two snapshot-collection modes: asynchronous sampling every 10 ms and
synchronous event triggering; and a tracing configuration that stores every
snapshot.  The helpers here build the corresponding channel configs.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "ALL_ATTRIBUTES",
    "SCHEME_A",
    "SCHEME_B",
    "SCHEME_C",
    "channel_config_aggregate",
    "channel_config_sampling",
    "channel_config_trace",
]

#: the 7 attributes collected in the paper's overhead study
ALL_ATTRIBUTES: tuple[str, ...] = (
    "function",
    "annotation",
    "kernel",
    "amr.level",
    "iteration#mainloop",
    "mpi.function",
    "mpi.rank",
)

_NO_ITERATION = tuple(a for a in ALL_ATTRIBUTES if a != "iteration#mainloop")

#: Scheme A: all attributes except the iteration number.
SCHEME_A: str = (
    "AGGREGATE count, sum(time.duration) GROUP BY " + ", ".join(_NO_ITERATION)
)

#: Scheme B: a two-attribute key.
SCHEME_B: str = "AGGREGATE count, sum(time.duration) GROUP BY kernel, mpi.function"

#: Scheme C: all attributes including the iteration number (time series).
SCHEME_C: str = (
    "AGGREGATE count, sum(time.duration) GROUP BY " + ", ".join(ALL_ATTRIBUTES)
)


def channel_config_aggregate(
    scheme: str,
    mode: str = "event",
    sampling_period: float = 0.01,
) -> dict[str, Any]:
    """Channel config for on-line aggregation in ``event`` or ``sample`` mode."""
    if mode == "event":
        services = ["event", "timer", "aggregate"]
        config: dict[str, Any] = {}
    elif mode == "sample":
        services = ["sampler", "timer", "aggregate"]
        config = {"sampler.period": sampling_period}
    else:
        raise ValueError(f"unknown mode {mode!r} (expected 'event' or 'sample')")
    config.update(
        {
            "services": services,
            "aggregate.config": scheme,
        }
    )
    return config


def channel_config_trace(mode: str = "event", sampling_period: float = 0.01) -> dict[str, Any]:
    """Channel config for the tracing baseline (store every snapshot)."""
    if mode == "event":
        return {"services": ["event", "timer", "trace"]}
    if mode == "sample":
        return {
            "services": ["sampler", "timer", "trace"],
            "sampler.period": sampling_period,
        }
    raise ValueError(f"unknown mode {mode!r} (expected 'event' or 'sample')")


def channel_config_sampling(
    scheme: Optional[str] = None, period: float = 0.01
) -> dict[str, Any]:
    """Sampling channel: count-only profile when no scheme is given.

    This is the Section VI-B configuration: 100 Hz sampling with
    ``AGGREGATE count GROUP BY kernel`` per process.
    """
    scheme = scheme or "AGGREGATE count GROUP BY kernel"
    return channel_config_aggregate(scheme, mode="sample", sampling_period=period)
