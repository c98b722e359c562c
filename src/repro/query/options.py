"""One option object for every query entry point.

The repo grew several ways to run a query — :func:`repro.query.engine.run_query`,
:meth:`QueryEngine.run`, :func:`~repro.query.parallel.parallel_query_files`,
the ``repro-query`` CLI, and the :func:`repro.api.query` facade.
:class:`QueryOptions` is the single shared spelling of how to execute one:
every entry point accepts one, and the CLI builds one from its parsed
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["QueryOptions", "BACKENDS"]

BACKENDS = ("auto", "rows")


@dataclass(frozen=True)
class QueryOptions:
    """How to execute a query — shared by every entry point.

    ``backend``
        ``auto`` folds every aggregation into a state table; ``rows`` runs
        the reference row engine (:class:`~repro.aggregate.db.AggregationDB`)
        that the table fold is checked against.
    ``jobs``
        Worker processes for multi-file inputs: ``None`` lets the entry
        point choose its own default, ``True`` sizes the pool to the CPUs,
        an integer pins it, ``1``/``False`` forces serial.
    ``stats``
        Collect ``repro.observe`` telemetry while the query runs (the CLI
        prints the metrics table; embedders read the registry themselves).
    ``sampling``
        Run the aggregation over a Bernoulli sample of the input at this
        keep probability (in ``(0, 1]``): results carry count-scaled point
        aggregates plus ``est#``/``est.lo#``/``est.hi#`` confidence columns
        (see :func:`repro.sampling.sampled_query`).  ``None``/``1`` reads
        everything.
    ``sampling_seed``
        RNG seed fixing the sampling decisions for reproducible runs.
    """

    backend: str = "auto"
    jobs: Union[bool, int, None] = None
    stats: bool = False
    sampling: Optional[float] = None
    sampling_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {'/'.join(BACKENDS)}, got {self.backend!r}"
            )
        if self.jobs is not None and not isinstance(self.jobs, (bool, int)):
            raise ValueError(f"jobs must be None, bool, or int, got {self.jobs!r}")
        if self.sampling is not None and not 0.0 < float(self.sampling) <= 1.0:
            raise ValueError(
                f"sampling must be in (0, 1] or None, got {self.sampling!r}"
            )

    @classmethod
    def coerce(cls, value: Union["QueryOptions", dict, None]) -> "QueryOptions":
        """Accept ``QueryOptions``, a plain dict, or None (defaults)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"options must be QueryOptions, dict, or None, got {type(value).__name__}"
        )

    @classmethod
    def from_args(cls, args) -> "QueryOptions":
        """Build from ``repro-query``'s parsed argparse namespace."""
        return cls(
            jobs=getattr(args, "jobs", None),
            stats=bool(getattr(args, "stats", False)),
            sampling=getattr(args, "sample", None),
            sampling_seed=getattr(args, "sample_seed", None),
        )
