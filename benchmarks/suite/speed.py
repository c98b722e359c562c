"""Machine-speed calibration: what makes timings comparable between runs.

The sandbox this benchmark runs on changes speed by up to 2x for minutes at
a time (measured: a fixed pure-Python loop takes 10 ms in one phase and 17-20
ms in the next, and an ``online_regions`` repetition slows by the same
factor: the ratio of the two stays within a few percent).  A regression bound
of 10-25% means nothing against that, so every *time* the benchmark reports
is scaled to a reference machine speed:

* :meth:`MachineSpeed.sample` times a fixed interpreter-bound loop (fastest of
  nine rounds, ~40 ms: the machine's speed between the sub-second bursts
  that the medians over repetitions absorb) and returns
  ``REFERENCE_S / measured``: 1.0 on the reference machine state, 0.5 when
  the machine currently runs at half speed;
* a workload samples right before and right after each timed section and
  multiplies the section's duration by the mean of the two factors (rates are
  divided by it).

A reported time therefore reads "what this section would have taken with the
machine at reference speed".  The raw, unscaled medians and the calibration
samples are kept in every result file, so the scaling can be undone.
``REFERENCE_S`` is this box's fast state; on another machine it only shifts
every time by one constant factor, which no comparison between two commits on
that machine sees.  Counts, ratios, bytes and memory are never scaled.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["MachineSpeed", "REFERENCE_S"]

#: the calibration loop's duration on the reference machine state (this
#: sandbox, 2 vCPUs, in its fast phase), in seconds
REFERENCE_S = 0.0040

_ROUNDS = 9


def _unit(n: int = 40_000) -> int:
    """Interpreter-bound work with the workloads' mix: dict probes, integer
    arithmetic, tuple and list allocation."""
    table: dict[int, int] = {}
    kept = []
    acc = 0
    for i in range(n):
        key = i & 511
        table[key] = table.get(key, 0) + i
        if not i & 7:
            kept.append((key, acc))
        acc += key
    return acc + len(kept)


class MachineSpeed:
    """Calibration samples of one benchmark process."""

    def __init__(self) -> None:
        #: every calibration measurement taken, seconds
        self.samples: list[float] = []

    def sample(self) -> float:
        """Calibrate now; returns the factor that scales a duration measured
        now to the reference machine speed."""
        rounds = []
        for _ in range(_ROUNDS):
            t0 = time.perf_counter()
            _unit()
            rounds.append(time.perf_counter() - t0)
        seconds = min(rounds)
        self.samples.append(seconds)
        return REFERENCE_S / seconds

    def summary(self) -> dict:
        if not self.samples:
            return {"reference_ms": REFERENCE_S * 1e3, "samples": 0}
        return {
            "reference_ms": REFERENCE_S * 1e3,
            "median_ms": statistics.median(self.samples) * 1e3,
            "min_ms": min(self.samples) * 1e3,
            "max_ms": max(self.samples) * 1e3,
            "samples": len(self.samples),
        }
