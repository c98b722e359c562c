"""The overhead-budget feedback controller.

Every control interval the channel sampler hands the controller what it
measured: the median cost of a *kept* event's snapshot processing, the median
cost of a *dropped* event (the gate floor), and the wall time per event of
the interval.  The controller solves for the keep probability whose
expected *elidable* cost meets the budget::

    elidable = kept - drop                  # snapshot work a drop avoids
    cost(p)  = p * elidable                 # expected controlled ns/event
    p*       = budget / elidable

clamped to ``[min_probability, 1]`` and rate-limited to a factor of
``max_step`` per interval so one noisy probe cannot slam the probability
across its range.  ``budget_ratio`` budgets relative to the application
instead: the allowed cost is ``ratio × wall-time-per-event`` of the
interval just observed.

The *budget* covers exactly what sampling can elide — the snapshot
assembly and fold behind the gate.  The two fixed floors sampling cannot
remove — the instrumentation path (attribute resolution, blackboard
updates, event dispatch) and the gate's own decision cost — are unaffected
by any probability choice and are reported separately in channel stats
(``observe.sampling.gate.ns``), never silently folded into the controlled
quantity: a budget below the gate floor would otherwise be unsatisfiable
by construction.

:func:`waterfill_quota` turns the global keep target into per-key quotas:
given interval counts ``c_k`` and a keep budget ``K``, it finds ``q`` with
``Σ min(c_k, q) = K`` so rare keys keep everything and hot keys split the
remainder evenly — the dynamic-sampling idea of Perun's trace optimizer,
expressed as an exact waterfill.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["OverheadController", "waterfill_quota"]


def waterfill_quota(counts: Sequence[int], target: float) -> float:
    """The per-key quota ``q`` with ``Σ min(c_k, q) = target``.

    ``target`` is the total number of events to keep across all keys.  If
    every count fits (``Σ c_k <= target``) the quota is unbounded
    (``inf``): every key keeps everything.
    """
    active = sorted(c for c in counts if c > 0)
    if not active:
        return float("inf")
    total = sum(active)
    if target >= total:
        return float("inf")
    if target <= 0.0:
        return 0.0
    # Walk the sorted counts: keys with c_k <= q are fully kept; the rest
    # split the remaining budget evenly.
    remaining = float(target)
    for i, c in enumerate(active):
        level = remaining / (len(active) - i)
        if c >= level:
            return level
        remaining -= c
    return float(active[-1])


class OverheadController:
    """Feedback loop from measured snapshot cost to keep probability."""

    def __init__(
        self,
        budget_ns: Optional[float] = None,
        budget_ratio: Optional[float] = None,
        min_probability: float = 1.0 / 4096.0,
        max_step: float = 4.0,
        smoothing: float = 0.5,
    ) -> None:
        if budget_ratio is not None and not 0.0 < budget_ratio < 1.0:
            from ..common.errors import ConfigError

            raise ConfigError(
                f"sampling.budget_ratio must be in (0, 1), got {budget_ratio!r}"
            )
        self.budget_ns = budget_ns
        self.budget_ratio = budget_ratio
        self.min_probability = float(min_probability)
        self.max_step = float(max_step)
        #: EWMA factor applied to incoming cost estimates (1.0 = no memory)
        self.smoothing = float(smoothing)
        self._kept_cost_ns: Optional[float] = None
        self._drop_cost_ns: Optional[float] = None

    @property
    def active(self) -> bool:
        """True when a budget is set (otherwise probabilities are static)."""
        return self.budget_ns is not None or self.budget_ratio is not None

    def observe_costs(
        self, kept_ns: Optional[float], drop_ns: Optional[float]
    ) -> None:
        """Fold this interval's probe measurements into the EWMA estimates."""
        a = self.smoothing
        if kept_ns is not None:
            prev = self._kept_cost_ns
            self._kept_cost_ns = kept_ns if prev is None else prev + a * (kept_ns - prev)
        if drop_ns is not None:
            prev = self._drop_cost_ns
            self._drop_cost_ns = drop_ns if prev is None else prev + a * (drop_ns - prev)

    @property
    def kept_cost_ns(self) -> Optional[float]:
        return self._kept_cost_ns

    @property
    def drop_cost_ns(self) -> Optional[float]:
        return self._drop_cost_ns

    def effective_budget_ns(self, wall_ns_per_event: Optional[float]) -> Optional[float]:
        """The ns-per-event target for this interval (ratio mode resolves
        against the interval's observed wall time per event)."""
        if self.budget_ns is not None:
            return self.budget_ns
        if self.budget_ratio is not None and wall_ns_per_event:
            return self.budget_ratio * wall_ns_per_event
        return None

    def target_probability(
        self, current_p: float, wall_ns_per_event: Optional[float] = None
    ) -> float:
        """The next global keep probability.

        Without cost estimates yet (first interval) or without a budget the
        current probability stands.
        """
        budget = self.effective_budget_ns(wall_ns_per_event)
        kept = self._kept_cost_ns
        if budget is None or kept is None or kept <= 0.0:
            return current_p
        drop = self._drop_cost_ns or 0.0
        elidable = kept - drop
        if elidable <= 0.0:
            return 1.0
        p = budget / elidable
        # Rate-limit the step so a single outlier probe (GC pause, context
        # switch) cannot collapse the probability to the floor at once.
        lo = current_p / self.max_step
        hi = current_p * self.max_step
        if p < lo:
            p = lo
        elif p > hi:
            p = hi
        return min(1.0, max(self.min_probability, p))

    def expected_cost_ns(self, p: float) -> Optional[float]:
        """Model-predicted controlled (elidable) cost per event at ``p``."""
        kept = self._kept_cost_ns
        if kept is None:
            return None
        drop = self._drop_cost_ns or 0.0
        return p * max(0.0, kept - drop)
