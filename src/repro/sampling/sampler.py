"""The per-channel sampling service: gate + controller + cost probes.

:class:`ChannelSampler` is what the channel's snapshot path actually talks
to.  Per event it answers two questions — *probe this one?* (:meth:`tick`)
and *keep this one?* (:meth:`decide`, bound straight from the gate) — and
per control interval it closes the feedback loop: the interval's median
kept and dropped probe costs feed the
:class:`~repro.sampling.controller.OverheadController`, the resulting
global probability is waterfilled across the gate's per-key table, and the
interval's numbers are published as ``sampling.*`` observe gauges.

Probing is strided (every ``probe_every``-th event) so ``perf_counter``
calls stay off most events.  A probe times the *entire* gated stage —
decision plus, when kept, snapshot assembly and fold — and both kept and
dropped probes carry the same two-``perf_counter``-call measurement
overhead, which cancels in the controller's ``kept - drop`` elidable-cost
term.  Medians, not means: one probe that caught a garbage-collection
pause or a context switch would otherwise move an interval's estimate by
its whole length over the probe count, and where a kept event costs little
more than a drop that is enough to read ``kept - drop <= 0``.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Optional

from .. import observe
from .budget import format_ns
from .controller import OverheadController, waterfill_quota
from .gate import SamplingGate

__all__ = ["ChannelSampler"]


class ChannelSampler:
    """Drives one channel's sampling gate from measured snapshot cost."""

    def __init__(
        self,
        gate: Optional[SamplingGate] = None,
        controller: Optional[OverheadController] = None,
        probe_every: int = 64,
        control_interval: int = 1024,
        auto_budget: bool = False,
    ) -> None:
        self.gate = gate if gate is not None else SamplingGate()
        self.controller = (
            controller if controller is not None else OverheadController()
        )
        self.probe_every = max(1, int(probe_every))
        self.control_interval = max(2, int(control_interval))
        #: adopt a server-advertised budget when none is configured locally
        self.auto_budget = auto_budget
        #: bound once: the hot-path keep/drop decision
        self.decide = self.gate.decide
        self.events = 0
        self.kept_total = 0
        self.dropped_total = 0
        self.control_steps = 0
        self._p = self.gate.initial
        self._next_probe = self.probe_every
        self._next_control = self.control_interval
        self._interval_started = time.perf_counter()
        self._interval_base = 0
        self._kept_ns: list[float] = []
        self._drop_ns: list[float] = []

    # -- hot path -------------------------------------------------------------

    def tick(self) -> bool:
        """Count one event; True when this event's cost should be probed."""
        n = self.events + 1
        self.events = n
        if n >= self._next_control:
            self._control_step(n)
        if n >= self._next_probe:
            self._next_probe = n + self.probe_every
            return True
        return False

    def record_kept_probe(self, seconds: float) -> None:
        self._kept_ns.append(seconds * 1e9)

    def record_drop_probe(self, seconds: float) -> None:
        self._drop_ns.append(seconds * 1e9)

    # -- control loop ---------------------------------------------------------

    def _control_step(self, n: int) -> None:
        now = time.perf_counter()
        events = n - self._interval_base
        wall_ns = (now - self._interval_started) * 1e9
        wall_per_event = wall_ns / events if events > 0 else None
        kept_ns = median(self._kept_ns) if self._kept_ns else None
        drop_ns = median(self._drop_ns) if self._drop_ns else None

        gate = self.gate
        offered, kept = gate.interval_totals()
        self.kept_total += kept
        self.dropped_total += offered - kept

        ctl = self.controller
        ctl.observe_costs(kept_ns, drop_ns)
        if ctl.active:
            p = ctl.target_probability(self._p, wall_per_event)
            self._p = p
            counts = gate.interval_counts()
            total = sum(counts)
            if gate.attribute is None or total <= 0:
                gate.apply_global(p)
                gate.reset_interval()
            else:
                gate.apply_quota(waterfill_quota(counts, p * total), 0.0)
        else:
            gate.reset_interval()

        self.control_steps += 1
        self._interval_base = n
        self._interval_started = time.perf_counter()
        self._kept_ns.clear()
        self._drop_ns.clear()
        self._next_control = n + self.control_interval

        if observe.enabled():
            observe.gauge("sampling.probability", self._p)
            if kept_ns is not None:
                observe.gauge("sampling.kept_cost_ns", kept_ns)
            if drop_ns is not None:
                observe.gauge("sampling.gate_cost_ns", drop_ns)
            expected = ctl.expected_cost_ns(self._p)
            if expected is not None:
                observe.gauge("sampling.cost_ns", expected)
            observe.count("sampling.control_steps")

    # -- external budget ------------------------------------------------------

    def adopt_budget_ns(self, budget_ns: float) -> bool:
        """Adopt a server-advertised budget in ``auto`` mode.

        Returns True when the budget was taken; a locally configured budget
        always wins over the server's suggestion.
        """
        if not self.auto_budget or self.controller.budget_ns is not None:
            return False
        self.controller.budget_ns = float(budget_ns)
        return True

    # -- introspection --------------------------------------------------------

    @property
    def probability(self) -> float:
        """The controller's current global keep-probability target."""
        return self._p

    def stats(self) -> dict:
        """Flat numbers for channel ``stats_record`` and ``--stats``."""
        ctl = self.controller
        offered, kept = self.gate.interval_totals()  # in-flight interval
        out = {
            "probability": self._p,
            "keys": len(self.gate),
            "events": self.events,
            "kept": self.kept_total + kept,
            "dropped": self.dropped_total + (offered - kept),
            "control_steps": self.control_steps,
        }
        if ctl.budget_ns is not None:
            out["budget_ns"] = ctl.budget_ns
            out["budget"] = format_ns(ctl.budget_ns)
        if ctl.budget_ratio is not None:
            out["budget_ratio"] = ctl.budget_ratio
        if ctl.kept_cost_ns is not None:
            out["kept_cost_ns"] = ctl.kept_cost_ns
        if ctl.drop_cost_ns is not None:
            out["gate_cost_ns"] = ctl.drop_cost_ns
        expected = ctl.expected_cost_ns(self._p)
        if expected is not None:
            out["cost_ns"] = expected
        return out
