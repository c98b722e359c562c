"""The per-attribute Bernoulli sampling gate.

The gate sits at the head of the channel's snapshot path and answers one
question per event: *keep this snapshot, and at what weight?*  Its decision
path is deliberately tiny — one dict lookup for the gating attribute's
current value, one counter increment, one ``random()`` compare — because it
runs even for dropped events and therefore bounds the achievable sampling
floor.

Probabilities are *per attribute value* (per region, when gating on a
NESTED attribute: the blackboard's live entry for e.g. ``function`` is the
innermost open region).  The controller re-allocates them every control
interval via waterfilling (see :func:`repro.sampling.controller.waterfill_quota`):
values seen rarely keep probability 1, hot values are thinned to meet the
global keep target.  A value never seen before always starts at
probability 1 — a new region's first occurrences are never lost.

Weights are cached ``Variant`` instances (one per key, refreshed only at
control steps), so the per-event keep path allocates nothing.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Optional

from ..common.variant import Variant

__all__ = ["SamplingGate", "DROP"]

#: sentinel returned by :meth:`SamplingGate.decide` for dropped events
DROP = False


class _KeyState:
    """Per-attribute-value gate state (probability + cached weight)."""

    __slots__ = ("p", "weight", "count", "kept")

    def __init__(self, p: float) -> None:
        self.p = p
        self.weight: Optional[Variant] = (
            None if p >= 1.0 else Variant.double(1.0 / p)
        )
        #: events offered this control interval
        self.count = 0
        #: events kept this control interval
        self.kept = 0

    def set_probability(self, p: float) -> None:
        if p >= 1.0:
            self.p = 1.0
            self.weight = None
        else:
            self.p = p
            self.weight = Variant.double(1.0 / p)


class SamplingGate:
    """Per-attribute-value Bernoulli keep/drop decisions.

    ``decide(entries)`` returns:

    * :data:`DROP` (``False``) — the event is sampled out;
    * ``None`` — kept at probability 1 (no weight entry needed);
    * a ``Variant`` — kept with probability ``p < 1``; the value is the
      cached ``sample.weight = 1/p`` to stamp on the snapshot.

    Thread-safety: the per-key counters are plain int increments (atomic
    enough under the GIL for control-loop feedback — an off-by-a-few count
    shifts a probability target marginally, never correctness, because
    weights always match the probability the decision actually used).
    """

    def __init__(
        self,
        attribute: Optional[str] = None,
        initial: float = 1.0,
        min_probability: float = 1.0 / 4096.0,
        seed: Optional[int] = None,
    ) -> None:
        #: blackboard label whose live value keys the probability table
        #: (``None`` = one global probability)
        self.attribute = attribute
        self.min_probability = float(min_probability)
        self.initial = min(1.0, max(self.min_probability, float(initial)))
        self._rand = random.Random(seed).random
        self._table: Dict[Hashable, _KeyState] = {}
        self._global = _KeyState(self.initial)
        if attribute is None:
            self._table[None] = self._global

    # -- hot path -----------------------------------------------------------

    def decide(self, entries: dict):
        """One keep/drop decision against the live blackboard entries."""
        label = self.attribute
        if label is None:
            ks = self._global
        else:
            v = entries.get(label)
            key = None if v is None else v.value
            ks = self._table.get(key)
            if ks is None:
                # First sight of this value: keep everything until the next
                # control step ranks it.  New keys inherit the current
                # *global* probability only once they prove hot.
                ks = _KeyState(1.0)
                self._table[key] = ks
        ks.count += 1
        p = ks.p
        if p >= 1.0:
            ks.kept += 1
            return None
        if self._rand() < p:
            ks.kept += 1
            return ks.weight
        return DROP

    # -- control-step API ----------------------------------------------------

    def apply_global(self, p: float) -> None:
        """Set one probability for every key (the no-attribute mode)."""
        p = min(1.0, max(self.min_probability, p))
        for ks in self._table.values():
            ks.set_probability(p)
        self._global.set_probability(p)

    def apply_quota(self, quota: float, p_floor: float) -> None:
        """Waterfill: cap each key at ``quota`` expected kept events.

        ``p_key = min(1, quota / count)``, clamped below by the larger of
        ``min_probability`` and ``p_floor`` (pass 0 to use only the gate's
        own floor).  Interval counters reset.
        """
        floor = max(self.min_probability, p_floor)
        for ks in self._table.values():
            if ks.count <= 0:
                # Unseen this interval: decay toward keep-everything so an
                # attribute value going cold is re-observed cheaply.
                ks.set_probability(1.0)
            else:
                p = quota / ks.count
                if p > 1.0:
                    p = 1.0
                elif p < floor:
                    p = floor
                ks.set_probability(p)
            ks.count = 0
            ks.kept = 0

    def interval_counts(self) -> list[int]:
        """Per-key offered counts for the current interval."""
        return [ks.count for ks in self._table.values()]

    def interval_totals(self) -> tuple[int, int]:
        """``(offered, kept)`` summed over keys for the current interval."""
        offered = kept = 0
        for ks in self._table.values():
            offered += ks.count
            kept += ks.kept
        return offered, kept

    def reset_interval(self) -> None:
        for ks in self._table.values():
            ks.count = 0
            ks.kept = 0

    # -- introspection -------------------------------------------------------

    @property
    def probability(self) -> float:
        """The global (or minimum per-key) keep probability."""
        if self.attribute is None:
            return self._global.p
        if not self._table:
            return 1.0
        return min(ks.p for ks in self._table.values())

    def probabilities(self) -> Dict[Hashable, float]:
        """Current per-key probabilities (for stats and tests)."""
        return {key: ks.p for key, ks in self._table.items()}

    def __len__(self) -> int:
        return len(self._table)
