"""Adaptive overhead-budget sampling.

The instrumented hot path costs microseconds per event while the disabled
floor is tens of nanoseconds — a gap that forces all-or-nothing profiling.
This package closes it with *feedback-controlled Bernoulli sampling*: a
cheap per-attribute gate at the head of the channel's snapshot path drops
a fraction of snapshots, a controller measures the real per-event snapshot cost with
``time.perf_counter`` probes (published through :mod:`repro.observe`) and
adjusts sampling probabilities every control interval until the expected
snapshot cost per event converges on a user budget
(``sampling.budget = "200ns"`` or ``sampling.budget_ratio = 0.05``).

Aggregates stay *unbiased*: every record kept with probability ``p < 1``
carries ``sample.weight = 1/p``, which the fold plans (compiled and
generic), the columnar backend, and the net service's shard folds apply to
the count/sum/avg/variance operator family (Horvitz–Thompson count-scaling,
the same statistical honesty PF-OLA brings to partial aggregates).
Per-attribute probabilities are allocated by waterfilling: rare attribute
values keep probability 1 (a region seen once is never lost), hot values
absorb the thinning.

Offline, :func:`sampled_query` runs a CalQL aggregation over a Bernoulli
sample of a dataset's columns and surfaces the estimate columns of
:mod:`repro.window.estimate` (``est#``, ``est.lo#``, ``est.hi#``) so users
see confidence intervals, not silent error; ``repro.api.query(...,
options=QueryOptions(sampling=0.1))`` and ``repro-query --sample 0.1`` are
the public spellings.

See ``docs/sampling.md`` for budget semantics and bias guarantees.
"""

from ..aggregate.ops import WEIGHT_LABEL
from .budget import format_ns, parse_budget
from .controller import OverheadController, waterfill_quota
from .gate import SamplingGate
from .query import sampled_query, scheme_with_moments
from .sampler import ChannelSampler

__all__ = [
    "WEIGHT_LABEL",
    "ChannelSampler",
    "OverheadController",
    "SamplingGate",
    "format_ns",
    "parse_budget",
    "sampled_query",
    "scheme_with_moments",
    "waterfill_quota",
]
