"""Offline sampled queries with confidence intervals.

:func:`sampled_query` runs a CalQL aggregation over a Bernoulli sample of a
record stream instead of the full input, and reports *both* sides of the
trade: the count-scaled (Horvitz–Thompson) point aggregates, and the
``est#`` / ``est.lo#`` / ``est.hi#`` confidence columns of
:class:`repro.window.estimate.WindowEstimator` so sampling error is visible
in the result, never silent.

The estimator reuse is exact, not analogical: a Bernoulli sample at
probability ``p`` has the same first- and second-moment algebra as a
partial window observed for a time fraction ``f = p`` under the PF-OLA
arrival model — de-weight the linear state cells back to raw sample scale
(multiply by ``p``; uniform weights make this exact) and the window
estimator's ``n/f`` extrapolation *is* the Horvitz–Thompson estimate, with
matching variance.

The sample folds into a :class:`~repro.aggregate.table.StateTable`: the
point aggregates are its render (what a flush of the same weighted stream
gives), with each slot's estimate columns appended.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional

from ..aggregate.ops import (
    AvgOp,
    CountOp,
    MomentsOp,
    PercentTotalOp,
    RatioOp,
    ScaleOp,
    StddevOp,
    SumOp,
    VarianceOp,
    WEIGHT_LABEL,
)
from ..aggregate.table import StateTable
from ..common.errors import QueryError
from ..common.record import Record
from ..common.variant import Variant
from ..window.estimate import WindowEstimator, scheme_with_moments, with_entries

__all__ = ["sample_records", "sampled_query", "scheme_with_moments"]


def _unwrap(op):
    return getattr(op, "inner", op)


#: operator types whose state cells are linear in the record weight —
#: de-weighting multiplies every cell by ``p`` to recover raw sample scale
_LINEAR_STATE = (
    CountOp,
    SumOp,
    AvgOp,
    ScaleOp,
    PercentTotalOp,
    VarianceOp,
    StddevOp,
    MomentsOp,
    RatioOp,
)


def sample_records(
    records: Iterable[Record],
    probability: float,
    seed: Optional[int] = None,
) -> Iterator[Record]:
    """Bernoulli-sample a record stream, stamping ``sample.weight``.

    Each record is kept independently with ``probability``; kept records
    carry ``sample.weight = 1/probability`` so any weighted fold downstream
    reproduces the full-input aggregates in expectation.  ``probability``
    1 passes the stream through untouched (weight 1 is implicit).
    """
    p = float(probability)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability must be in (0, 1], got {probability!r}")
    if p >= 1.0:
        yield from records
        return
    rnd = random.Random(seed).random
    weight = Variant.double(1.0 / p)
    for record in records:
        if rnd() < p:
            data = dict(record._entries)
            data[WEIGHT_LABEL] = weight
            yield Record.from_variants(data)


def _deweight(ops, states, p: float) -> list[list]:
    """Scale weighted states back to raw-sample scale (cells × ``p``).

    Uniform weights ``1/p`` make this exact: the result equals the states
    an unweighted fold of the kept records would have produced.  States of
    non-linear operators (min/max/histogram/...) pass through unchanged.
    """
    out = []
    for op, state in zip(ops, states):
        if type(_unwrap(op)) in _LINEAR_STATE:
            out.append([cell * p for cell in state])
        else:
            out.append(state)
    return out


def sampled_query(
    query,
    records: Iterable[Record],
    probability: float,
    seed: Optional[int] = None,
    confidence: float = 0.90,
):
    """Run a CalQL aggregation over a Bernoulli sample of ``records``.

    Returns a :class:`~repro.query.engine.QueryResult` whose rows hold the
    count-scaled point aggregates (``count``, ``sum#x``, ...) plus the
    estimate columns ``est#<label>`` / ``est.lo#<label>`` / ``est.hi#<label>``
    for the count/sum/avg family, ``est.fraction`` (the sampling
    probability) and ``est.samples`` (records actually folded per group).

    ``seed`` fixes the sampling decisions for reproducible runs.
    """
    from ..query.engine import QueryEngine, QueryResult

    engine = query if isinstance(query, QueryEngine) else QueryEngine(query)
    if engine.scheme is None:
        raise QueryError("sampled_query needs an aggregation (AGGREGATE ...)")
    p = float(probability)
    if not 0.0 < p <= 1.0:
        raise QueryError(
            f"sampling probability must be in (0, 1], got {probability!r}"
        )

    scheme = scheme_with_moments(engine.scheme)
    table = StateTable(scheme)
    table.fold(sample_records(engine._preprocess(records), p, seed), where=engine.query.where)

    estimator = WindowEstimator(scheme, confidence)
    out = with_entries(table, [
        estimator.estimate_entries(_deweight(scheme.ops, states, p), p)
        for _key, states in table.items()
    ])
    out = engine._order_and_limit(out)
    return QueryResult(out, engine._preferred_columns(), engine.query.format)
