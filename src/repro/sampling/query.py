"""Offline sampled queries with confidence intervals.

:func:`sampled_query` runs a CalQL aggregation over a Bernoulli sample of a
record stream or a column store instead of the full input, and reports
*both* sides of the trade: the count-scaled (Horvitz–Thompson) point
aggregates, and the ``est#`` / ``est.lo#`` / ``est.hi#`` confidence columns
of :class:`repro.window.estimate.WindowEstimator` so sampling error is
visible in the result, never silent.

The estimator reuse is exact, not analogical: a Bernoulli sample at
probability ``p`` has the same first- and second-moment algebra as a
partial window observed for a time fraction ``f = p`` under the PF-OLA
arrival model — de-weight the linear state cells back to raw sample scale
(multiply by ``p``; uniform weights make this exact) and the window
estimator's ``n/f`` extrapolation *is* the Horvitz–Thompson estimate, with
matching variance.

The sample folds into a :class:`~repro.aggregate.table.StateTable`; the
answer is :meth:`WindowEstimator.estimate` of it at probability ``p``: the
table's render (what a flush of the same weighted stream gives) with the
estimate columns, computed from the cells scaled by ``p``, appended.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Union

import numpy as np

from ..aggregate.ops import WEIGHT_LABEL
from ..aggregate.table import StateTable
from ..common.errors import QueryError
from ..common.record import Record
from ..io.colfile import ColumnStore
from ..window.estimate import WindowEstimator, scheme_with_moments

__all__ = ["sampled_query", "scheme_with_moments"]


def sampled_query(
    query,
    source: Union[Iterable[Record], ColumnStore],
    probability: float,
    seed: Optional[int] = None,
    confidence: float = 0.90,
):
    """Run a CalQL aggregation over a Bernoulli sample of ``source``, a
    record iterable or a :class:`~repro.io.colfile.ColumnStore` (read as
    columns: no ``Record`` built).

    Each derived row (after LET and WINDOW: a row in several windows once
    per window, in start order) takes one ``random.Random(seed).random()``
    draw, in row order; kept rows carry ``sample.weight = 1/probability``
    (replacing their own), so the weighted fold reproduces the full-input
    aggregates in expectation.  Probability 1 folds every row, unweighted.

    Returns a :class:`~repro.query.engine.QueryResult` whose rows hold the
    count-scaled point aggregates (``count``, ``sum#x``, ...) plus the
    estimate columns ``est#<label>`` / ``est.lo#<label>`` / ``est.hi#<label>``
    for the count/sum/avg family, ``est.fraction`` (the sampling
    probability) and ``est.samples`` (records actually folded per group).

    ``seed`` fixes the sampling decisions for reproducible runs.
    """
    from ..query.engine import QueryEngine

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
    store, rows = engine._derive(source)
    if p < 1.0:
        n = len(store) if rows is None else len(rows)
        kept = np.flatnonzero(_random_draws(seed, n) < p)
        rows = kept if rows is None else rows[kept]
        store = store.with_doubles({WEIGHT_LABEL: np.full(len(store), 1.0 / p)})
    if rows is not None:  # the sample alone, its groups in first-use order
        store = store.take(rows).renumbered()
    table.fold(store, where=engine.query.where)
    return engine.answer(WindowEstimator(scheme, confidence).estimate(table, None, p))


def _random_draws(seed: Optional[int], n: int) -> np.ndarray:
    """The first ``n`` ``random.Random(seed).random()`` draws, bit for bit,
    from numpy: both are MT19937 with 53-bit doubles from two 32-bit outputs,
    so numpy takes over the generator's state and draws them in one call."""
    _version, state, _gauss = random.Random(seed).getstate()
    generator = np.random.RandomState()
    generator.set_state(("MT19937", np.array(state[:624], dtype=np.uint32), state[624]))
    return generator.random_sample(n)
