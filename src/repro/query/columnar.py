"""Columnar (vectorized) aggregation backend.

The row-at-a-time :class:`~repro.aggregate.db.AggregationDB` is the right
engine where records arrive one by one and must never be stored.  Where a
whole batch is in hand as columns — off-line, the dataset; on the
aggregation server, a decoded wire batch — the classic scientific-Python
optimization applies: aggregate with numpy group-by primitives instead of
a Python-level loop.

This backend covers **every built-in operator** (``count``, ``sum``,
``min``, ``max``, ``avg``, ``variance``, ``stddev``, ``histogram``,
``first``/``any``, ``ratio``, ``scale``, ``percent_total`` — plus their
aliased forms) and evaluates WHERE clauses vectorized, by pushing each
condition down onto the interned code columns: the predicate runs once per
*distinct* value, then broadcasts through the codes.

Equivalence with the streaming engine is by construction, not by parallel
reimplementation: the kernels fold into a
:class:`~repro.aggregate.table.StateTable`, whose columns hold exactly the
per-key operator states an :class:`AggregationDB` holds (``np.add.at`` adds
in input order onto the running value, so float sums are bit-identical, and
a count turns float exactly where the row engine's does), and the final
values are rendered by column with the arithmetic and typing of each
operator's own ``results()`` (pinned against :meth:`AggregationDB.flush`).
``QueryEngine`` auto-dispatches here via :func:`supports_scheme`; a plain
aggregation server's shard workers fold the batches they were sent into the
same table, and so do :meth:`QueryEngine.feed` / :meth:`QueryEngine.feed_file`,
whose partial tables the process pool and the MPI query application merge.
The ``offline_query`` / ``stream_tree`` workloads of ``benchmarks/suite``
quantify the speedup.

Pipeline:

1. read each attribute as a dictionary column of a
   :class:`~repro.io.colfile.ColumnStore` — decoded from ``.rcf`` or the
   wire, or built once per attribute from records (``from_records``,
   cached per :class:`~repro.io.dataset.Dataset`);
2. evaluate WHERE vectorized over the code columns;
3. collapse the key-code matrix into one composite group id per record
   (mixed-radix packing — collision-free by construction);
4. resolve each group to its slot in the table (created where missing);
5. one ``np.add.at`` / ``np.bincount`` / sorted-``reduceat`` pass per
   operator cell, straight into the table's columns;
6. render the slots as columns (:meth:`StateTable.render`), each value
   what the operator's own ``results()`` would give.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from ..aggregate.db import AggregationDB
from ..aggregate.scheme import AggregationScheme
from ..aggregate.table import StateTable, has_kernel
from ..calql.ast import Condition
from ..common.record import Record
from ..io.colfile import ColumnStore

__all__ = [
    "columnar_aggregate",
    "columnar_db",
    "supports_scheme",
    "unsupported_ops",
]

Source = Union[ColumnStore, Iterable[Record]]


def supports_scheme(scheme: AggregationScheme) -> bool:
    """True when every operator has a vectorized implementation.

    Predicates (WHERE) never disqualify a scheme — AST conditions are
    evaluated vectorized, and opaque compiled predicates are applied
    row-wise up front.
    """
    return all(has_kernel(op) for op in scheme.ops)


def unsupported_ops(scheme: AggregationScheme) -> list[str]:
    """Spec strings of the operators that force the row engine (may be [])."""
    return [op.spec_string() for op in scheme.ops if not has_kernel(op)]


def _require_kernels(scheme: AggregationScheme) -> None:
    unsupported = unsupported_ops(scheme)
    if unsupported:
        raise NotImplementedError(
            "columnar backend does not support: " + ", ".join(unsupported)
        )


def columnar_aggregate(
    source: Source,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]] = None,
) -> ColumnStore:
    """Aggregate ``source`` under ``scheme`` with numpy group-by.

    ``source`` is a record iterable or a prebuilt (cached)
    :class:`~repro.io.colfile.ColumnStore`.  Raises
    :class:`NotImplementedError` for schemes :func:`supports_scheme`
    rejects.  One shot: a fresh table, folded once and rendered
    (:meth:`StateTable.render`) — the output rows as a store, which a
    second-stage query reads as it is and whose ``.records`` equal
    :func:`repro.aggregate.aggregate_records` exactly (up to record order).
    """
    _require_kernels(scheme)
    table = StateTable(scheme)
    table.fold(source, where=where)
    return table.render()


def columnar_db(
    source: Source,
    scheme: AggregationScheme,
    where: Optional[Sequence[Condition]] = None,
) -> AggregationDB:
    """A fresh :class:`AggregationDB` holding the vectorized result: a
    table folded once, its states loaded into the DB.

    Interchangeable with a DB the streaming path filled: it can be
    ``combine``-d, flushed, or fed further records.  Only the list-form
    replays of the benchmark suite still ask for one.
    """
    _require_kernels(scheme)
    table = StateTable(scheme)
    table.fold(source, where=where)
    db = AggregationDB(scheme)
    db.load_states(table.export_states(), table.num_offered, table.num_processed)
    return db
