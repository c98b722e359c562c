"""Semantic analysis and compilation of CalQL queries.

This module turns a validated :class:`~repro.calql.ast.Query` into the
executable pieces the engines consume:

* :func:`build_scheme` — an :class:`~repro.aggregate.scheme.AggregationScheme`
  (operator kernels + key + predicate) for queries with aggregations,
* :func:`compile_conditions` — a fast record predicate for WHERE clauses,
* :func:`compile_let` — a column store transform adding derived attributes,
* :func:`validate` — whole-query checks with helpful error messages.

Both the on-line aggregation service and the off-line query engine call
into here, which is what makes the description language "the same" across
all aggregation applications.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..aggregate.ops import AggregateOp, OperatorRegistry, default_registry
from ..aggregate.scheme import AggregationScheme
from ..common.errors import CalQLSemanticError
from ..common.record import Record
from ..common.variant import ValueType, Variant
from ..io.colfile import ColumnStore
from .ast import (
    BinExpr,
    Compare,
    Condition,
    Exists,
    Expr,
    LetBinding,
    NotCond,
    Num,
    Query,
    Ref,
)

__all__ = [
    "validate",
    "instantiate_ops",
    "compare_variants",
    "compile_conditions",
    "compile_let",
    "build_scheme",
]

_KNOWN_FORMATS = frozenset({"table", "csv", "json", "tree", "records", "expand"})


def validate(query: Query, registry: Optional[OperatorRegistry] = None) -> None:
    """Raise :class:`CalQLSemanticError` for meaningless queries."""
    registry = registry or default_registry()
    if not (query.ops or query.select or query.where or query.let or query.group_by):
        raise CalQLSemanticError("query is empty: nothing to select, aggregate, or filter")
    if query.group_by and not query.ops:
        raise CalQLSemanticError(
            "GROUP BY without any aggregation operator; add an AGGREGATE clause"
        )
    for op in query.ops:
        if op.name not in registry and op.args:
            raise CalQLSemanticError(
                f"unknown aggregation operator {op.name!r}; known: "
                + ", ".join(registry.known())
            )
    if query.format is not None and query.format.lower() not in _KNOWN_FORMATS:
        raise CalQLSemanticError(
            f"unknown FORMAT {query.format!r}; known: " + ", ".join(sorted(_KNOWN_FORMATS))
        )
    let_names = [b.name for b in query.let]
    if len(set(let_names)) != len(let_names):
        dupes = sorted({n for n in let_names if let_names.count(n) > 1})
        raise CalQLSemanticError(f"duplicate LET binding(s): {', '.join(dupes)}")
    if query.window is not None:
        if not query.ops:
            raise CalQLSemanticError(
                "WINDOW without aggregation operators; add an AGGREGATE clause"
            )
        for label in ("window.start", "window.end"):
            if label in query.effective_key():
                raise CalQLSemanticError(
                    f"WINDOW adds the {label!r} key attribute; "
                    "remove it from GROUP BY"
                )
    # Instantiating catches arity and parameter errors early.
    instantiate_ops(query, registry)


def instantiate_ops(
    query: Query, registry: Optional[OperatorRegistry] = None
) -> list[AggregateOp]:
    """Create operator kernels for every op call in the query.

    A bare name that is not a registered operator is an *aggregation
    attribute* reduced with the default operator (``sum``) — the paper's
    Fig. 6 writes ``AGGREGATE count, time.duration`` in exactly this style.
    """
    registry = registry or default_registry()
    ops: list[AggregateOp] = []
    try:
        for op in query.ops:
            if op.name not in registry and not op.args:
                kernel = registry.create("sum", [op.name])
            else:
                kernel = registry.create(op.name, list(op.args))
            if op.alias:
                from ..aggregate.ops import AliasedOp

                kernel = AliasedOp(kernel, op.alias)
            ops.append(kernel)
    except Exception as exc:
        raise CalQLSemanticError(str(exc)) from exc
    return ops


# -- WHERE compilation -----------------------------------------------------------


def _compile_one(cond: Condition) -> Callable[[Record], bool]:
    if isinstance(cond, Exists):
        label = cond.label

        def exists(record: Record, _label: str = label) -> bool:
            return not record.get(_label).is_empty

        return exists
    if isinstance(cond, NotCond):
        inner = _compile_one(cond.inner)

        def negate(record: Record, _inner=inner) -> bool:
            return not _inner(record)

        return negate
    if isinstance(cond, Compare):
        label, op, target = cond.label, cond.op, cond.value

        def compare(record: Record, _label=label, _op=op, _target=target) -> bool:
            v = record.get(_label)
            if v.is_empty:
                return False
            return compare_variants(v, _op, _target)

        return compare
    raise CalQLSemanticError(f"unknown condition type {type(cond).__name__}")


def compare_variants(value: Variant, op: str, target: Variant) -> bool:
    """CalQL comparison semantics for one non-empty value against a literal.

    Shared by the compiled row predicate and the columnar backend's
    vectorized WHERE (which evaluates it once per *distinct* value).
    Cross-type compares: a numeric target against a string value (or vice
    versa) compares the string renderings, for equality only.
    """
    if op == "=":
        return _loose_eq(value, target)
    if op == "!=":
        return not _loose_eq(value, target)
    try:
        if op == "<":
            return value < target
        if op == "<=":
            return value <= target
        if op == ">":
            return value > target
        if op == ">=":
            return value >= target
    except TypeError:  # pragma: no cover - Variant orders totally
        return False
    raise CalQLSemanticError(f"unknown comparison operator {op!r}")


def _loose_eq(v: Variant, target: Variant) -> bool:
    if v == target:
        return True
    # Allow "mpi.rank=3" to match whether the stored value is int or string.
    if (v.type is ValueType.STRING) != (target.type is ValueType.STRING):
        return v.to_string() == target.to_string()
    return False


def compile_conditions(conds: Sequence[Condition]) -> Optional[Callable[[Record], bool]]:
    """Compile a WHERE list into one predicate (comma means AND).

    Returns ``None`` for an empty list so callers can skip the call entirely.
    The predicate keeps what it was compiled from as ``predicate.conditions``
    (a tuple), so a holder of the scheme alone — a shard worker folding a
    column batch — can evaluate the same filter as column masks; a
    hand-written predicate callable has no such attribute.
    """
    if not conds:
        return None
    compiled = tuple(_compile_one(c) for c in conds)

    def conjunction(record: Record) -> bool:
        for check in compiled:
            if not check(record):
                return False
        return True

    predicate = compiled[0] if len(compiled) == 1 else conjunction
    predicate.conditions = tuple(conds)  # type: ignore[attr-defined]
    return predicate


# -- LET compilation --------------------------------------------------------------


def _eval_expr(expr: Expr, store: ColumnStore) -> tuple:
    """``expr`` over the rows of ``store``: ``(values, ok)``, arrays or (a
    literal) scalars, ``ok`` where every operand is numeric (``numeric()``
    without bools) and no divisor is 0."""
    if isinstance(expr, Num):
        return expr.value, True
    if isinstance(expr, Ref):
        return store.numeric(expr.label, include_bool=False)
    if isinstance(expr, BinExpr) and expr.op in _ARITHMETIC:
        left, left_ok = _eval_expr(expr.left, store)
        right, right_ok = _eval_expr(expr.right, store)
        ok = left_ok & right_ok & ((right != 0.0) if expr.op == "/" else True)
        with np.errstate(all="ignore"):  # rows outside ``ok`` are dropped
            return _ARITHMETIC[expr.op](left, right), ok
    raise CalQLSemanticError(f"unknown LET expression {expr!r}")


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def compile_let(bindings: Sequence[LetBinding]) -> Optional[Callable[[ColumnStore], ColumnStore]]:
    """Compile LET bindings into a column store transform.

    Each binding adds a ``DOUBLE`` column on the rows where its expression
    holds: a row with a missing or non-numeric operand, or a zero divisor,
    simply lacks the derived attribute (the flexible data model tolerates
    sparse attributes).  A binding that shadows an input attribute keeps
    the input value on those rows, as ``Record.with_entries`` does; one that
    holds on no row adds nothing.  Bindings see earlier bindings' results,
    so ``LET a = x*2, b = a+1`` works.
    """
    if not bindings:
        return None
    bindings = tuple(bindings)

    def transform(store: ColumnStore) -> ColumnStore:
        for binding in bindings:
            values, ok = _eval_expr(binding.expr, store)
            ok = np.broadcast_to(ok, len(store))
            if ok.any():
                values = np.where(ok, values, 0.0)
                store = store.with_doubles({binding.name: values}, None if ok.all() else ok)
        return store

    return transform


# -- scheme construction ------------------------------------------------------------


def build_scheme(
    query: Query,
    registry: Optional[OperatorRegistry] = None,
) -> AggregationScheme:
    """Build the :class:`AggregationScheme` a query describes.

    Raises :class:`CalQLSemanticError` if the query has no aggregation
    operators — use the query engine directly for pure filter queries.
    """
    validate(query, registry)
    if not query.ops:
        raise CalQLSemanticError(
            "query has no aggregation operators; an aggregation scheme needs AGGREGATE"
        )
    ops = instantiate_ops(query, registry)
    predicate = compile_conditions(query.where)
    key = query.effective_key()
    if query.window is not None:
        # Windows are ordinary key attributes: every downstream layer
        # (shards, relays, wire formats, columnar backend) groups by them
        # like any other label.  Records are stamped before folding — see
        # repro.window.assign.
        key = tuple(key) + ("window.start", "window.end")
    return AggregationScheme(
        ops=ops,
        key=key,
        predicate=predicate,
    )
