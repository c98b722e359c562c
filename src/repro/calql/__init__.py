"""CalQL: the aggregation description language (Section III-B of the paper).

Typical use::

    from repro.calql import parse_scheme
    scheme = parse_scheme("AGGREGATE count, sum(time.duration) GROUP BY function")

or, for full queries with ordering/formatting, :func:`parse_query` plus the
query engine in :mod:`repro.query`.
"""

from typing import Optional

from ..aggregate.ops import OperatorRegistry
from ..aggregate.scheme import AggregationScheme
from .ast import (
    BinExpr,
    Compare,
    Condition,
    Exists,
    Expr,
    LetBinding,
    NotCond,
    Num,
    OpCall,
    OrderSpec,
    Query,
    Ref,
    WindowSpec,
)
from .lexer import Token, TokenType, tokenize
from .parser import parse_query
from .semantics import (
    build_scheme,
    compile_conditions,
    compile_let,
    instantiate_ops,
    validate,
)

__all__ = [
    "parse_query",
    "parse_scheme",
    "tokenize",
    "Token",
    "TokenType",
    "Query",
    "OpCall",
    "OrderSpec",
    "WindowSpec",
    "Condition",
    "Exists",
    "NotCond",
    "Compare",
    "Expr",
    "Ref",
    "Num",
    "BinExpr",
    "LetBinding",
    "validate",
    "instantiate_ops",
    "compile_conditions",
    "compile_let",
    "build_scheme",
]


def parse_scheme(
    text: str,
    registry: Optional[OperatorRegistry] = None,
) -> AggregationScheme:
    """Parse CalQL text straight into an :class:`AggregationScheme`.

    >>> parse_scheme("AGGREGATE count GROUP BY kernel").key
    ('kernel',)
    """
    return build_scheme(parse_query(text), registry)
