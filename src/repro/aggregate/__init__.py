"""The aggregation core: operator kernels, schemes, and the streaming DB.

This package is the paper's primary contribution rendered as a library:
user-composable aggregation schemes (operators + key + predicate) that run
identically on-line (streaming snapshot records), off-line (querying stored
datasets), and across processes (combining partial databases).  The
per-record :class:`AggregationDB` and the columnar :class:`StateTable` (the
server path: vector folds, column merges, the state codec) hold the same
partial states.
"""

from .db import AggregationDB
from .key import TupleKeyExtractor, make_extractor
from .ops import (
    AggregateOp,
    AvgOp,
    CountOp,
    FirstOp,
    HistogramOp,
    MaxOp,
    MinOp,
    OperatorRegistry,
    PercentTotalOp,
    RatioOp,
    ScaleOp,
    StddevOp,
    SumOp,
    VarianceOp,
    default_registry,
    make_op,
)
from .plan import CompiledFoldPlan, FoldPlan, GenericFoldPlan, make_plan
from .scheme import AggregationScheme
from .stream import StreamAggregator, aggregate_records, combine_partials
from .table import StateTable

__all__ = [
    "AggregationDB",
    "AggregationScheme",
    "StateTable",
    "FoldPlan",
    "CompiledFoldPlan",
    "GenericFoldPlan",
    "make_plan",
    "StreamAggregator",
    "aggregate_records",
    "combine_partials",
    "TupleKeyExtractor",
    "make_extractor",
    "AggregateOp",
    "CountOp",
    "SumOp",
    "MinOp",
    "MaxOp",
    "AvgOp",
    "VarianceOp",
    "StddevOp",
    "HistogramOp",
    "FirstOp",
    "RatioOp",
    "ScaleOp",
    "PercentTotalOp",
    "OperatorRegistry",
    "default_registry",
    "make_op",
]
