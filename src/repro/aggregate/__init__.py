"""The aggregation core: operator kernels, schemes, and the streaming DB.

This package is the paper's primary contribution rendered as a library:
user-composable aggregation schemes (operators + key + predicate) that run
identically on-line (streaming snapshot records), off-line (querying stored
datasets), and across processes (combining partial databases).
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

__all__ = [
    "AggregationDB",
    "AggregationScheme",
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
