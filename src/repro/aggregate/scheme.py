"""Aggregation schemes: the user-facing specification object.

A scheme is the triple the paper defines in Section III-B:

* **aggregation attributes** — what to reduce (implied by the operators'
  arguments),
* **aggregation key** — the GROUP BY attribute labels,
* **aggregation operators** — the reduction kernels.

plus an optional record *predicate* (the WHERE clause).  Schemes are plain
data: the same object configures the on-line aggregation service, the
off-line query engine, and the cross-process reduction — that
single-description-everywhere property is the paper's core claim.

Construct schemes directly::

    AggregationScheme(ops=[make_op("count"), make_op("sum", ["time.duration"])],
                      key=["function", "loop.iteration"])

or from CalQL text (see :func:`repro.calql.parse_scheme`)::

    parse_scheme("AGGREGATE count, sum(time.duration) GROUP BY function")
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from ..common.errors import AggregationError
from ..common.record import Record
from .ops import AggregateOp, make_op

__all__ = ["AggregationScheme"]

Predicate = Callable[[Record], bool]


class AggregationScheme:
    """Immutable specification of one aggregation."""

    __slots__ = ("ops", "key", "predicate")

    def __init__(
        self,
        ops: Sequence[Union[AggregateOp, str]],
        key: Sequence[str] = (),
        predicate: Optional[Predicate] = None,
    ) -> None:
        kernels: list[AggregateOp] = []
        for op in ops:
            if isinstance(op, str):
                # bare names like "count"; "sum(x)" style is CalQL's job
                kernels.append(make_op(op))
            else:
                kernels.append(op)
        if not kernels:
            raise AggregationError("an aggregation scheme needs at least one operator")
        key = tuple(key)
        if len(set(key)) != len(key):
            dupes = sorted({k for k in key if list(key).count(k) > 1})
            raise AggregationError(f"duplicate key attribute(s): {', '.join(dupes)}")
        seen_outputs: set[str] = set()
        for k in kernels:
            for lbl in k.output_labels():
                if lbl in seen_outputs:
                    raise AggregationError(f"duplicate aggregation output {lbl!r}")
                if lbl in key:
                    raise AggregationError(
                        f"aggregation output {lbl!r} collides with a key attribute"
                    )
                seen_outputs.add(lbl)
        object.__setattr__(self, "ops", tuple(kernels))
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "predicate", predicate)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("AggregationScheme is immutable")

    # -- derived views -------------------------------------------------------

    @property
    def aggregation_attributes(self) -> list[str]:
        """Distinct input attribute labels the operators read."""
        seen: dict[str, None] = {}
        for op in self.ops:
            for lbl in op.inputs:
                seen.setdefault(lbl)
        return list(seen)

    @property
    def output_labels(self) -> list[str]:
        """Key labels followed by every operator output label."""
        labels = list(self.key)
        for op in self.ops:
            labels.extend(op.output_labels())
        return labels

    def fresh_kernels(self) -> tuple[AggregateOp, ...]:
        """The operator kernels (stateless; shared per DB)."""
        return self.ops

    def describe(self) -> str:
        """CalQL-ish text rendering of the scheme."""
        text = "AGGREGATE " + ", ".join(op.spec_string() for op in self.ops)
        if self.key:
            text += " GROUP BY " + ", ".join(self.key)
        return text

    def with_key(self, key: Sequence[str]) -> "AggregationScheme":
        """A copy with a different aggregation key."""
        return AggregationScheme(self.ops, key, self.predicate)

    def with_predicate(self, predicate: Optional[Predicate]) -> "AggregationScheme":
        """A copy with a different WHERE predicate."""
        return AggregationScheme(self.ops, self.key, predicate)

    def __repr__(self) -> str:
        return f"AggregationScheme({self.describe()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregationScheme):
            return NotImplemented
        return (
            self.ops == other.ops
            and self.key == other.key
            and self.predicate == other.predicate
        )

    def __hash__(self) -> int:
        return hash((self.ops, self.key, id(self.predicate)))
