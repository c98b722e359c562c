"""Aggregation-key extraction.

The aggregation key is the GROUP BY part of a scheme: the tuple of values of
the key attributes in an input record.  Records missing some or all key
attributes still aggregate — they get their own entries, exactly as the
paper's Section III-B table shows rows "where only one or none of the key
attributes were set".

The key is the tuple of :class:`Variant` values (``None`` for a missing
attribute): no auxiliary state, and the key attributes are reconstructed
from the tuple itself at flush time.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..common.record import Record
from ..common.variant import Variant

__all__ = ["TupleKeyExtractor", "make_extractor"]


class TupleKeyExtractor:
    """Record -> hashable key, and key -> entries (for flush).

    Key = tuple of values (None where the attribute is absent).
    """

    def __init__(self, key_labels: Sequence[str]) -> None:
        self.key_labels = tuple(key_labels)

    def extract(self, record: Record) -> tuple:
        get = record.get
        empty = Variant.empty()
        return tuple(
            v if (v := get(lbl, empty)) is not empty and not v.is_empty else None
            for lbl in self.key_labels
        )

    def from_entries(self, entries: Mapping[str, Variant]) -> tuple:
        """:meth:`extract` over bare ``label -> Variant`` entries (an
        exported group's), same rule: a missing or empty value is ``None``."""
        get = entries.get
        return tuple(
            v if (v := get(lbl)) is not None and not v.is_empty else None
            for lbl in self.key_labels
        )

    def entries(self, key: tuple) -> list[tuple[str, Variant]]:
        """Reconstruct the (label, value) pairs a key stands for."""
        return [
            (lbl, value)
            for lbl, value in zip(self.key_labels, key)
            if value is not None
        ]


def make_extractor(key_labels: Sequence[str]) -> TupleKeyExtractor:
    """The key extractor for a scheme's GROUP BY labels."""
    return TupleKeyExtractor(key_labels)
