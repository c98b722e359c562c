"""Aggregation-key extraction.

The aggregation key is the GROUP BY part of a scheme: the tuple of values of
the key attributes in an input record.  Records missing some or all key
attributes still aggregate — they get their own entries, exactly as the
paper's Section III-B table shows rows "where only one or none of the key
attributes were set".

The key is the tuple of :class:`Variant` values (``None`` for a missing
attribute), and the key attributes are reconstructed from the tuple itself
at flush time.  Tuples of Variants group by Variant equality, under which a
NaN equals nothing, not even itself: a double NaN is therefore replaced by
one Variant per bit pattern, so same-bit NaNs share an entry as they share
a state-table slot, whichever objects carry them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import struct

from ..common.record import Record
from ..common.variant import ValueType, Variant

__all__ = ["TupleKeyExtractor", "make_extractor"]

_INV, _DOUBLE = ValueType.INV, ValueType.DOUBLE
_F64 = struct.Struct("<d")


class TupleKeyExtractor:
    """Record -> hashable key, and key -> entries (for flush).

    Key = tuple of values (None where the attribute is absent).
    """

    def __init__(self, key_labels: Sequence[str]) -> None:
        self.key_labels = tuple(key_labels)
        #: NaN bit pattern -> the Variant standing for it in keys
        self._nans: dict[bytes, Variant] = {}

    def extract(self, record: Record) -> tuple:
        return self.rekey(tuple(map(record._entries.get, self.key_labels)))

    def rekey(self, key: tuple) -> tuple:
        """``key`` (values or ``None``) as this extractor keys it: itself,
        unless it holds an empty value or a NaN (:meth:`_canonical`)."""
        for v in key:
            if v is None or v.type is _INV or (v.type is _DOUBLE and v.value != v.value):
                return self._canonical(key)
        return key

    def from_entries(self, entries: Mapping[str, Variant]) -> tuple:
        """:meth:`extract` over bare ``label -> Variant`` entries (an
        exported group's), same rule: a missing or empty value is ``None``."""
        return self._canonical(tuple(map(entries.get, self.key_labels)))

    def _canonical(self, key: tuple) -> tuple:
        """``key`` with an empty value as ``None`` and a NaN as the one
        Variant of its bit pattern."""
        nans = self._nans
        out = []
        for v in key:
            if v is None or v.type is _INV:
                v = None
            elif v.type is _DOUBLE and v.value != v.value:
                v = nans.setdefault(_F64.pack(v.value), v)
            out.append(v)
        return tuple(out)

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
