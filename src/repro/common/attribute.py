"""Attribute metadata and the attribute registry.

An :class:`Attribute` is the *key* half of the paper's key:value data model:
a unique label, a value type, and a set of properties that control how the
runtime treats values of this attribute.  The :class:`AttributeRegistry`
interns attributes by label and assigns small integer ids used by the
aggregation database for compact keys.

Properties (a subset of Caliper's semantics, the ones aggregation needs):

``NESTED``
    Values form a begin/end stack; snapshots record the whole path
    (e.g. a callpath ``main/foo``).  Non-nested attributes snapshot only
    their current (top) value.
``ASVALUE``
    The attribute is stored inline in snapshot records rather than in the
    context tree; typical for metric values such as ``time.duration``.
``AGGREGATABLE``
    Marks metric attributes that aggregation operators may reduce.
``SKIP_EVENTS``
    Updates to this attribute never trigger event snapshots (used for
    bookkeeping attributes to avoid measurement feedback).
``GLOBAL``
    Process-wide metadata (run date, problem size) emitted once per
    dataset rather than per snapshot.
"""

from __future__ import annotations

import enum
import threading
from typing import Iterable, Iterator, Optional, Union

from .errors import DuplicateAttributeError, UnknownAttributeError
from .variant import ValueType, Variant

__all__ = ["AttrProperty", "Attribute", "AttributeRegistry"]


class AttrProperty(enum.Flag):
    """Bit flags describing runtime semantics of an attribute."""

    NONE = 0
    NESTED = enum.auto()
    ASVALUE = enum.auto()
    AGGREGATABLE = enum.auto()
    SKIP_EVENTS = enum.auto()
    GLOBAL = enum.auto()

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "AttrProperty":
        prop = cls.NONE
        for name in names:
            try:
                prop |= cls[name.strip().upper()]
            except KeyError:
                raise UnknownAttributeError(f"attribute property {name!r}") from None
        return prop

    def names(self) -> list[str]:
        return [m.name.lower() for m in AttrProperty if m and self & m]  # type: ignore[arg-type]


class Attribute:
    """Immutable attribute metadata.

    Attributes are created through :meth:`AttributeRegistry.create` which
    guarantees label uniqueness and id assignment; constructing one directly
    is only useful in tests.
    """

    __slots__ = (
        "id",
        "label",
        "type",
        "properties",
        # property flags, precomputed once — enum-flag arithmetic is too
        # slow for the per-event hot path that tests is_nested/skip_events
        "is_nested",
        "is_value",
        "is_aggregatable",
        "is_global",
        "skip_events",
        "_value_cache",
        "_hash",
    )

    #: cap on interned checked values per attribute (region-name vocabularies
    #: are small; unbounded label sets just stop caching new entries)
    _VALUE_CACHE_LIMIT = 1024

    def __init__(
        self,
        attr_id: int,
        label: str,
        vtype: Union[ValueType, str],
        properties: AttrProperty = AttrProperty.NONE,
    ) -> None:
        if isinstance(vtype, str):
            vtype = ValueType.from_name(vtype)
        object.__setattr__(self, "id", attr_id)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "type", vtype)
        object.__setattr__(self, "properties", properties)
        object.__setattr__(self, "is_nested", bool(properties & AttrProperty.NESTED))
        object.__setattr__(self, "is_value", bool(properties & AttrProperty.ASVALUE))
        object.__setattr__(
            self, "is_aggregatable", bool(properties & AttrProperty.AGGREGATABLE)
        )
        object.__setattr__(self, "is_global", bool(properties & AttrProperty.GLOBAL))
        object.__setattr__(
            self, "skip_events", bool(properties & AttrProperty.SKIP_EVENTS)
        )
        object.__setattr__(self, "_value_cache", {})
        # Attributes key the blackboard's per-event dict lookups; hashing
        # the (id, label) tuple every time is measurable, so do it once.
        object.__setattr__(self, "_hash", hash((attr_id, label)))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Attribute is immutable")

    def __reduce__(self):
        return (Attribute, (self.id, self.label, self.type.value, self.properties))

    def check(self, value: object) -> Variant:
        """Coerce ``value`` into a Variant of this attribute's type.

        Checked **string** and exact-``int`` values are interned per
        attribute: repeated ``begin("function", "solve")`` or
        ``set("iteration", 3)`` calls return the *identical* Variant object.
        Besides skipping validation and allocation, this identity stability
        is what lets the aggregation service's context-key memo recognise
        re-entered regions (it memos keys by value identity).  Only ``str``
        and ``int`` values are ever looked up, so ``1``, ``True`` and ``1.0``
        (equal as dict keys) never meet in the cache: bools and floats are
        not interned.  Benign data race by design: the cache is
        per-attribute and guarded only by the GIL; a lost update merely
        re-creates an equal Variant.
        """
        if value.__class__ is str or value.__class__ is int:
            cached = self._value_cache.get(value)
            if cached is None:
                cached = Variant(self.type, value)
                if len(self._value_cache) < self._VALUE_CACHE_LIMIT:
                    self._value_cache[value] = cached
            return cached
        if isinstance(value, Variant):
            if value.type is not self.type and not (
                value.type.is_numeric and self.type.is_numeric
            ):
                from .errors import TypeMismatchError

                raise TypeMismatchError(
                    f"attribute {self.label!r} has type {self.type.value}, "
                    f"got {value.type.value} value {value.value!r}"
                )
            return value
        return Variant(self.type, value)  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return self.id == other.id and self.label == other.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        props = ",".join(self.properties.names()) or "none"
        return f"Attribute(id={self.id}, label={self.label!r}, type={self.type.value}, props={props})"


class AttributeRegistry:
    """Interning registry mapping labels <-> :class:`Attribute`.

    Thread-safe: the runtime may create attributes from multiple threads.
    ``create`` is idempotent for identical metadata and raises
    :class:`DuplicateAttributeError` on conflicting redefinition, mirroring
    Caliper's ``cali_create_attribute`` semantics.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_label: dict[str, Attribute] = {}
        self._by_id: list[Attribute] = []

    def create(
        self,
        label: str,
        vtype: Union[ValueType, str] = ValueType.STRING,
        properties: AttrProperty = AttrProperty.NONE,
    ) -> Attribute:
        if isinstance(vtype, str):
            vtype = ValueType.from_name(vtype)
        with self._lock:
            existing = self._by_label.get(label)
            if existing is not None:
                if existing.type is not vtype or existing.properties != properties:
                    raise DuplicateAttributeError(
                        label,
                        f"existing type={existing.type.value} props={existing.properties.names()}, "
                        f"requested type={vtype.value} props={properties.names()}",
                    )
                return existing
            attr = Attribute(len(self._by_id), label, vtype, properties)
            self._by_id.append(attr)
            self._by_label[label] = attr
            return attr

    def get(self, key: Union[str, int]) -> Attribute:
        """Look up by label or id; raises :class:`UnknownAttributeError`."""
        try:
            if isinstance(key, str):
                return self._by_label[key]
            return self._by_id[key]
        except (KeyError, IndexError):
            raise UnknownAttributeError(key) from None

    def find(self, key: Union[str, int]) -> Optional[Attribute]:
        """Like :meth:`get` but returns None instead of raising."""
        try:
            return self.get(key)
        except UnknownAttributeError:
            return None

    def get_or_create(
        self,
        label: str,
        vtype: Union[ValueType, str] = ValueType.STRING,
        properties: AttrProperty = AttrProperty.NONE,
    ) -> Attribute:
        """Return the existing attribute for ``label`` or create one.

        Unlike :meth:`create`, an existing attribute is returned even if the
        requested metadata differs (the existing definition wins); used by
        readers that encounter labels with unknown provenance.
        """
        existing = self.find(label)
        if existing is not None:
            return existing
        return self.create(label, vtype, properties)

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(list(self._by_id))

    def labels(self) -> list[str]:
        return [a.label for a in self._by_id]
