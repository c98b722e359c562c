"""The blackboard: the runtime's globally visible attribute state.

Caliper keeps the "current" value of every annotation attribute on a
blackboard buffer; snapshots are compressed copies of its contents
(Section IV-A).  Our blackboard stores, per attribute, a begin/end *stack*
of values:

* non-nested attributes snapshot their top-of-stack value;
* ``NESTED`` attributes snapshot the whole stack joined into a path
  (``main/foo``), giving callpath-like semantics.

One blackboard exists per monitored thread (the runtime arranges that), so
no locking happens here — mirroring the paper's lock-free per-thread design.

**Hot-path design.**  The snapshot entry dict is maintained *incrementally*:
every ``begin``/``end``/``set`` updates the one affected label in place, so
taking a snapshot allocates nothing — :meth:`snapshot_entries` returns the
live dict and :meth:`snapshot_record` a stable :class:`Record` wrapping it.
Nested path values are interned per ``(label, parent-path, segment)``, which
makes re-entering the same region return the *identical* ``Variant`` object
— the property the aggregation service's context-key memo keys on (it memos
extracted keys by value identity).  This mirrors Caliper's incremental
context-tree key update.

The mirror method :meth:`rebuild_entries` recomputes the full dict from the
stacks; it is the differential-testing oracle for the incremental
maintenance (``tests/runtime/test_blackboard.py``).
"""

from __future__ import annotations

from typing import Iterator

from ..common.attribute import Attribute
from ..common.errors import BlackboardError
from ..common.node import PATH_SEPARATOR
from ..common.record import Record
from ..common.variant import RawValue, Variant

__all__ = ["Blackboard"]

#: soft cap on interned nested-path variants; like Caliper's context tree
#: this is bounded by the number of *distinct call paths*, so the cap only
#: triggers for pathological workloads (e.g. unbounded unique region names)
_PATH_INTERN_LIMIT = 65536


class Blackboard:
    """Per-thread stack-of-values store keyed by attribute."""

    __slots__ = (
        "_stacks",
        "_displays",
        "_entries",
        "_record",
        "_path_intern",
    )

    def __init__(self) -> None:
        # attribute -> list of Variants (begin/end stack)
        self._stacks: dict[Attribute, list[Variant]] = {}
        # nested attribute -> parallel stack of display (joined-path) values:
        # _displays[a][i] is the path of _stacks[a][:i+1]
        self._displays: dict[Attribute, list[Variant]] = {}
        # live snapshot view, updated in place on every mutation
        self._entries: dict[str, Variant] = {}
        self._record = Record.from_variants(self._entries)
        # (id(parent), id(segment)) -> (parent, segment, joined path Variant).
        # Parent/segment variants are themselves interned (per-attribute value
        # cache, or an earlier entry here), so identity keys are stable; the
        # value tuple holds strong refs, which is what makes id keys sound.
        self._path_intern: dict[tuple[int, int], tuple[Variant, Variant, Variant]] = {}

    # -- updates ------------------------------------------------------------

    def _joined(self, parent: Variant, value: Variant) -> Variant:
        """The interned path variant for ``parent`` extended by ``value``.

        The joined string depends only on the two variants' text forms, so
        a hit costs two ``id()`` calls and one dict probe — no string
        rendering, no string-tuple hashing.
        """
        key = (id(parent), id(value))
        cached = self._path_intern.get(key)
        if cached is None:
            if len(self._path_intern) >= _PATH_INTERN_LIMIT:
                self._path_intern.clear()
            joined = Variant.of(
                parent.to_string() + PATH_SEPARATOR + value.to_string()
            )
            cached = (parent, value, joined)
            self._path_intern[key] = cached
        return cached[2]

    def begin(self, attribute: Attribute, value: RawValue | Variant) -> None:
        """Push a value onto the attribute's stack.

        ``Variant`` values are trusted as-is — the instrumentation front end
        checks before dispatching, and re-checking per event is measurable.
        Raw values are still coerced through :meth:`Attribute.check`.
        """
        v = value if value.__class__ is Variant else attribute.check(value)
        stack = self._stacks.get(attribute)
        if stack is None:
            self._stacks[attribute] = [v]
            if attribute.is_nested:
                self._displays[attribute] = [v]
            self._entries[attribute.label] = v
        else:
            stack.append(v)
            if attribute.is_nested:
                displays = self._displays[attribute]
                display = self._joined(displays[-1], v)
                displays.append(display)
                self._entries[attribute.label] = display
            else:
                self._entries[attribute.label] = v

    def end(self, attribute: Attribute, value: RawValue | Variant | None = None) -> Variant:
        """Pop the attribute's stack; returns the popped value.

        If ``value`` is given, it must match the top of the stack — this
        catches mismatched begin/end annotation nesting early, the classic
        instrumentation bug.
        """
        stack = self._stacks.get(attribute)
        if not stack:
            raise BlackboardError(f"end({attribute.label!r}) without matching begin")
        top = stack[-1]
        if value is not None:
            expected = attribute.check(value)
            if expected != top:
                raise BlackboardError(
                    f"mismatched end for {attribute.label!r}: expected "
                    f"{top.to_string()!r}, got {expected.to_string()!r}"
                )
        stack.pop()
        if not stack:
            del self._stacks[attribute]
            self._displays.pop(attribute, None)
            self._entries.pop(attribute.label, None)
        elif attribute.is_nested:
            displays = self._displays[attribute]
            displays.pop()
            self._entries[attribute.label] = displays[-1]
        else:
            self._entries[attribute.label] = stack[-1]
        return top

    def set(self, attribute: Attribute, value: RawValue | Variant) -> None:
        """Replace the attribute's top value (or start its stack).

        ``Variant`` values are trusted as-is, like :meth:`begin`.
        """
        v = value if value.__class__ is Variant else attribute.check(value)
        stack = self._stacks.get(attribute)
        if stack:
            stack[-1] = v
            if attribute.is_nested:
                displays = self._displays[attribute]
                if len(displays) > 1:
                    v = self._joined(displays[-2], v)
                displays[-1] = v
            self._entries[attribute.label] = v
        else:
            self._stacks[attribute] = [v]
            if attribute.is_nested:
                self._displays[attribute] = [v]
            self._entries[attribute.label] = v

    def unset(self, attribute: Attribute) -> None:
        """Remove the attribute entirely (all stacked values)."""
        if self._stacks.pop(attribute, None) is not None:
            self._displays.pop(attribute, None)
            self._entries.pop(attribute.label, None)

    # -- reads ---------------------------------------------------------------

    def get(self, attribute: Attribute) -> Variant:
        """Current (top) value, or the empty variant."""
        stack = self._stacks.get(attribute)
        return stack[-1] if stack else Variant.empty()

    def depth(self, attribute: Attribute) -> int:
        stack = self._stacks.get(attribute)
        return len(stack) if stack else 0

    def attributes(self) -> Iterator[Attribute]:
        return iter(self._stacks)

    def __len__(self) -> int:
        return len(self._stacks)

    def __contains__(self, attribute: Attribute) -> bool:
        return attribute in self._stacks

    # -- snapshots --------------------------------------------------------------

    def snapshot_entries(self) -> dict[str, Variant]:
        """The blackboard's contents as snapshot record entries.

        Nested attributes appear as their slash-joined path value.  The
        returned dict is the blackboard's *live* view, maintained in place —
        zero work per snapshot, but subsequent ``begin``/``end``/``set``
        calls mutate it.  Callers that outlive the next update must copy;
        callers that consume immediately (the fold-only aggregation path)
        may read it directly.
        """
        return self._entries

    def snapshot_record(self) -> Record:
        """A stable :class:`Record` view over the live snapshot entries.

        The same object for the blackboard's lifetime (its entry dict is
        mutated in place), so fold-immediately consumers get a record without
        any per-snapshot allocation.
        """
        return self._record

    def rebuild_entries(self) -> dict[str, Variant]:
        """Recompute the snapshot entries from the value stacks (a fresh dict).

        This is the reference implementation the incremental ``_entries``
        maintenance is differentially tested against.
        """
        entries: dict[str, Variant] = {}
        for attribute, stack in self._stacks.items():
            if attribute.is_nested and len(stack) > 1:
                path = PATH_SEPARATOR.join(v.to_string() for v in stack)
                entries[attribute.label] = Variant.of(path)
            else:
                entries[attribute.label] = stack[-1]
        return entries

    def clear(self) -> None:
        self._stacks.clear()
        self._displays.clear()
        self._entries.clear()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{a.label}={'/'.join(v.to_string() for v in s)}" for a, s in self._stacks.items()
        )
        return f"Blackboard({inner})"
