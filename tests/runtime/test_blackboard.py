"""Tests for the per-thread blackboard."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AttrProperty, AttributeRegistry, BlackboardError, Variant
from repro.runtime import Blackboard


@pytest.fixture
def setup():
    reg = AttributeRegistry()
    return (
        Blackboard(),
        reg.create("function", "string", AttrProperty.NESTED),
        reg.create("iteration", "int"),
    )


class TestStackOps:
    def test_begin_get(self, setup):
        bb, func, _ = setup
        bb.begin(func, "main")
        assert bb.get(func).value == "main"

    def test_nested_begin_end(self, setup):
        bb, func, _ = setup
        bb.begin(func, "main")
        bb.begin(func, "foo")
        assert bb.get(func).value == "foo"
        assert bb.depth(func) == 2
        popped = bb.end(func)
        assert popped.value == "foo"
        assert bb.get(func).value == "main"

    def test_end_without_begin_raises(self, setup):
        bb, func, _ = setup
        with pytest.raises(BlackboardError, match="without matching begin"):
            bb.end(func)

    def test_end_value_mismatch_raises(self, setup):
        bb, func, _ = setup
        bb.begin(func, "main")
        with pytest.raises(BlackboardError, match="mismatched end"):
            bb.end(func, "other")

    def test_end_value_match_ok(self, setup):
        bb, func, _ = setup
        bb.begin(func, "main")
        bb.end(func, "main")
        assert func not in bb

    def test_set_replaces_top(self, setup):
        bb, _, it = setup
        bb.set(it, 1)
        bb.set(it, 2)
        assert bb.get(it).value == 2
        assert bb.depth(it) == 1

    def test_set_within_nesting(self, setup):
        bb, func, _ = setup
        bb.begin(func, "a")
        bb.begin(func, "b")
        bb.set(func, "c")
        assert bb.depth(func) == 2
        bb.end(func)
        assert bb.get(func).value == "a"

    def test_unset_removes_all(self, setup):
        bb, func, _ = setup
        bb.begin(func, "a")
        bb.begin(func, "b")
        bb.unset(func)
        assert func not in bb and bb.get(func).is_empty

    def test_get_missing_is_empty(self, setup):
        bb, func, _ = setup
        assert bb.get(func).is_empty

    def test_type_checked(self, setup):
        from repro.common import TypeMismatchError

        bb, _, it = setup
        with pytest.raises(TypeMismatchError):
            bb.begin(it, "not-an-int")


class TestSnapshotEntries:
    def test_nested_attribute_flattens_to_path(self, setup):
        bb, func, _ = setup
        bb.begin(func, "main")
        bb.begin(func, "foo")
        entries = bb.snapshot_entries()
        assert entries["function"].value == "main/foo"

    def test_non_nested_shows_top_only(self, setup):
        bb, _, it = setup
        bb.begin(it, 1)
        bb.begin(it, 2)
        assert bb.snapshot_entries()["iteration"].value == 2

    def test_cache_invalidated_on_update(self, setup):
        bb, func, _ = setup
        bb.begin(func, "a")
        first = bb.snapshot_entries()
        assert first["function"].value == "a"
        bb.begin(func, "b")
        assert bb.snapshot_entries()["function"].value == "a/b"

    def test_cache_reused_when_clean(self, setup):
        bb, func, _ = setup
        bb.begin(func, "a")
        assert bb.snapshot_entries() is bb.snapshot_entries()

    def test_empty_blackboard(self, setup):
        bb, _, _ = setup
        assert bb.snapshot_entries() == {}

    def test_clear(self, setup):
        bb, func, _ = setup
        bb.begin(func, "a")
        bb.clear()
        assert len(bb) == 0 and bb.snapshot_entries() == {}


#: one blackboard call on one of three attributes (two nested, one plain)
_operations = st.tuples(
    # begin-heavy so stacks get deep enough to exercise the path interning
    st.sampled_from(["begin"] * 4 + ["end"] * 3 + ["set"] * 2 + ["unset", "clear"]),
    st.sampled_from(["function", "loop", "iteration"]),
    st.integers(0, 3),
)


@given(ops=st.lists(_operations, max_size=60))
@settings(max_examples=200, deadline=None)
def test_incremental_entries_match_rebuild_from_stacks(ops):
    """``rebuild_entries`` is the oracle for the in-place ``_entries`` upkeep."""
    reg = AttributeRegistry()
    attributes = {
        "function": reg.create("function", "string", AttrProperty.NESTED),
        "loop": reg.create("loop", "string", AttrProperty.NESTED),
        "iteration": reg.create("iteration", "int"),
    }
    bb = Blackboard()
    for op, label, n in ops:
        attribute = attributes[label]
        value = n if label == "iteration" else f"r{n}"
        if op == "begin":
            bb.begin(attribute, value)
        elif op == "end":
            if bb.depth(attribute):
                bb.end(attribute)
        elif op == "set":
            bb.set(attribute, value)
        elif op == "unset":
            bb.unset(attribute)
        else:
            bb.clear()
        want = bb.rebuild_entries()
        assert bb.snapshot_entries() == want
        assert bb.snapshot_record().as_dict() == want
