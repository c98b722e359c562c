"""Sort-free grouping equals the sorting reference it stands for.

``_dense_unique`` numbers small integer keys by presence table and must be
``np.unique(keys, return_inverse=True)``; ``_stable_order`` radix-sorts
group ids and must be an int64 stable argsort.  ``_Groups`` (ids, inverse,
representatives, class columns, runs) and ``_intern_num_column`` (codes and
first-seen values) must equal the ``np.unique`` / argsort versions written
out below, whichever side of the table bound and of the 2**62 packing limit
a case falls on.  Shapes come from hypothesis; the bulk of each array from
a numpy generator it seeds, so a case of 300 rows x 8 columns stays cheap.
"""

import struct

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.aggregate.table import (
    _PACK_LIMIT,
    _equality_classes,
    _Groups,
    _occurrence,
    _stable_order,
)
from repro.common import ValueType, Variant
from repro.io.colfile import (
    ColumnStore,
    _dense_unique,
    _DictColumn,
    _first_rows,
    _intern_num_column,
    _NumColumn,
    _table_span,
)

from ..conftest import examples

INT, UINT, DOUBLE, BOOL = ValueType.INT, ValueType.UINT, ValueType.DOUBLE, ValueType.BOOL
INT64_MIN, INT64_MAX, UINT64_MAX = -(2**63), 2**63 - 1, 2**64 - 1

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def widths(n: int, most: int):
    """Key spans up to ``most`` on both sides of the table bound for ``n``
    keys, and far past it."""
    bound = _table_span(n)
    spans = [1, 2, 7, 300, bound - 1, bound, bound + 1, 2**40, 2**62 + 1, most]
    return st.sampled_from([min(span, most) for span in spans])


# -- the helpers ----------------------------------------------------------------------


@st.composite
def keys_and_spans(draw):
    """Non-negative keys, often repeating, whose span straddles the bound."""
    n = draw(st.integers(0, 300))
    width = draw(widths(n, INT64_MAX))
    rng = np.random.default_rng(draw(seeds))
    pool = rng.integers(0, width, size=draw(st.sampled_from([1, 3, 30, 300])))
    keys = rng.choice(np.append(pool, width - 1), size=n) if n else pool[:0]
    small = width <= 256 and draw(st.booleans())
    keys = keys.astype(draw(st.sampled_from([np.uint8] if small else [np.int64, np.uint64])))
    return keys, draw(st.sampled_from([None, width]))


@given(keys_and_spans())
@settings(max_examples=examples(200), deadline=None)
def test_dense_unique_is_np_unique(case):
    keys, span = case
    distinct, inverse = _dense_unique(keys, span)
    want_distinct, want_inverse = np.unique(keys, return_inverse=True)
    assert distinct.dtype == want_distinct.dtype
    assert np.array_equal(distinct, want_distinct)
    assert inverse.dtype == want_inverse.dtype
    assert np.array_equal(inverse, want_inverse)


#: id counts on both sides of the 8-bit, 16-bit and two-pass (32-bit) sorts
counts = st.sampled_from(
    [1, 2, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1, 2**20, 2**32, 2**32 + 1, 2**40]
)


@st.composite
def ids_and_counts(draw):
    """Group ids below ``count``, from a few distinct ones (runs to keep stable)."""
    count = draw(counts)
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(seeds))
    # the edges where the low and high 16-bit halves change
    edges = [i for i in (0, 255, 256, 2**16 - 1, 2**16, 2**16 + 1, 2**17) if i < count]
    pool = np.concatenate((rng.integers(0, count, size=draw(st.integers(1, 8))), edges))
    ids = rng.choice(pool, size=n) if n else pool[:0]
    return ids.astype(np.int64), count


@given(ids_and_counts())
@settings(max_examples=examples(200), deadline=None)
def test_stable_order_is_an_int64_stable_argsort(case):
    ids, count = case
    assert np.array_equal(_stable_order(ids, count), np.argsort(ids, kind="stable"))


@given(ids_and_counts())
@settings(max_examples=examples(100), deadline=None)
def test_occurrence_counts_earlier_equal_entries(case):
    ids, _count = case
    if not len(ids):
        return
    seen: dict[int, int] = {}
    want = []
    for i in ids.tolist():
        want.append(seen.get(i, 0))
        seen[i] = want[-1] + 1
    assert _occurrence(ids).tolist() == want


# -- _Groups ------------------------------------------------------------------------

#: values that share a GROUP BY key under Variant equality (1 / 1.0 and
#: 0 / 0.0 / -0.0), ones that do not (True, "1"), a NaN and a uint past int64
TWINS = [
    Variant.of(1), Variant.of(1.0), Variant.of(0), Variant.of(0.0), Variant.of(-0.0),
    Variant.of(float("nan")), Variant.of(True), Variant.of("1"), Variant(UINT, UINT64_MAX),
]


@st.composite
def group_cases(draw):
    """A store of up to eight key columns, dictionary or typed int, with
    missing rows, and the rows to group: all of them or a drawn subset.
    One case in four is eight columns of 300 values each, whose radix
    product passes 2**62."""
    wide = draw(st.integers(0, 3)) == 0
    n = 300 if wide else draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(seeds))
    key, columns = [], {}
    for j in range(8 if wide else draw(st.integers(0, 8))):
        size = 300 if wide else draw(st.sampled_from([1, 2, 5, 40, 250, 300]))
        missing = 0.0 if wide else draw(st.sampled_from([0.0, 0.1, 1.0]))
        absent = rng.random(n) < missing
        if draw(st.booleans()):
            values = list(TWINS[: draw(st.integers(0, len(TWINS)))])
            values += [Variant.of(f"v{i}") for i in range(size)]
            codes = rng.integers(0, len(values), size=n)
            codes[absent] = -1
            columns[f"c{j}"] = _DictColumn(codes.astype(np.int64), values)
        else:
            low = draw(st.sampled_from([INT64_MIN, -3, 0, INT64_MAX - size]))
            numbers = rng.integers(low, low + size, size=n, dtype=np.int64, endpoint=True)
            columns[f"c{j}"] = _NumColumn(INT, numbers, None if not absent.any() else ~absent)
        key.append(f"c{j}")
    store = ColumnStore(n, columns)
    sel = None
    if draw(st.booleans()):
        sel = np.sort(rng.choice(n, size=draw(st.integers(0, n)), replace=draw(st.booleans())))
    return store, key, sel


class _SortedGroups:
    """The ``np.unique`` + int64 argsort grouping the sort-free one replaced."""

    def __init__(self, store, key, sel):
        n = len(store) if sel is None else len(sel)
        packed = np.zeros(n, dtype=np.int64)
        span = 1
        self.columns = []
        for label in key:
            codes, values = store.interned(label)
            codes = codes if sel is None else codes[sel]
            classes, radix = _equality_classes(values, {})
            class_ids = classes[codes]
            self.columns.append((codes, class_ids))
            if span * radix > _PACK_LIMIT:
                packed = np.unique(packed, return_inverse=True)[1]
                span = int(packed.max()) + 1
            packed = packed * radix + class_ids
            span *= radix
        ids, self.inverse = np.unique(packed, return_inverse=True)
        self.count = len(ids)
        self.representatives = np.unique(self.inverse, return_index=True)[1]
        self.order = np.argsort(self.inverse, kind="stable")
        boundaries = np.flatnonzero(np.diff(self.inverse[self.order])) + 1
        self.starts = np.concatenate(([0], boundaries))


@given(group_cases())
@settings(max_examples=examples(150), deadline=None)
def test_groups_equal_the_sorting_reference(case):
    store, key, sel = case
    n = len(store) if sel is None else len(sel)
    if not n:
        return
    got = _Groups(store, key, sel, [{} for _ in key])
    want = _SortedGroups(store, key, sel)
    assert got.count == want.count
    assert np.array_equal(got.inverse, want.inverse)
    every = np.arange(got.count)
    for (codes, _values), (want_codes, want_classes), classes in zip(
        got.representatives(every), want.columns, got.class_columns()
    ):
        assert np.array_equal(codes, want_codes[want.representatives])
        assert np.array_equal(classes, want_classes[want.representatives])
    order, starts = got.runs()
    assert np.array_equal(order, want.order)
    assert np.array_equal(starts, want.starts)


# -- typed-column interning -------------------------------------------------------------


def reference_intern(col, nrows):
    """The ``np.unique`` interning of a typed column, written out."""
    present = col.values if col.mask is None else col.values[col.mask]
    keys = present
    if col.vtype is DOUBLE:
        if col.whole is not None:
            keys = np.where(present == 0, 0.0, present)
        keys = keys.view(np.int64)
    distinct, inv = np.unique(keys, return_inverse=True)
    firsts = _first_rows(inv, len(distinct))
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[inv[firsts]] = np.arange(len(distinct))
    if col.mask is None:
        codes = rank[inv]
    else:
        codes = np.full(nrows, -1, dtype=np.int64)
        codes[col.mask] = rank[inv]
    return codes, col.variants(present[firsts])


def identity(v: Variant):
    """A Variant by type and exact value (a double by its bit pattern)."""
    if isinstance(v.value, float):
        return v.type, struct.pack("<d", v.value)
    return v.type, type(v.value), v.value


#: doubles interning keeps apart (0.0 / -0.0, unless ``whole``; two NaN
#: payloads), and plain ones
OTHER_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
DOUBLES = [0.0, -0.0, float("nan"), OTHER_NAN, 1.0, 1.5, 2.0**53, float("inf"), float("-inf")]


@st.composite
def num_columns(draw):
    """A typed column: int64 / uint64 values around the table bound (from
    the int64 extremes and up to 2**64 too), bools, or doubles; dense or
    masked."""
    n = draw(st.integers(0, 300))
    vtype = draw(st.sampled_from([INT, UINT, BOOL, DOUBLE]))
    rng = np.random.default_rng(draw(seeds))
    whole = None
    if vtype is DOUBLE:
        values = rng.choice(np.array(DOUBLES), size=n)
        whole = draw(st.sampled_from([None, INT, UINT]))
    elif vtype is BOOL:
        values = rng.integers(0, 2, size=n).astype(draw(st.sampled_from([np.uint8, np.bool_])))
    else:
        top = INT64_MAX if vtype is INT else UINT64_MAX
        bottom = INT64_MIN if vtype is INT else 0
        width = draw(widths(n, top - bottom))
        low = draw(st.sampled_from([bottom, bottom + (top - bottom - width) // 2, top - width]))
        dtype = np.int64 if vtype is INT else np.uint64
        pool = rng.integers(low, low + width, size=draw(st.sampled_from([1, 3, 300])),
                            dtype=dtype, endpoint=True)
        pool = np.append(pool, np.array([low, low + width], dtype=dtype))  # the span's ends
        values = rng.choice(pool, size=n) if n else pool[:0]
    mask = None
    if draw(st.booleans()):
        mask = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.95]))
        values = np.where(mask, values, np.zeros(1, dtype=values.dtype))
    return _NumColumn(vtype, values, mask, whole), n


@given(num_columns())
@settings(max_examples=examples(200), deadline=None)
def test_intern_num_column_equals_np_unique_interning(case):
    col, n = case
    codes, values = _intern_num_column(col, n)
    want_codes, want_values = reference_intern(col, n)
    assert np.array_equal(codes, want_codes)
    assert [identity(v) for v in values] == [identity(v) for v in want_values]
