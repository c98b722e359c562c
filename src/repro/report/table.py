"""Aligned text tables, in the style of the paper's result listings.

String columns are left-aligned, numeric columns right-aligned; floats are
rendered with a configurable precision.  The column order honours a
``preferred`` prefix (the query engine passes key labels first, then
operator outputs, matching the paper's ``function loop.iteration count
sum#time`` layout).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from ..common.record import Record
from ..common.variant import ValueType, Variant
from ..io.colfile import ColumnStore, _Column, _DictColumn

__all__ = ["format_table", "TableOptions"]


class TableOptions:
    """Rendering options for :func:`format_table`."""

    def __init__(
        self,
        float_precision: int = 6,
        max_rows: Optional[int] = None,
        missing: str = "",
        separator: str = " ",
    ) -> None:
        self.float_precision = float_precision
        self.max_rows = max_rows
        self.missing = missing
        self.separator = separator

    def render_cell(self, value: Variant) -> str:
        if value.is_empty:
            return self.missing
        if value.type is ValueType.DOUBLE:
            v = value.value
            assert isinstance(v, float)
            if not math.isfinite(v):  # inf / nan: no int(), no precision
                return value.to_string()
            if v == int(v) and abs(v) < 1e15:
                return str(int(v))
            return f"{v:.{self.float_precision}g}"
        return value.to_string()


def format_table(
    records: Union[Sequence[Record], ColumnStore],
    preferred: Sequence[str] = (),
    options: Optional[TableOptions] = None,
) -> str:
    """Render records, or a column store's rows, as an aligned text table.

    Cells are rendered one column at a time: a typed column from its
    values array (as :meth:`TableOptions.render_cell` renders their
    Variants), a dictionary column once per distinct value it shows.
    Records are rendered through :meth:`ColumnStore.from_records`.
    """
    options = options or TableOptions()
    store = records if isinstance(records, ColumnStore) else ColumnStore.from_records(records)
    n = len(store)
    if not n:
        return "(no records)"
    held = {label: col for label, col in store.columns.items() if _holds_values(col)}
    columns = [label for label in preferred if label in held]
    columns.extend(sorted(held.keys() - set(columns)))

    shown = len(range(n)[: options.max_rows])  # as many as the slice holds
    cells, fields = [], []
    for label in columns:
        column, numeric = _render_column(held[label], shown, options)
        width = max(len(label), max(map(len, column), default=0))
        cells.append(column)
        fields.append("{:%s%d}" % (">" if numeric else "<", width))
    # one str.format per row pads every cell (braces in the separator escaped)
    row = options.separator.replace("{", "{{").replace("}", "}}").join(fields).format
    lines = [row(*columns).rstrip()]
    lines.extend(row(*cell).rstrip() for cell in (zip(*cells) if cells else [()] * shown))
    if options.max_rows is not None and n > options.max_rows:
        lines.append(f"(... {n - options.max_rows} more rows)")
    return "\n".join(lines)


def _holds_values(col: _Column) -> bool:
    if isinstance(col, _DictColumn):
        return bool((col.codes >= 0).any())
    return col.mask is None or bool(col.mask.any())


def _render_column(col: _Column, shown: int, options: TableOptions) -> tuple[list[str], bool]:
    """The cells of a column's first ``shown`` rows, and whether it is
    numeric (right-aligned): every value of the *whole* column is."""
    missing = options.missing
    if isinstance(col, _DictColumn):
        values = col.values
        numeric = all(values[i].is_numeric for i in _used(col.codes, len(values)))
        codes = col.codes[:shown]
        texts = [missing] * (len(values) + 1)  # code -1 reads the last
        for i in _used(codes, len(values)):
            texts[i] = options.render_cell(values[i])
        return list(map(texts.__getitem__, codes.tolist())), numeric
    values = col.values[:shown]
    if col.vtype is ValueType.BOOL:
        cells = ["true" if x else "false" for x in values.tolist()]
    elif col.vtype is ValueType.DOUBLE:
        cells = _render_doubles(values.astype(np.float64, copy=False), col.whole, options)
    else:
        cells = list(map(str, values.tolist()))
    if col.mask is not None:
        cells = [c if m else missing for c, m in zip(cells, col.mask[:shown].tolist())]
    return cells, col.vtype is not ValueType.BOOL


def _used(codes: np.ndarray, ncodes: int) -> list[int]:
    """The distinct codes in ``codes`` other than -1, ascending."""
    used = np.zeros(ncodes + 1, dtype=bool)
    used[codes] = True  # -1 marks the last slot
    return np.flatnonzero(used[:-1]).tolist()


def _render_doubles(
    values: np.ndarray, whole: Optional[ValueType], options: TableOptions
) -> list[str]:
    """:meth:`TableOptions.render_cell` of each value's Variant: a double's
    (non-finite: ``repr``; integral below 1e15: ``str(int)``; else
    ``%.{precision}g``), or — in a ``whole`` column — an integral value's
    (for ``UINT``, a non-negative one) as that int type's, at any size."""
    with np.errstate(invalid="ignore"):
        integral = np.isfinite(values) & (values == np.trunc(values))
        as_int = integral & (np.abs(values) < 1e15)
        if whole is ValueType.INT:
            as_int = integral
        elif whole is ValueType.UINT:
            as_int |= integral & (values >= 0)
    # one %-format over the column: "%d" is str(int(x)), and "%g" of a
    # non-finite double is its repr
    if as_int.all():
        template = "%d\n" * len(values)
    else:
        double = f"%.{options.float_precision}g\n"
        template = "".join(np.where(as_int, "%d\n", double).tolist())
    return (template % tuple(values.tolist())).split("\n")[:-1]
