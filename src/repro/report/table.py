"""Aligned text tables, in the style of the paper's result listings.

String columns are left-aligned, numeric columns right-aligned; floats are
rendered with a configurable precision.  The column order honours a
``preferred`` prefix (the query engine passes key labels first, then
operator outputs, matching the paper's ``function loop.iteration count
sum#time`` layout).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..common.record import Record
from ..common.variant import ValueType, Variant
from ..io.csvio import collect_columns

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
    records: Sequence[Record],
    preferred: Sequence[str] = (),
    options: Optional[TableOptions] = None,
) -> str:
    """Render records as an aligned text table."""
    options = options or TableOptions()
    if not records:
        return "(no records)"
    columns = collect_columns(records, preferred)

    shown = records if options.max_rows is None else records[: options.max_rows]
    cells: list[list[str]] = [
        [options.render_cell(record.get(col)) for col in columns] for record in shown
    ]

    # A column is numeric (right-aligned) when every non-empty value in the
    # *full* record set is numeric.
    numeric = []
    for col in columns:
        is_numeric = True
        seen_any = False
        for record in records:
            v = record.get(col)
            if v.is_empty:
                continue
            seen_any = True
            if not v.is_numeric:
                is_numeric = False
                break
        numeric.append(seen_any and is_numeric)

    widths = [len(col) for col in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(row: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(row):
            if numeric[i]:
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        return options.separator.join(parts).rstrip()

    lines = [render_row(columns)]
    lines.extend(render_row(row) for row in cells)
    if options.max_rows is not None and len(records) > options.max_rows:
        lines.append(f"(... {len(records) - options.max_rows} more rows)")
    return "\n".join(lines)
