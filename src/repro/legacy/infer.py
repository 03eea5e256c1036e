"""Infer legacy wire types for query-result columns.

Export jobs and ad-hoc result sets travel in the legacy *binary* encoding,
which needs a :class:`~repro.legacy.types.Layout`.  The engines do not
track result types, so both the reference server and Hyper-Q's export path
derive a layout from the result values themselves.
"""

from __future__ import annotations

from decimal import Decimal
from operator import itemgetter

from repro import values
from repro.legacy.types import FieldDef, Layout, LegacyType

__all__ = ["infer_legacy_type", "infer_result_layout"]


def infer_legacy_type(column_values: list) -> LegacyType:
    """The narrowest legacy type that can carry every value in a column."""
    kinds = set(map(type, column_values))
    kinds.discard(type(None))
    if not kinds:
        return LegacyType("VARCHAR", 1)
    if kinds <= {bool, int}:
        return LegacyType("BIGINT")
    if kinds <= {bool, int, float}:
        return LegacyType("FLOAT")
    if kinds <= {bool, int, Decimal}:
        return LegacyType("DECIMAL")
    if kinds == {values.Timestamp}:
        return LegacyType("TIMESTAMP")
    # datetime is a subclass of date; a pure-date column has no datetimes.
    if all(issubclass(k, values.Date) and not issubclass(k, values.Timestamp)
           for k in kinds):
        return LegacyType("DATE")
    if kinds <= {str}:
        longest = max(map(len, filter(None, column_values)), default=0)
        return LegacyType("VARCHAR", max(longest, 1))
    # Mixed column: fall back to text wide enough for every rendering.
    longest = max(len(str(v)) for v in column_values if v is not None)
    return LegacyType("VARCHAR", max(longest, 1))


def infer_result_layout(columns: list[str], rows: list[tuple]) -> Layout:
    """Build a layout for a result set from its column names and rows."""
    fields = []
    for i, name in enumerate(columns):
        column_values = list(map(itemgetter(i), rows))
        fields.append(FieldDef(name, infer_legacy_type(column_values)))
    return Layout("__resultset__", fields)
