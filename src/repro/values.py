"""Shared value model and legacy date-format handling.

Rows travel through the system as plain Python tuples.  ``None`` represents
SQL NULL.  Dates are :class:`datetime.date`, timestamps are
:class:`datetime.datetime`, decimals are :class:`decimal.Decimal`.

The legacy EDW expresses date parsing with *format strings* such as
``'YYYY-MM-DD'`` (see Example 2.1 in the paper:
``cast(:JOIN_DATE as DATE format 'YYYY-MM-DD')``).  The functions here
translate those format strings and apply them in both directions; the SQL
cross compiler rewrites them into the CDW's ``TO_DATE(x, fmt)`` call, which
the CDW expression evaluator implements on top of the same machinery.
"""

from __future__ import annotations

import datetime as _dt
import functools
import re
from decimal import Decimal, InvalidOperation

from repro.errors import ExpressionError

__all__ = [
    "Date",
    "Timestamp",
    "Decimal",
    "parse_date",
    "format_date",
    "parse_timestamp",
    "parse_decimal",
    "date_format_tokens",
    "DEFAULT_DATE_FORMAT",
]

Date = _dt.date
Timestamp = _dt.datetime

DEFAULT_DATE_FORMAT = "YYYY-MM-DD"

_MONTH_ABBREVS = [
    "JAN", "FEB", "MAR", "APR", "MAY", "JUN",
    "JUL", "AUG", "SEP", "OCT", "NOV", "DEC",
]

# Longest-match-first so that YYYY wins over YY and MMM over MM.
_FORMAT_ATOMS = ("YYYY", "MMM", "YY", "MM", "DD")


@functools.lru_cache(maxsize=256)
def date_format_tokens(fmt: str) -> tuple[str, ...]:
    """Split a legacy date format string into atoms and literal separators.

    Cached: bulk loads parse millions of values with a handful of
    distinct formats.

    >>> date_format_tokens('YYYY-MM-DD')
    ('YYYY', '-', 'MM', '-', 'DD')
    """
    tokens: list[str] = []
    i = 0
    upper = fmt.upper()
    while i < len(upper):
        for atom in _FORMAT_ATOMS:
            if upper.startswith(atom, i):
                tokens.append(atom)
                i += len(atom)
                break
        else:
            tokens.append(fmt[i])
            i += 1
    return tuple(tokens)


def _atom_regex(atom: str) -> str:
    if atom == "YYYY":
        return r"(?P<year>\d{4})"
    if atom == "YY":
        return r"(?P<year2>\d{2})"
    if atom == "MM":
        return r"(?P<month>\d{1,2})"
    if atom == "MMM":
        return r"(?P<monthname>[A-Za-z]{3})"
    if atom == "DD":
        return r"(?P<day>\d{1,2})"
    return re.escape(atom)


@functools.lru_cache(maxsize=256)
def _format_regex(fmt: str) -> "re.Pattern[str]":
    """The compiled pattern for one format string (cached like
    :func:`date_format_tokens` — bulk loads reuse a handful of formats
    across millions of values)."""
    return re.compile(
        "".join(_atom_regex(a) for a in date_format_tokens(fmt)))


def parse_date(text: str, fmt: str = DEFAULT_DATE_FORMAT,
               field: str | None = None) -> Date:
    """Parse ``text`` according to a legacy format string.

    Raises :class:`ExpressionError` when the text does not match — this is
    the error that, during the application phase, becomes a row in the
    transformation error table (code 3103 in Figure 6).
    """
    try:
        regex = _format_regex(fmt)
    except re.error as exc:          # e.g. a repeated YYYY atom
        raise ExpressionError(f"bad date format {fmt!r}: {exc}",
                              field=field) from exc
    match = regex.fullmatch(text.strip())
    if match is None:
        raise ExpressionError(
            f"DATE conversion failed: {text!r} does not match format {fmt!r}",
            field=field,
        )
    groups = match.groupdict()
    if groups.get("year") is not None:
        year = int(groups["year"])
    elif groups.get("year2") is not None:
        two = int(groups["year2"])
        # Legacy century window: 00-49 -> 2000s, 50-99 -> 1900s.
        year = 2000 + two if two < 50 else 1900 + two
    else:
        raise ExpressionError(f"format {fmt!r} has no year atom", field=field)
    if groups.get("month") is not None:
        month = int(groups["month"])
    elif groups.get("monthname") is not None:
        name = groups["monthname"].upper()
        if name not in _MONTH_ABBREVS:
            raise ExpressionError(
                f"DATE conversion failed: unknown month {name!r}", field=field)
        month = _MONTH_ABBREVS.index(name) + 1
    else:
        raise ExpressionError(f"format {fmt!r} has no month atom", field=field)
    day = int(groups["day"]) if groups.get("day") is not None else 1
    try:
        return _dt.date(year, month, day)
    except ValueError as exc:
        raise ExpressionError(
            f"DATE conversion failed: {text!r}: {exc}", field=field) from exc


def format_date(value: Date, fmt: str = DEFAULT_DATE_FORMAT) -> str:
    """Render a date using a legacy format string."""
    parts: list[str] = []
    for atom in date_format_tokens(fmt):
        if atom == "YYYY":
            parts.append(f"{value.year:04d}")
        elif atom == "YY":
            parts.append(f"{value.year % 100:02d}")
        elif atom == "MM":
            parts.append(f"{value.month:02d}")
        elif atom == "MMM":
            parts.append(_MONTH_ABBREVS[value.month - 1].title())
        elif atom == "DD":
            parts.append(f"{value.day:02d}")
        else:
            parts.append(atom)
    return "".join(parts)


_TS_RE = re.compile(
    r"(\d{4})-(\d{1,2})-(\d{1,2})[ T](\d{1,2}):(\d{2}):(\d{2})(?:\.(\d{1,6}))?"
)


def parse_timestamp(text: str, field: str | None = None) -> Timestamp:
    """Parse an ISO-ish timestamp (``YYYY-MM-DD HH:MM:SS[.ffffff]``)."""
    match = _TS_RE.fullmatch(text.strip())
    if match is None:
        raise ExpressionError(
            f"TIMESTAMP conversion failed: {text!r}", field=field)
    year, month, day, hour, minute, sec = (int(g) for g in match.groups()[:6])
    frac = match.group(7)
    micros = int(frac.ljust(6, "0")) if frac else 0
    try:
        return _dt.datetime(year, month, day, hour, minute, sec, micros)
    except ValueError as exc:
        raise ExpressionError(
            f"TIMESTAMP conversion failed: {text!r}: {exc}",
            field=field) from exc


def parse_decimal(text: str, field: str | None = None) -> Decimal:
    """Parse a decimal literal, mapping failures to :class:`ExpressionError`."""
    try:
        return Decimal(text.strip())
    except InvalidOperation as exc:
        raise ExpressionError(
            f"DECIMAL conversion failed: {text!r}", field=field) from exc
