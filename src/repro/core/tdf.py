"""TDF — Tabular Data Format (Section 3).

"TDF is an internal binary data message representation designed to be an
extensible format that can handle arbitrarily large nested data."  Packets
carry a batch of rows; values are tag-prefixed so the format is
self-describing and nests arbitrarily (LIST/STRUCT).

Packet layout (little-endian)::

    4s   magic "TDF1"
    u32  chunk number
    u32  row count
    u16  column count
    per column: u16 name length + UTF-8 name
    per row:    one LIST value holding the column values

Value encoding: ``u8`` tag followed by the tag-specific payload.

The codec does its per-value work without interpretive dispatch, since
every exported value passes through it twice (TDFCursor encode, PXC
decode).  Encoding looks a value's exact type up in a table; only
subclasses and unknown types walk the ordered ``isinstance`` chain.
Decoding reads each tag from the ``bytes`` in one loop per LIST, and
the row loop inlines the common scalar tags (str, int, NULL, DATE,
FLOAT).  Errors are the ones a per-value walker raises: ``TdfError`` for
truncation, unknown tags and trailing bytes, and the underlying
``struct``/codec/``datetime`` error where the payload itself is bad.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass
from decimal import Decimal

from repro import values
from repro.errors import TdfError

__all__ = ["TdfPacket", "encode_packet", "decode_packet",
           "encode_value", "decode_value"]

_MAGIC = b"TDF1"

_T_NULL = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT = 3
_T_STR = 4
_T_BYTES = 5
_T_DATE = 6
_T_TIMESTAMP = 7
_T_DECIMAL = 8
_T_LIST = 9
_T_STRUCT = 10

_Date = values.Date
_EPOCH = _Date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_MAX_ORDINAL = _Date.max.toordinal()
_fromordinal = _Date.fromordinal

_HEADER = struct.Struct("<IIH")
_U16 = struct.Struct("<H")

# Encoders pack the tag and its fixed-width payload in one call.
_pack_tag_u16 = struct.Struct("<BH").pack
_pack_tag_u32 = struct.Struct("<BI").pack
_pack_tag_i32 = struct.Struct("<Bi").pack
_pack_tag_i64 = struct.Struct("<Bq").pack
_pack_tag_f64 = struct.Struct("<Bd").pack
_pack_tag_timestamp = struct.Struct("<BHBBBBBI").pack
_pack_u16 = _U16.pack
_unpack_u16 = _U16.unpack_from
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_i32 = struct.Struct("<i").unpack_from
_unpack_i64 = struct.Struct("<q").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from
_unpack_timestamp = struct.Struct("<HBBBBBI").unpack_from

#: detail of a tag read past the end of the packet: the text a
#: ``memoryview`` index error gives, which the format's errors carry.
_TRUNCATED_TAG = "index out of bounds on dimension 1"


@dataclass
class TdfPacket:
    """One decoded TDF packet: a chunk of a result set."""

    chunk_no: int
    columns: list[str]
    rows: list[tuple]


# -- encoding ------------------------------------------------------------------


def _encode_null(value, out: bytearray) -> None:
    out.append(_T_NULL)


def _encode_bool(value, out: bytearray) -> None:
    out.append(_T_BOOL)
    out.append(1 if value else 0)


def _encode_int(value, out: bytearray) -> None:
    out += _pack_tag_i64(_T_INT, value)


def _encode_float(value, out: bytearray) -> None:
    out += _pack_tag_f64(_T_FLOAT, value)


def _encode_str(value, out: bytearray) -> None:
    raw = value.encode("utf-8")
    out += _pack_tag_u32(_T_STR, len(raw))
    out += raw


def _encode_bytes(value, out: bytearray) -> None:
    out += _pack_tag_u32(_T_BYTES, len(value))
    out += value


def _encode_timestamp(value, out: bytearray) -> None:
    # Component-wise encoding avoids timezone/epoch pitfalls.
    out += _pack_tag_timestamp(
        _T_TIMESTAMP, value.year, value.month, value.day,
        value.hour, value.minute, value.second, value.microsecond)


def _encode_date(value, out: bytearray) -> None:
    out += _pack_tag_i32(_T_DATE, value.toordinal() - _EPOCH_ORDINAL)


def _encode_decimal(value, out: bytearray) -> None:
    raw = str(value).encode("ascii")
    out += _pack_tag_u16(_T_DECIMAL, len(raw))
    out += raw


def _encode_list(items, out: bytearray) -> None:
    """Append ``items`` as one LIST value (a packet row is one)."""
    out += _pack_tag_u32(_T_LIST, len(items))
    for value in items:
        kind = type(value)
        if kind is str:
            raw = value.encode("utf-8")
            out += _pack_tag_u32(_T_STR, len(raw))
            out += raw
        elif kind is int:
            out += _pack_tag_i64(_T_INT, value)
        elif value is None:
            out.append(_T_NULL)
        elif kind is _Date:
            out += _pack_tag_i32(_T_DATE, value.toordinal() - _EPOCH_ORDINAL)
        elif kind is float:
            out += _pack_tag_f64(_T_FLOAT, value)
        else:
            _ENCODERS.get(kind, _encode_subclass)(value, out)


def _encode_struct(value, out: bytearray) -> None:
    out += _pack_tag_u32(_T_STRUCT, len(value))
    for key, item in value.items():
        raw = str(key).encode("utf-8")
        out += _pack_u16(len(raw))
        out += raw
        _ENCODERS.get(type(item), _encode_subclass)(item, out)


#: encoder per exact value type.  In this order it is also the
#: ``isinstance`` chain for subclasses: Timestamp precedes Date because
#: datetime subclasses date.
_ENCODERS = {
    type(None): _encode_null,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    values.Timestamp: _encode_timestamp,
    values.Date: _encode_date,
    Decimal: _encode_decimal,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_struct,
}


def _encode_subclass(value, out: bytearray) -> None:
    for kind, encode in _ENCODERS.items():
        if isinstance(value, kind):
            encode(value, out)
            return
    raise TdfError(f"cannot TDF-encode {type(value).__name__}")


def encode_value(value, out: bytearray) -> None:
    """Append one tagged value."""
    _ENCODERS.get(type(value), _encode_subclass)(value, out)


def encode_packet(chunk_no: int, columns: list[str],
                  rows: list[tuple]) -> bytes:
    """Encode one result chunk as a TDF packet."""
    out = bytearray(_MAGIC)
    out += _HEADER.pack(chunk_no, len(rows), len(columns))
    for name in columns:
        raw = name.encode("utf-8")
        out += _pack_u16(len(raw))
        out += raw
    for row in rows:
        if type(row) is not tuple and type(row) is not list:
            row = list(row)
        _encode_list(row, out)
    return bytes(out)


# -- decoding ------------------------------------------------------------------


def _date_out_of_range(days: int):
    """Raise what ``_EPOCH + timedelta(days=days)`` raises."""
    return _EPOCH + datetime.timedelta(days=days)


def _decode_items(data: bytes, pos: int, count: int) -> tuple[list, int]:
    """Decode ``count`` consecutive values at ``pos``.

    Returns (values, new position).  A short payload raises
    ``struct.error`` or ``IndexError``; :func:`_truncated` turns those
    into ``TdfError`` at the public entry points.
    """
    items: list = []
    append = items.append
    end = len(data)
    for _ in range(count):
        tag = data[pos]
        pos += 1
        if tag == _T_STR:
            (length,) = _unpack_u32(data, pos)
            start = pos + 4
            pos = start + length
            if pos > end:
                raise TdfError("truncated string payload")
            append(data[start:pos].decode())
        elif tag == _T_INT:
            append(_unpack_i64(data, pos)[0])
            pos += 8
        elif tag == _T_NULL:
            append(None)
        elif tag == _T_DATE:
            (days,) = _unpack_i32(data, pos)
            ordinal = _EPOCH_ORDINAL + days
            append(_fromordinal(ordinal) if 0 < ordinal <= _MAX_ORDINAL
                   else _date_out_of_range(days))
            pos += 4
        elif tag == _T_FLOAT:
            append(_unpack_f64(data, pos)[0])
            pos += 8
        elif tag == _T_LIST:
            (length,) = _unpack_u32(data, pos)
            value, pos = _decode_items(data, pos + 4, length)
            append(value)
        elif tag == _T_BOOL:
            append(bool(data[pos]))
            pos += 1
        elif tag == _T_BYTES:
            (length,) = _unpack_u32(data, pos)
            start = pos + 4
            pos = start + length
            if pos > end:
                raise TdfError("truncated string payload")
            append(data[start:pos])
        elif tag == _T_TIMESTAMP:
            append(values.Timestamp(*_unpack_timestamp(data, pos)))
            pos += 11
        elif tag == _T_DECIMAL:
            (length,) = _unpack_u16(data, pos)
            start = pos + 2
            pos = start + length
            append(Decimal(data[start:pos].decode("ascii")))
        elif tag == _T_STRUCT:
            (length,) = _unpack_u32(data, pos)
            pos += 4
            struct_value: dict = {}
            for _ in range(length):
                (name_len,) = _unpack_u16(data, pos)
                start = pos + 2
                pos = start + name_len
                name = data[start:pos].decode()
                (item,), pos = _decode_items(data, pos, 1)
                struct_value[name] = item
            append(struct_value)
        else:
            raise TdfError(f"unknown TDF tag {tag}")
    return items, pos


def _truncated(exc: Exception) -> TdfError:
    detail = _TRUNCATED_TAG if isinstance(exc, IndexError) else exc
    return TdfError(f"truncated TDF value: {detail}")


def decode_value(data: "bytes | memoryview",
                 pos: int) -> tuple[object, int]:
    """Decode one tagged value; returns (value, new position)."""
    if type(data) is not bytes:
        data = bytes(data)
    try:
        (value,), pos = _decode_items(data, pos, 1)
    except (struct.error, IndexError) as exc:
        raise _truncated(exc) from exc
    return value, pos


def decode_packet(data: bytes) -> TdfPacket:
    """Decode a TDF packet back into rows (the PXC's "unwrap" step)."""
    if type(data) is not bytes:
        data = bytes(data)
    if data[:4] != _MAGIC:
        raise TdfError("bad TDF magic")
    try:
        chunk_no, row_count, col_count = _HEADER.unpack_from(data, 4)
    except struct.error as exc:
        raise TdfError("truncated TDF header") from exc
    pos = 4 + 10
    columns: list[str] = []
    for _ in range(col_count):
        try:
            (name_len,) = _unpack_u16(data, pos)
        except struct.error as exc:
            raise TdfError("truncated TDF column header") from exc
        columns.append(data[pos + 2:pos + 2 + name_len].decode())
        pos += 2 + name_len
    rows: list[tuple] = []
    append = rows.append
    try:
        for _ in range(row_count):
            if data[pos] != _T_LIST:
                # A malformed non-LIST row reports its own error first.
                _decode_items(data, pos, 1)
                raise TdfError("TDF row is not a LIST value")
            (length,) = _unpack_u32(data, pos + 1)
            row, pos = _decode_items(data, pos + 5, length)
            append(tuple(row))
    except (struct.error, IndexError) as exc:
        raise _truncated(exc) from exc
    if pos != len(data):
        raise TdfError(f"{len(data) - pos} trailing bytes in TDF packet")
    return TdfPacket(chunk_no, columns, rows)
