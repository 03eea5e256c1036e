"""Compiled row codecs for the legacy wire formats.

:mod:`repro.legacy.datafmt` decodes records with per-field ``if/elif``
dispatch — correct, but the DataConverter pays that interpreter overhead
for every field of every record of every chunk.  This module compiles a
:class:`~repro.legacy.types.Layout` once into specialized encode/decode
closures, the way push-down translators cache per-shape plans:

- **BINARY** — consecutive fixed-width fields are fused into a single
  precomputed :class:`struct.Struct` run, split only at variable-length
  fields (character/DECIMAL/TIMESTAMP payloads).  A record whose null
  bitmap is all zeroes and whose layout is entirely fixed-width decodes
  with one ``unpack_from`` call.
- **VARTEXT** — a line with no backslash escapes splits with
  ``str.split`` instead of the character-at-a-time escape scanner, and
  the encoder only runs the escape replacements when a precompiled
  regex says the rendered text needs them.

Error semantics are byte-identical to the reference implementations by
construction: the fast paths handle the well-formed cases, and *any*
surprise (truncation, bad value, unexpected Python type, arity
mismatch) falls back to the reference code path for that one record, so
the reference classes remain the behavioural oracle.  The equivalence
suite in ``tests/legacy/test_codec_equivalence.py`` holds the two
implementations byte-identical, errors included.
"""

from __future__ import annotations

import datetime as _dt
import functools
import re
import struct
from decimal import Decimal
from typing import Iterable, Iterator

from repro import values
from repro.errors import DataFormatError
from repro.legacy.datafmt import (
    _DATE_EPOCH_BASE,
    LEGACY_FIELD_COUNT_ERROR,
    BinaryFormat,
    FormatSpec,
    VartextFormat,
)
from repro.legacy.types import Layout

__all__ = [
    "CompiledVartextFormat",
    "CompiledBinaryFormat",
    "compile_format",
]


class _Slow(Exception):
    """Internal signal: bail out of a fast path to the reference oracle."""


@functools.lru_cache(maxsize=None)
def _struct(fmt: str) -> struct.Struct:
    """Shared Struct instances — one per distinct format string."""
    return struct.Struct(fmt)


_S_H = _struct("<H")

#: fixed-width struct code and size per binary base type.
_FIXED_CODES = {
    "BYTEINT": ("b", 1),
    "SMALLINT": ("h", 2),
    "INTEGER": ("i", 4),
    "BIGINT": ("q", 8),
    "FLOAT": ("d", 8),
    "DATE": ("i", 4),
}


def compile_format(spec: FormatSpec, layout: Layout):
    """Compile the encoder/decoder named by ``spec`` for ``layout``."""
    if spec.kind == "vartext":
        return CompiledVartextFormat(layout, delimiter=spec.delimiter)
    if spec.kind == "binary":
        return CompiledBinaryFormat(layout)
    raise DataFormatError(f"unknown record format {spec.kind!r}")


# ---------------------------------------------------------------------------
# VARTEXT


class CompiledVartextFormat(VartextFormat):
    """VartextFormat with precompiled render/split fast paths."""

    def __init__(self, layout: Layout, delimiter: str = "|"):
        super().__init__(layout, delimiter)
        self._arity = layout.arity
        # Characters whose presence forces the escape replacements.
        self._esc_search = re.compile(
            "[\\\\\n%s]" % re.escape(delimiter)).search

    # -- encoding ----------------------------------------------------------

    def _fast_text(self, row: tuple) -> str:
        if len(row) != self._arity:
            raise _Slow
        delimiter = self.delimiter
        search = self._esc_search
        parts: list[str] = []
        append = parts.append
        for value in row:
            if value is None:
                append("")
                continue
            kind = type(value)
            if kind is str:
                text = value
            elif kind is int or kind is float or kind is Decimal:
                text = str(value)
            elif kind is _dt.date:
                text = f"{value.year:04d}-{value.month:02d}-{value.day:02d}"
            elif kind is _dt.datetime:
                text = value.isoformat(sep=" ")
            else:
                # bool, value subclasses, unsupported types: let the
                # reference dispatch (and its errors) decide.
                raise _Slow
            if search(text) is not None:
                text = (text.replace("\\", "\\\\")
                        .replace(delimiter, "\\" + delimiter)
                        .replace("\n", "\\n"))
            append(text)
        return delimiter.join(parts) + "\n"

    def encode_record(self, row: tuple) -> bytes:
        try:
            return self._fast_text(row).encode("utf-8")
        except Exception:
            return VartextFormat.encode_record(self, row)

    def encode_records(self, rows: Iterable[tuple]) -> bytes:
        texts: list[str] = []
        append = texts.append
        fast = self._fast_text
        for row in rows:
            try:
                append(fast(row))
            except Exception:
                append(VartextFormat.encode_record(self, row).decode("utf-8"))
        return "".join(texts).encode("utf-8")

    # -- decoding ----------------------------------------------------------

    def iter_decode(self, data: bytes) -> Iterator[tuple | DataFormatError]:
        text = data.decode("utf-8")
        arity = self._arity
        delimiter = self.delimiter
        layout_name = self.layout.name
        split_escaped = self._split_line
        for line in text.split("\n"):
            if not line:
                continue
            if "\\" in line:
                fields = split_escaped(line)
                if len(fields) != arity:
                    yield DataFormatError(
                        f"record has {len(fields)} fields, layout "
                        f"{layout_name!r} expects {arity}",
                        code=LEGACY_FIELD_COUNT_ERROR)
                    continue
                yield tuple(fields)
                continue
            parts = line.split(delimiter)
            if len(parts) != arity:
                yield DataFormatError(
                    f"record has {len(parts)} fields, layout "
                    f"{layout_name!r} expects {arity}",
                    code=LEGACY_FIELD_COUNT_ERROR)
                continue
            if "" in parts:
                yield tuple([p or None for p in parts])
            else:
                yield tuple(parts)


# ---------------------------------------------------------------------------
# BINARY


def _make_fixed_decoder(code: str, width: int, post):
    unpack_from = _struct("<" + code).unpack_from
    if post is None:
        def decode(data, pos, end):
            nxt = pos + width
            if nxt > end:
                raise _Slow
            return unpack_from(data, pos)[0], nxt
    else:
        def decode(data, pos, end):
            nxt = pos + width
            if nxt > end:
                raise _Slow
            return post(unpack_from(data, pos)[0]), nxt
    return decode


def _date_from_epoch(encoded: int) -> _dt.date:
    year = encoded // 10000 + _DATE_EPOCH_BASE
    month = (encoded // 100) % 100
    day = encoded % 100
    return _dt.date(year, month, day)


def _make_var_decoder(base: str, name: str):
    unpack_h = _S_H.unpack_from
    if base == "DECIMAL":
        parse = values.parse_decimal
    elif base == "TIMESTAMP":
        parse = values.parse_timestamp
    else:
        parse = None

    def decode(data, pos, end):
        if pos + 2 > end:
            raise _Slow
        length = unpack_h(data, pos)[0]
        nxt = pos + 2 + length
        if nxt > end:
            raise _Slow
        text = data[pos + 2:nxt].decode("utf-8")
        if parse is not None:
            return parse(text, field=name), nxt
        return text, nxt

    return decode


def _make_char_encoder():
    pack = _S_H.pack

    def encode(value):
        raw = str(value).encode("utf-8")
        return pack(len(raw)) + raw

    return encode


def _make_text_encoder(base: str):
    pack = _S_H.pack
    if base == "DECIMAL":
        def encode(value):
            raw = str(value).encode("ascii")
            return pack(len(raw)) + raw
    else:  # TIMESTAMP
        def encode(value):
            raw = value.isoformat(sep=" ").encode("ascii")
            return pack(len(raw)) + raw
    return encode


def _date_to_epoch(value) -> int:
    return ((value.year - _DATE_EPOCH_BASE) * 10000
            + value.month * 100 + value.day)


def _make_fixed_encoder(code: str, is_date: bool):
    pack = _struct("<" + code).pack
    if is_date:
        def encode(value):
            return pack(_date_to_epoch(value))
    else:
        def encode(value):
            return pack(value)
    return encode


class CompiledBinaryFormat(BinaryFormat):
    """BinaryFormat with fused fixed-width struct runs.

    The layout is compiled into *segments*: maximal runs of consecutive
    fixed-width fields (packed/unpacked with one Struct call when none
    of the run's fields is NULL) interleaved with variable-length field
    closures.  An entirely fixed-width layout additionally gets a
    whole-record Struct used whenever the null bitmap is zero.
    """

    def __init__(self, layout: Layout):
        super().__init__(layout)
        self._arity = layout.arity
        self._compile()

    def _compile(self) -> None:
        dsegments: list[tuple] = []
        esegments: list[tuple] = []
        run: list[tuple] = []  # (index, code, width, is_date, name)

        def flush_run() -> None:
            if not run:
                return
            mask = 0
            codes = []
            posts = []
            dec_fields = []
            enc_fields = []
            indices = []
            datepos = []
            for offset, (i, code, width, is_date, name) in enumerate(run):
                mask |= 1 << i
                codes.append(code)
                post = _date_from_epoch if is_date else None
                posts.append(post)
                dec_fields.append(
                    (i, _make_fixed_decoder(code, width, post)))
                enc_fields.append((i, _make_fixed_encoder(code, is_date)))
                indices.append(i)
                if is_date:
                    datepos.append(offset)
            fused = _struct("<" + "".join(codes))
            posts_t = tuple(posts) if datepos else None
            dsegments.append((0, mask, fused.unpack_from, fused.size,
                              posts_t, tuple(dec_fields)))
            esegments.append((0, tuple(indices), fused.pack,
                              tuple(datepos), tuple(enc_fields)))
            run.clear()

        for i, fld in enumerate(self.layout.fields):
            ftype = fld.type
            if ftype.is_character or ftype.base in ("DECIMAL", "TIMESTAMP"):
                flush_run()
                if ftype.is_character:
                    # Tag 3: plain length-prefixed text, inlined in the
                    # decode loop (no per-field closure call).
                    dsegments.append((3, i))
                    esegments.append((1, i, _make_char_encoder()))
                else:
                    dsegments.append(
                        (1, i, _make_var_decoder(ftype.base, fld.name)))
                    esegments.append((1, i, _make_text_encoder(ftype.base)))
            elif ftype.base in _FIXED_CODES:
                code, width = _FIXED_CODES[ftype.base]
                run.append((i, code, width, ftype.base == "DATE", fld.name))
            else:
                # No binary codec for this base; the reference raises the
                # "no binary encoding/decoding" error per record.
                flush_run()
                dsegments.append((2,))
                esegments.append((2,))
        flush_run()

        self._dsegments = tuple(dsegments)
        self._esegments = tuple(esegments)
        self._decode_zero = self._gen_decode_zero(dsegments)
        self._encode_zero = self._gen_encode_zero(dsegments, esegments)

        # Whole-record fast path: a single fused run covering every field.
        self._whole = None
        if len(dsegments) == 1 and dsegments[0][0] == 0:
            _, _, unpack_from, size, posts_t, _ = dsegments[0]
            self._whole = (unpack_from, size, posts_t)

    @staticmethod
    def _gen_decode_zero(dsegments: list[tuple]):
        """exec-compile a straight-line decoder for the no-NULLs case.

        With a zero null bitmap every field is present, so the byte walk
        is fully determined by the layout; generating it as one flat
        function removes the segment loop and the per-row result list.
        Any shortfall (truncation, trailing bytes, unsupported base)
        raises ``_Slow`` and the caller falls back.
        """
        src = ["def _decode_zero(data, cursor, end):"]
        env = {"_Slow": _Slow, "_uh": _S_H.unpack_from}
        names: list[str] = []
        for k, seg in enumerate(dsegments):
            tag = seg[0]
            if tag == 0:
                _, _, unpack_from, size, posts, fields = seg
                unpack = f"_u{k}"
                env[unpack] = unpack_from
                run = [f"v{i}" for i, _ in fields]
                src += [f"    nxt = cursor + {size}",
                        "    if nxt > end: raise _Slow",
                        f"    {', '.join(run)}"
                        f"{',' if len(run) == 1 else ''}"
                        f" = {unpack}(data, cursor)",
                        "    cursor = nxt"]
                if posts is not None:
                    for (i, _), post in zip(fields, posts):
                        if post is not None:
                            env[f"_p{i}"] = post
                            src.append(f"    v{i} = _p{i}(v{i})")
                names += run
            elif tag == 3:
                i = seg[1]
                src += ["    nxt = cursor + 2",
                        "    if nxt > end: raise _Slow",
                        "    nxt += _uh(data, cursor)[0]",
                        "    if nxt > end: raise _Slow",
                        f"    v{i} = data[cursor + 2:nxt].decode('utf-8')",
                        "    cursor = nxt"]
                names.append(f"v{i}")
            elif tag == 1:
                _, i, decode = seg
                env[f"_d{i}"] = decode
                src.append(f"    v{i}, cursor = _d{i}(data, cursor, end)")
                names.append(f"v{i}")
            else:
                src.append("    raise _Slow")
        src.append("    if cursor != end: raise _Slow")
        src.append(f"    return ({', '.join(names)}"
                   f"{',' if len(names) == 1 else ''})")
        exec("\n".join(src), env)
        return env["_decode_zero"]

    def _gen_encode_zero(self, dsegments: list[tuple],
                         esegments: list[tuple]):
        """exec-compile a straight-line encoder for the no-NULLs case.

        With no NULL the bitmap is all zeroes and every field is
        present, so the record is fully determined by the layout: one
        fused pack per fixed-width run and an inlined UTF-8 encode per
        character field, joined once.  The per-field operations are the
        segment encoders'; anything unusual raises and the caller falls
        back to the reference encoder for that row.
        """
        src = ["def _encode_zero(row):"]
        env = {"_Slow": _Slow, "_h": _S_H.pack, "_de": _date_to_epoch,
               "_zb": bytes(self._bitmap_len)}
        if self._arity:
            names = [f"v{i}" for i in range(self._arity)]
            src.append(f"    {', '.join(names)}, = row")
        fixed = self._bitmap_len
        lengths: list[str] = []
        parts = ["_zb"]
        for k, seg in enumerate(esegments):
            tag = seg[0]
            if tag == 0:
                _, indices, pack, datepos, _ = seg
                env[f"_p{k}"] = pack
                args = [f"_de(v{i})" if j in datepos else f"v{i}"
                        for j, i in enumerate(indices)]
                src.append(f"    f{k} = _p{k}({', '.join(args)})")
                fixed += dsegments[k][3]
                parts.append(f"f{k}")
            elif tag == 1:
                _, i, encode = seg
                if self.layout.fields[i].type.is_character:
                    src.append(f"    r{i} = str(v{i}).encode('utf-8')")
                    parts += [f"_h(len(r{i}))", f"r{i}"]
                    fixed += 2
                else:
                    env[f"_e{i}"] = encode
                    src.append(f"    r{i} = _e{i}(v{i})")
                    parts.append(f"r{i}")
                lengths.append(f"len(r{i})")
            else:
                src.append("    raise _Slow")
        body_len = " + ".join([str(fixed)] + lengths)
        src.append(f"    return b''.join((_h({body_len}), "
                   f"{', '.join(parts)}))")
        exec("\n".join(src), env)
        return env["_encode_zero"]

    # -- decoding ----------------------------------------------------------

    def iter_decode(self, data: bytes) -> Iterator[tuple | DataFormatError]:
        n = len(data)
        pos = 0
        unpack_h = _S_H.unpack_from
        decode_body = self._decode_body
        oracle = BinaryFormat._decode_one
        view = None
        while pos < n:
            if pos + 2 > n:
                yield DataFormatError("truncated record header")
                return
            body_end = pos + 2 + unpack_h(data, pos)[0]
            if body_end > n:
                yield DataFormatError("truncated record body")
                return
            start = pos + 2
            pos = body_end
            try:
                yield decode_body(data, start, body_end)
            except Exception:
                # Reference oracle reproduces the exact error item (or
                # re-raises the exact exception, e.g. ExpressionError).
                if view is None:
                    view = memoryview(data)
                yield oracle(self, view[start:body_end])

    def _decode_body(self, data: bytes, start: int, end: int) -> tuple:
        cursor = start + self._bitmap_len
        if cursor > end:
            raise _Slow
        bitmap = int.from_bytes(data[start:cursor], "little")
        if bitmap == 0:
            if self._whole is not None:
                unpack_from, size, posts = self._whole
                if end - cursor != size:
                    raise _Slow
                vals = unpack_from(data, cursor)
                if posts is None:
                    return vals
                out = list(vals)
                for j, post in enumerate(posts):
                    if post is not None:
                        out[j] = post(out[j])
                return tuple(out)
            return self._decode_zero(data, cursor, end)
        row: list = []
        append = row.append
        unpack_h = _S_H.unpack_from
        for seg in self._dsegments:
            tag = seg[0]
            if tag == 0:
                _, mask, unpack_from, size, posts, fields = seg
                if not (bitmap & mask):
                    nxt = cursor + size
                    if nxt > end:
                        raise _Slow
                    vals = unpack_from(data, cursor)
                    cursor = nxt
                    if posts is None:
                        row += vals
                    else:
                        for v, post in zip(vals, posts):
                            append(post(v) if post is not None else v)
                else:
                    for i, decode in fields:
                        if bitmap >> i & 1:
                            append(None)
                        else:
                            v, cursor = decode(data, cursor, end)
                            append(v)
            elif tag == 3:
                i = seg[1]
                if bitmap >> i & 1:
                    append(None)
                else:
                    nxt = cursor + 2
                    if nxt > end:
                        raise _Slow
                    nxt += unpack_h(data, cursor)[0]
                    if nxt > end:
                        raise _Slow
                    append(data[cursor + 2:nxt].decode("utf-8"))
                    cursor = nxt
            elif tag == 1:
                _, i, decode = seg
                if bitmap >> i & 1:
                    append(None)
                else:
                    v, cursor = decode(data, cursor, end)
                    append(v)
            else:
                # Unsupported base type: reference error path.
                raise _Slow
        if cursor != end:
            raise _Slow
        return tuple(row)

    # -- encoding ----------------------------------------------------------

    def encode_record(self, row: tuple) -> bytes:
        try:
            return self._encode_fast(row)
        except Exception:
            return BinaryFormat.encode_record(self, row)

    def _encode_fast(self, row: tuple) -> bytes:
        if len(row) != self._arity:
            raise _Slow
        if None not in row:
            return self._encode_zero(row)
        bitmap = 0
        parts: list[bytes] = []
        append = parts.append
        for seg in self._esegments:
            tag = seg[0]
            if tag == 0:
                _, indices, pack, datepos, fields = seg
                vals = [row[i] for i in indices]
                if None in vals:
                    for i, encode in fields:
                        value = row[i]
                        if value is None:
                            bitmap |= 1 << i
                        else:
                            append(encode(value))
                else:
                    for j in datepos:
                        vals[j] = _date_to_epoch(vals[j])
                    append(pack(*vals))
            elif tag == 1:
                _, i, encode = seg
                value = row[i]
                if value is None:
                    bitmap |= 1 << i
                else:
                    append(encode(value))
            else:
                raise _Slow
        body_len = self._bitmap_len + sum(map(len, parts))
        return (_S_H.pack(body_len)
                + bitmap.to_bytes(self._bitmap_len, "little")
                + b"".join(parts))

    def encode_records(self, rows: Iterable[tuple]) -> bytes:
        out: list[bytes] = []
        append = out.append
        fast = self._encode_fast
        for row in rows:
            try:
                append(fast(row))
            except Exception:
                append(BinaryFormat.encode_record(self, row))
        return b"".join(out)
