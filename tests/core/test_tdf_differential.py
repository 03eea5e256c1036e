"""Differential suite: the TDF codec against the reference walker.

``repro.core.tdf`` encodes with a type-indexed table and decodes with
one tag loop per LIST; ``tests.core.tdf_oracle`` is the per-value
recursive walker that defines the format.  Over seeded random packets
the two must produce identical bytes, equal rows, and the same
exception type and message for every truncated, corrupted, bad-tag,
trailing-byte or unencodable input.
"""

from __future__ import annotations

import collections
import datetime
import enum
import random
from decimal import Decimal

import pytest

from repro.core import tdf
from tests.core import tdf_oracle as oracle

SEEDS = range(12)


class _Color(enum.IntEnum):
    RED = 1
    BLUE = -7


class _Text(str):
    pass


class _Stamp(datetime.datetime):
    pass


class _Day(datetime.date):
    pass


class _Real(float):
    pass


_Pair = collections.namedtuple("_Pair", "a b")

_TEXT = ["", "plain", "é", "naïve café", "日本語テキスト", "emoji 🎉",
         "tab\tnew\nline", "\x00nul", "ß" * 40]


def _scalar(rng: random.Random):
    pick = rng.randrange(14)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.choice([0, 1, -1, 2**63 - 1, -2**63,
                           rng.randrange(-2**63, 2**63)])
    if pick == 3:
        return rng.choice([0.0, -0.0, 1.5, -2.25e300, float("inf"),
                           float("-inf"), float("nan"), rng.random()])
    if pick == 4:
        return rng.choice(_TEXT) + str(rng.randrange(1000))
    if pick == 5:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(9)))
    if pick == 6:
        return rng.choice([datetime.date(1970, 1, 1), datetime.date.min,
                           datetime.date.max, datetime.date(1899, 12, 31),
                           datetime.date.fromordinal(
                               rng.randrange(1, 3_652_059))])
    if pick == 7:
        return datetime.datetime(
            rng.randrange(1, 10_000), rng.randrange(1, 13),
            rng.randrange(1, 29), rng.randrange(24), rng.randrange(60),
            rng.randrange(60), rng.randrange(1_000_000))
    if pick == 8:
        return rng.choice([Decimal("12.34"), Decimal("-0.001"),
                           Decimal("1E+5"), Decimal("-0"),
                           Decimal("NaN"), Decimal("Infinity"),
                           Decimal(rng.randrange(-10**20, 10**20))
                           .scaleb(-rng.randrange(8))])
    if pick == 9:
        return bytearray(b"\x01\xff")
    if pick == 10:
        return rng.choice([_Color.RED, _Color.BLUE])
    if pick == 11:
        return _Text("sub-" + rng.choice(_TEXT))
    if pick == 12:
        return rng.choice([_Stamp(2001, 2, 3, 4, 5, 6, 7),
                           _Day(1999, 12, 31), _Real(2.5)])
    return rng.randrange(-1000, 1000)


def _value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth < 3 and roll < 0.08:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if depth < 3 and roll < 0.12:
        return tuple(_value(rng, depth + 1)
                     for _ in range(rng.randrange(3)))
    if depth < 3 and roll < 0.17:
        keys = rng.sample(["k", "name", "ключ", "", "7", "a.b"],
                          rng.randrange(4))
        return {key: _value(rng, depth + 1) for key in keys}
    if depth < 3 and roll < 0.19:
        return collections.OrderedDict(a=_value(rng, depth + 1), b=None)
    return _scalar(rng)


def _packet(rng: random.Random):
    """(chunk_no, columns, rows) for one random packet."""
    width = rng.randrange(1, 7)
    columns = [rng.choice(["ID", "NAME", "JOIN_DATE", "名前", "c"]) + str(i)
               for i in range(width)]
    rows = []
    for _ in range(rng.randrange(0, 12)):
        row = [_value(rng) for _ in range(width)]
        rows.append(_Pair(*row[:2]) if width == 2 and rng.random() < 0.2
                    else tuple(row) if rng.random() < 0.8 else row)
    return rng.randrange(2**32), columns, rows


def _outcome(fn, *args):
    """What a call did: ("ok", repr(result)) or ("raise", type, text)."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return ("raise", type(exc), str(exc))
    if isinstance(result, tdf.TdfPacket):
        result = (result.chunk_no, result.columns, result.rows)
    return ("ok", repr(result))


def _assert_same_decode(data: bytes) -> None:
    assert _outcome(tdf.decode_packet, data) == \
        _outcome(oracle.decode_packet, data), data


def _corpus(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return [_packet(rng) for _ in range(15)]


@pytest.mark.parametrize("seed", SEEDS)
def test_identical_bytes_and_rows(seed):
    for chunk_no, columns, rows in _corpus(seed):
        new = tdf.encode_packet(chunk_no, columns, rows)
        assert new == oracle.encode_packet(chunk_no, columns, rows)
        decoded = tdf.decode_packet(new)
        expected = oracle.decode_packet(new)
        assert decoded.chunk_no == expected.chunk_no == chunk_no
        assert decoded.columns == expected.columns == columns
        assert repr(decoded.rows) == repr(expected.rows)
        assert all(type(row) is tuple for row in decoded.rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_single_values_match(seed):
    rng = random.Random(1000 + seed)
    for _ in range(60):
        value = _value(rng)
        new, old = bytearray(), bytearray()
        tdf.encode_value(value, new)
        oracle.encode_value(value, old)
        assert new == old
        padded = b"\x00\x00" + bytes(new) + b"\xee"
        for data in (padded, memoryview(padded)):
            assert _outcome(tdf.decode_value, data, 2) == \
                _outcome(oracle.decode_value, memoryview(padded), 2)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_every_truncation_fails_alike(seed):
    for chunk_no, columns, rows in _corpus(seed)[:6]:
        data = tdf.encode_packet(chunk_no, columns, rows)
        for cut in range(len(data)):
            _assert_same_decode(data[:cut])


@pytest.mark.parametrize("seed", SEEDS)
def test_trailing_bytes_fail_alike(seed):
    rng = random.Random(2000 + seed)
    for chunk_no, columns, rows in _corpus(seed):
        data = tdf.encode_packet(chunk_no, columns, rows)
        for extra in (b"\x00", b"\x09\x00", bytes(rng.randrange(256)
                                                for _ in range(5))):
            _assert_same_decode(data + extra)


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupted_bytes_fail_alike(seed):
    """Random byte flips hit tags, lengths, payloads and the header."""
    rng = random.Random(3000 + seed)
    for chunk_no, columns, rows in _corpus(seed):
        data = tdf.encode_packet(chunk_no, columns, rows)
        for _ in range(40):
            corrupt = bytearray(data)
            for _ in range(rng.randrange(1, 4)):
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
            _assert_same_decode(bytes(corrupt))


@pytest.mark.parametrize("seed", SEEDS)
def test_bad_tags_fail_alike(seed):
    """Rewrite one value tag to an unknown or different known tag."""
    rng = random.Random(4000 + seed)
    for chunk_no, columns, rows in _corpus(seed):
        if not rows:
            continue
        data = tdf.encode_packet(chunk_no, columns, rows)
        header = tdf.encode_packet(chunk_no, columns, [])
        for _ in range(20):
            corrupt = bytearray(data)
            # The first row's LIST tag sits right after the header.
            at = rng.choice([len(header), len(header) + 5,
                             rng.randrange(len(header), len(data))])
            corrupt[at] = rng.choice([11, 12, 99, 255,
                                      rng.randrange(11)])
            _assert_same_decode(bytes(corrupt))


def test_header_errors_fail_alike():
    data = tdf.encode_packet(3, ["A", "名前"], [(1, "x")])
    for bad in (b"", b"TDF", b"NOPE" + data[4:], data[:9], data[:14],
                data[:15], data[:17], b"TDF1" + b"\xff" * 10,
                data[:14] + b"\x05\x00\xff\xfe"):
        _assert_same_decode(bad)


def test_bad_payloads_fail_alike():
    """Payloads that parse but are invalid raise the underlying error."""
    def packet(value_bytes: bytes) -> bytes:
        return (tdf.encode_packet(0, ["A"], [])[:8] + b"\x01\x00\x00\x00"
                + tdf.encode_packet(0, ["A"], [])[12:]
                + b"\x09\x01\x00\x00\x00" + value_bytes)

    cases = [
        b"\x04\x02\x00\x00\x00\xff\xfe",            # invalid UTF-8
        b"\x06\xff\xff\xff\x7f",                    # DATE overflow
        b"\x06\x00\x00\x00\x80",                    # DATE underflow
        b"\x06" + (3_000_000).to_bytes(4, "little"),  # DATE past max
        b"\x07\xd0\x07\x0d\x01\x00\x00\x00\x00\x00\x00\x00",  # month 13
        b"\x08\x03\x00abc",                         # DECIMAL syntax
        b"\x08\x02\x00\xc3\xa9",                    # DECIMAL non-ASCII
        b"\x08\x09\x00123",                         # DECIMAL overrun
        b"\x0a\x01\x00\x00\x00\x02\x00\xff\xfe\x00",  # STRUCT bad name
        b"\x0a\x01\x00\x00\x00\x09\x00ab",          # STRUCT name overrun
        b"\x05\x09\x00\x00\x00abc",                 # BYTES overrun
        b"\x01",                                    # BOOL truncated
        b"\x0b",                                    # unknown tag
    ]
    for case in cases:
        _assert_same_decode(packet(case))
    # A row that is not a LIST value, well-formed or not.
    header = tdf.encode_packet(0, ["A"], [])
    one_row = header[:8] + b"\x01\x00\x00\x00" + header[12:]
    for row in (b"\x02" + bytes(8), b"\x0a\x00\x00\x00\x00", b"\x00",
                b"\x63", b"\x04\x05\x00\x00\x00ab"):
        _assert_same_decode(one_row + row)


@pytest.mark.parametrize("value", [
    2**63, -2**63 - 1, 10**30, [1, 2**64], {"k": -2**70},
    object(), {1, 2}, frozenset(), 1j, memoryview(b"x"), range(3),
    [1, object()], {"k": [None, {"n": set()}]},
    Decimal("1" * 70_000),
])
def test_unencodable_values_fail_alike(value):
    for rows in ([(value,)], [(1, "ok"), ("x", value)]):
        assert _outcome(tdf.encode_packet, 0, ["A", "B"], rows) == \
            _outcome(oracle.encode_packet, 0, ["A", "B"], rows)
    new, old = bytearray(), bytearray()
    assert _outcome(tdf.encode_value, value, new) == \
        _outcome(oracle.encode_value, value, old)


def test_int64_overflow_still_raises():
    with pytest.raises(Exception) as new:
        tdf.encode_packet(0, ["A"], [(2**63,)])
    with pytest.raises(Exception) as old:
        oracle.encode_packet(0, ["A"], [(2**63,)])
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)


def test_header_encode_errors_fail_alike():
    for args in ((-1, ["A"], []), (2**32, ["A"], []),
                 (0, [1], []), (0, ["x" * 70_000], [])):
        assert _outcome(tdf.encode_packet, *args) == \
            _outcome(oracle.encode_packet, *args)


def test_non_sequence_rows_encode_alike():
    rows = [iter([1, 2]), "ab", {"k": 1, "j": 2}, _Pair(1, None)]
    fresh = [[1, 2], "ab", {"k": 1, "j": 2}, _Pair(1, None)]
    assert tdf.encode_packet(0, ["A", "B"], rows) == \
        oracle.encode_packet(0, ["A", "B"], fresh)
