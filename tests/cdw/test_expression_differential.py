"""Vector vs scalar expression closures: the contract behind the fallback.

The engine runs a statement over column batches with ``compile_vector``
closures and, if one raises, re-runs it row by row with ``compile_expr``
closures.  That is only sound if the two agree: whenever a vector
closure returns, the scalar closure must give the same value on every
row of the batch and raise on none.  These tests check it directly on
seeded random trees over every node kind, evaluated over NULL-heavy
rows, instead of only through engine statements.
"""

import datetime
import random
from decimal import Decimal

import pytest

from repro.cdw.expressions import (_FUNCTIONS, ColumnBatch, Frame,
                                   GatherBatch, RowContext, compile_expr,
                                   compile_vector, prepare_layout,
                                   vec_values)
from repro.cdw.table import CdwTable, ColumnSpec
from repro.cdw.types import CdwType
from repro.errors import CdwError, ExpressionError, SqlTranslationError
from repro.sqlxc import nodes as n

COLUMNS = (
    ("I", CdwType("INT")),
    ("J", CdwType("BIGINT")),
    ("D", CdwType("DOUBLE")),
    ("M", CdwType("DECIMAL", 10, 2)),
    ("S", CdwType("NVARCHAR", 12)),
    ("B", CdwType("BOOLEAN")),
    ("DT", CdwType("DATE")),
    ("TS", CdwType("TIMESTAMP")),
)

STRINGS = ("ab", "ab  ", "", "a%", "A_c", "12", " 7 ", "2020-01-02",
           "x.y", "inf", "nan", "(", "true", "01/02/2020")
INTS = (0, 1, -1, 2, 3, 7, 12, 100)
FLOATS = (0.0, 0.5, -1.5, 2.0, 12.25)
DECIMALS = (Decimal("0.00"), Decimal("1.25"), Decimal("-3.50"),
            Decimal("2"))
DATES = (datetime.date(2020, 1, 2), datetime.date(1999, 12, 31))
#: midnight of a DATES entry compares equal to it after promotion.
TIMESTAMPS = (datetime.datetime(2020, 1, 2), datetime.datetime(2020, 1, 2, 9),
              datetime.datetime(1999, 12, 31, 23, 59, 59))

CAST_TYPES = (
    n.TypeName("INT", dialect="cdw"),
    n.TypeName("BIGINT", dialect="cdw"),
    n.TypeName("DOUBLE", dialect="cdw"),
    n.TypeName("DECIMAL", 8, 2, dialect="cdw"),
    n.TypeName("NVARCHAR", 6, dialect="cdw"),
    n.TypeName("CHAR", 4, dialect="cdw"),
    n.TypeName("DATE", dialect="cdw"),
    n.TypeName("TIMESTAMP", dialect="cdw"),
    n.TypeName("BOOLEAN", dialect="cdw"),
)
DATE_FORMATS = ("YYYY-MM-DD", "MM/DD/YYYY", "YYYY", "DD.MM.YY",
                "YYYYYYYY", "MMM")

#: function name -> the argument counts to generate.
ARITIES = {name: (1,) for name in _FUNCTIONS}
ARITIES.update({
    "SUBSTR": (2, 3), "SUBSTRING": (2, 3), "STRPOS": (2,), "INDEX": (2,),
    "COALESCE": (1, 2, 3), "NULLIF": (2,), "MOD": (2,), "ROUND": (1, 2),
    "TO_DATE": (1, 2), "TO_TIMESTAMP": (1,), "EXTRACT": (2,),
    "CONCAT": (1, 2, 3), "REGEXP_LIKE": (2,),
})
EXTRACT_PARTS = ("YEAR", "MONTH", "DAY", "HOUR", "DOW", "DOY", "WEEK")


def _random_value(rng, name):
    if rng.random() < 0.3:
        return None
    if name in ("I", "J"):
        return rng.choice(INTS)
    if name == "D":
        return rng.choice(FLOATS)
    if name == "M":
        return rng.choice(DECIMALS)
    if name == "S":
        return rng.choice(STRINGS)
    if name == "B":
        return rng.random() < 0.5
    if name == "TS":
        return rng.choice(TIMESTAMPS)
    return rng.choice(DATES)


def _literal(rng):
    pool = rng.choice((INTS, FLOATS, DECIMALS, STRINGS, DATES,
                       TIMESTAMPS, (None, True, False)))
    return n.Literal(rng.choice(pool))


def _subquery(rng):
    """A SELECT that :func:`_runner` answers with one row per item."""
    return n.Select([n.SelectItem(_literal(rng))
                     for _ in range(rng.randrange(0, 3))])


def _runner(select, ctx):
    return [(item.expr.value,) for item in select.items]


def _scalar_only(rng):
    """A node the vector compiler declines; the scalar closure runs it
    (subqueries through :func:`_runner`) or raises a typed error."""
    roll = rng.randrange(6)
    if roll == 0:
        return n.HostParam("P")
    if roll == 1:
        return n.Star()
    if roll == 2:
        return n.FuncCall("FROBNICATE", [_literal(rng)])
    if roll == 3:
        return n.Exists(_subquery(rng), negated=rng.random() < 0.5)
    if roll == 4:
        return n.SubqueryExpr(_subquery(rng))
    return n.InExpr(_literal(rng), subquery=_subquery(rng),
                    negated=rng.random() < 0.5)


def _column(rng):
    return n.ColumnRef(rng.choice(COLUMNS)[0],
                       table="T" if rng.random() < 0.2 else None)


def _leaf(rng):
    roll = rng.random()
    if roll < 0.55:
        return _column(rng)
    if roll < 0.9:
        return _literal(rng)
    if roll < 0.97:
        return n.BoundParam("P", rng.choice(INTS + STRINGS + (None,)))
    return _scalar_only(rng)


def _expr(rng, depth=0):
    """A random expression over every node kind."""
    if depth >= 3 or rng.random() < 0.25:
        return _leaf(rng)

    def sub():
        return _expr(rng, depth + 1)

    kind = rng.randrange(12)
    if kind == 0:
        return n.UnaryOp(rng.choice(("NOT", "-", "+")), sub())
    if kind == 1:
        return n.BinaryOp(rng.choice(("AND", "OR")), sub(), sub())
    if kind == 2:
        left, right = sub(), sub()
        if rng.random() < 0.5:      # column <op> literal: the fast loops
            left, right = _column(rng), _literal(rng)
            if rng.random() < 0.5:
                left, right = right, left
        return n.BinaryOp(rng.choice(("=", "<>", "<", "<=", ">", ">=")),
                          left, right)
    if kind == 3:
        return n.BinaryOp(rng.choice(("+", "-", "*", "/", "%", "||")),
                          sub(), sub())
    if kind == 4:
        return n.IsNull(sub(), negated=rng.random() < 0.5)
    if kind == 5:
        if rng.random() < 0.5:      # column BETWEEN int literals
            low = rng.choice(INTS)
            return n.Between(_column(rng), n.Literal(low),
                             n.Literal(low + rng.randrange(0, 8)),
                             negated=rng.random() < 0.3)
        return n.Between(sub(), sub(), sub(), negated=rng.random() < 0.3)
    if kind == 6:
        if rng.random() < 0.5:       # all-literal list: the set probe
            items = [n.Literal(rng.choice(
                (INTS if rng.random() < 0.5 else STRINGS) + (None,)))
                for _ in range(rng.randrange(1, 5))]
        else:
            items = [sub() for _ in range(rng.randrange(1, 4))]
        return n.InExpr(sub(), items, negated=rng.random() < 0.3)
    if kind == 7:
        pattern = n.Literal(rng.choice(("a%", "%b", "_b%", "%", "12")))
        return n.Like(sub(), pattern if rng.random() < 0.7 else sub(),
                      negated=rng.random() < 0.3)
    if kind == 8:
        type_name = rng.choice(CAST_TYPES)
        fmt = None
        if type_name.base == "DATE" and rng.random() < 0.3:
            fmt = rng.choice(DATE_FORMATS)
        return n.Cast(sub(), type_name, fmt)
    if kind == 9:
        whens = [n.WhenClause(sub(), sub())
                 for _ in range(rng.randrange(1, 3))]
        return n.CaseExpr(whens, sub() if rng.random() < 0.6 else None)
    name = rng.choice(sorted(ARITIES))
    args = [sub() for _ in range(rng.choice(ARITIES[name]))]
    if name == "EXTRACT" and rng.random() < 0.8:
        args[0] = n.Literal(rng.choice(EXTRACT_PARTS))
    if name == "TO_DATE" and len(args) == 2 and rng.random() < 0.7:
        args[1] = n.Literal(rng.choice(DATE_FORMATS))
    return n.FuncCall(name, args)


def _table(rng, nrows):
    table = CdwTable("T", [ColumnSpec(name, ctype)
                           for name, ctype in COLUMNS], columnar=True)
    table.append_rows([tuple(_random_value(rng, name)
                             for name, _ in COLUMNS)
                       for _ in range(nrows)])
    return table


def _same(a, b) -> bool:
    """Identical SQL values: same type and equal (NaN equals NaN)."""
    if type(a) is not type(b):
        return False
    return a == b or (a != a and b != b)


#: the only exceptions either compiler may raise from a closure.
TYPED = (ExpressionError, SqlTranslationError)


def _scalar_rows(scalar, table, rows):
    """The scalar closure per row: its value, or the typed error it
    raised.  Any other exception fails the test."""
    out = []
    frame = Frame(None, _runner)
    for row in rows:
        frame.ctx = ctx = RowContext()
        ctx.bind("T", table.column_names, row)
        try:
            out.append(scalar(frame))
        except TYPED as exc:
            out.append(exc)
    return out


def _check(expr, table, rows, sel):
    layout = prepare_layout(table.column_names)
    vector = compile_vector(expr, layout, "T")
    batch = ColumnBatch(table, 0, len(rows))
    if sel is not None:
        batch = GatherBatch(batch, sel)
        rows = [rows[i] for i in sel]
    expected = _scalar_rows(compile_expr(expr), table, rows)
    if vector is None:
        return "unsupported"
    try:
        got = vec_values(vector(batch), batch.length)
    except TYPED:
        return "vector raised"
    assert len(got) == len(rows)
    for row, scalar_value, vector_value in zip(rows, expected, got):
        assert not isinstance(scalar_value, Exception), \
            f"scalar raised {scalar_value!r} on {row} after the " \
            f"vector closure returned: {expr}"
        assert _same(scalar_value, vector_value), (expr, row)
    return "agreed"


@pytest.mark.parametrize("seed", range(24))
def test_vector_result_implies_identical_scalar_rows(seed):
    rng = random.Random(seed)
    table = _table(rng, 40)
    rows = table.materialized_rows()
    outcomes = {"agreed": 0, "vector raised": 0, "unsupported": 0}
    for _ in range(250):
        expr = _expr(rng)
        sel = None
        if rng.random() < 0.3:
            sel = sorted(rng.sample(range(len(rows)), 15))
        outcomes[_check(expr, table, rows, sel)] += 1
    # The generator must exercise both outcomes, or the check is vacuous.
    assert outcomes["agreed"] > 50, outcomes
    assert outcomes["vector raised"] > 10, outcomes


@pytest.mark.parametrize("expr", [
    n.HostParam("X"),
    n.Star(),
    n.FuncCall("FROBNICATE", [n.Literal(1)]),
    n.FuncCall("UPPER", []),
    n.ColumnRef("NOPE"),
    n.ColumnRef("I", table="OTHER"),
    n.Exists(n.Select([n.SelectItem(n.Literal(1))])),
    n.SubqueryExpr(n.Select([n.SelectItem(n.Literal(1))])),
    n.InExpr(n.Literal(1), subquery=n.Select([n.SelectItem(n.Literal(1))])),
    n.Cast(n.Literal(1), n.TypeName("NOSUCHTYPE")),
])
def test_unsupported_nodes_leave_the_vector_path(expr):
    """What the vector compiler cannot run it declines (None); the
    scalar closure then owns the outcome and raises a typed error."""
    table = _table(random.Random(0), 3)
    assert compile_vector(expr, prepare_layout(table.column_names),
                          "T") is None
    ctx = RowContext()
    ctx.bind("T", table.column_names, table.materialized_rows()[0])
    with pytest.raises(CdwError):
        compile_expr(expr)(Frame(ctx, None))


_MIXED_DATES = (
    n.ColumnRef("DT"),
    n.ColumnRef("TS"),
    n.FuncCall("COALESCE", [n.ColumnRef("DT"), n.ColumnRef("TS")]),
    n.CaseExpr([n.WhenClause(n.ColumnRef("B"), n.ColumnRef("DT"))],
               n.ColumnRef("TS")),
    n.FuncCall("COALESCE", [n.ColumnRef("DT"), n.ColumnRef("S")]),
    n.FuncCall("COALESCE", [n.ColumnRef("DT"), n.ColumnRef("I")]),
)


@pytest.mark.parametrize("op", ("=", "<>", "<", "<=", ">", ">="))
@pytest.mark.parametrize("constant", DATES + TIMESTAMPS[:1])
def test_date_constant_compare_mixes(op, constant):
    """``vector <op> DATE`` and ``DATE <op> vector`` over columns that
    mix dates, timestamps (promoted to midnight), NULLs and values that
    cannot compare with a date."""
    rng = random.Random(7)
    table = _table(rng, 40)
    rows = table.materialized_rows()
    outcomes = set()
    for operand in _MIXED_DATES:
        for left, right in ((operand, n.Literal(constant)),
                            (n.Literal(constant), operand)):
            for sel in (None, list(range(0, 40, 3))):
                outcomes.add(_check(n.BinaryOp(op, left, right),
                                    table, rows, sel))
    assert "agreed" in outcomes


def test_date_column_against_date_constant_skips_align(monkeypatch):
    """A DATE column against a DATE constant compares values directly;
    only the timestamps of a mixed vector go through ``_compare``."""
    from repro.cdw import expressions

    calls = []
    real = expressions._compare

    def counting(op, left, right):
        calls.append((left, right))
        return real(op, left, right)

    monkeypatch.setattr(expressions, "_compare", counting)
    table = _table(random.Random(3), 40)
    rows = table.materialized_rows()
    cutoff = n.Literal(datetime.date(2000, 1, 1))
    assert _check(n.BinaryOp(">=", n.ColumnRef("DT"), cutoff),
                  table, rows, None) == "agreed"
    assert _check(n.BinaryOp("<", cutoff, n.ColumnRef("DT")),
                  table, rows, None) == "agreed"
    calls.clear()
    layout = prepare_layout(table.column_names)
    for expr in (n.BinaryOp(">=", n.ColumnRef("DT"), cutoff),
                 n.BinaryOp("<", cutoff, n.ColumnRef("DT"))):
        vec_values(compile_vector(expr, layout, "T")(
            ColumnBatch(table, 0, len(rows))), len(rows))
    assert calls == []
    mixed = n.CaseExpr([n.WhenClause(n.ColumnRef("B"), n.ColumnRef("DT"))],
                       n.ColumnRef("TS"))
    vec_values(compile_vector(n.BinaryOp(">=", mixed, cutoff), layout, "T")(
        ColumnBatch(table, 0, len(rows))), len(rows))
    assert calls
    assert all(type(left) is datetime.datetime for left, _ in calls)
