"""Tests for the scalar expression evaluator."""

import datetime
import gc
from decimal import Decimal

import pytest

from repro.cdw.engine import CdwEngine
from repro.cdw.expressions import RowContext, evaluate, is_true
from repro.errors import ExpressionError
from repro.sqlxc import nodes as n
from repro.sqlxc.parser import parse_expression, parse_statement
from repro.sqlxc.rewrites import bind_params_to_values


def ev(sql: str, dialect: str = "cdw", **columns):
    ctx = RowContext()
    if columns:
        names = list(columns)
        ctx.bind("t", names, tuple(columns[c] for c in names))
    return evaluate(parse_expression(sql, dialect), ctx)


class TestArithmetic:
    def test_basics(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("10 - 4") == 6
        assert ev("2 * 2.5") == Decimal("5.0")

    def test_integer_division_truncates(self):
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3  # truncation toward zero

    def test_float_division(self):
        assert ev("7.0 / 2") == Decimal("3.5")

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            ev("1 / 0")

    def test_modulo(self):
        assert ev("7 % 3") == 1

    def test_null_propagates(self):
        assert ev("1 + NULL") is None
        assert ev("NULL * 2") is None

    def test_unary_minus(self):
        assert ev("-(2 + 3)") == -5

    def test_non_numeric_operand_raises(self):
        with pytest.raises(ExpressionError):
            ev("'a' + 1")


class TestComparisons:
    def test_basic(self):
        assert ev("1 < 2") is True
        assert ev("2 <= 2") is True
        assert ev("3 <> 4") is True
        assert ev("3 = 3") is True

    def test_null_is_unknown(self):
        assert ev("1 = NULL") is None
        assert ev("NULL <> NULL") is None

    def test_char_padding_ignored(self):
        assert ev("'ab  ' = 'ab'") is True

    def test_decimal_vs_float(self):
        assert ev("1.5 = a", a=1.5) is True

    def test_date_vs_timestamp(self):
        ctx_value = datetime.datetime(2020, 1, 2, 0, 0)
        assert ev("d = DATE '2020-01-02'", d=ctx_value) is True

    def test_incomparable_types_raise(self):
        with pytest.raises(ExpressionError):
            ev("a < 1", a="text")


class TestLogic:
    def test_three_valued_and(self):
        assert ev("TRUE AND NULL") is None
        assert ev("FALSE AND NULL") is False
        assert ev("NULL AND FALSE") is False

    def test_three_valued_or(self):
        assert ev("TRUE OR NULL") is True
        assert ev("NULL OR FALSE") is None

    def test_not_null(self):
        assert ev("NOT NULL") is None

    def test_is_true_filter(self):
        assert is_true(True)
        assert not is_true(None)
        assert not is_true(False)


class TestPredicates:
    def test_is_null(self):
        assert ev("a IS NULL", a=None) is True
        assert ev("a IS NOT NULL", a=None) is False

    def test_between(self):
        assert ev("5 BETWEEN 1 AND 10") is True
        assert ev("5 NOT BETWEEN 1 AND 10") is False
        assert ev("NULL BETWEEN 1 AND 2") is None

    def test_like(self):
        assert ev("'hello' LIKE 'h%'") is True
        assert ev("'hello' LIKE 'h_llo'") is True
        assert ev("'hello' NOT LIKE 'x%'") is True
        assert ev("'h.x' LIKE 'h.x'") is True
        assert ev("'hax' LIKE 'h.x'") is False  # dot is literal

    def test_in_list(self):
        assert ev("2 IN (1, 2, 3)") is True
        assert ev("9 IN (1, 2, 3)") is False
        assert ev("9 IN (1, NULL)") is None  # unknown, not false
        assert ev("2 NOT IN (1, 3)") is True


class TestStrings:
    def test_concat(self):
        assert ev("'a' || 'b' || 'c'") == "abc"
        assert ev("'a' || NULL") is None

    def test_concat_coerces(self):
        assert ev("'v=' || 5") == "v=5"

    def test_trim_family(self):
        assert ev("TRIM('  x  ')") == "x"
        assert ev("LTRIM('  x')") == "x"
        assert ev("RTRIM('x  ')") == "x"

    def test_case_functions(self):
        assert ev("UPPER('ab')") == "AB"
        assert ev("LOWER('AB')") == "ab"

    def test_length(self):
        assert ev("LENGTH('abc')") == 3

    def test_substr(self):
        assert ev("SUBSTR('hello', 2, 3)") == "ell"
        assert ev("SUBSTR('hello', 2)") == "ello"
        assert ev("SUBSTRING('hello' FROM 2 FOR 3)") == "ell"

    def test_strpos(self):
        assert ev("STRPOS('hello', 'll')") == 3
        assert ev("STRPOS('hello', 'z')") == 0


class TestNullFunctions:
    def test_coalesce(self):
        assert ev("COALESCE(NULL, NULL, 3)") == 3
        assert ev("COALESCE(NULL, NULL)") is None

    def test_nullif(self):
        assert ev("NULLIF(1, 1)") is None
        assert ev("NULLIF(1, 2)") == 1

    def test_zeroifnull_legacy(self):
        assert ev("ZEROIFNULL(a)", dialect="legacy", a=None) == 0

    def test_nullifzero_legacy(self):
        assert ev("NULLIFZERO(a)", dialect="legacy", a=0) is None


class TestConversions:
    def test_cast_basic(self):
        assert ev("CAST('42' AS INT)") == 42

    def test_cast_null(self):
        assert ev("CAST(NULL AS INT)") is None

    def test_format_cast_legacy(self):
        value = ev("CAST('12/31/1999' AS DATE FORMAT 'MM/DD/YYYY')",
                   dialect="legacy")
        assert value == datetime.date(1999, 12, 31)

    def test_to_date_with_format(self):
        assert ev("TO_DATE('31.12.1999', 'DD.MM.YYYY')") == \
            datetime.date(1999, 12, 31)

    def test_to_date_default_format(self):
        assert ev("TO_DATE('2020-01-02')") == datetime.date(2020, 1, 2)

    def test_cast_failure_attributes_column(self):
        with pytest.raises(ExpressionError) as info:
            ev("CAST(d AS DATE)", d="junk")
        assert info.value.field == "d"

    def test_to_date_failure_attributes_column(self):
        with pytest.raises(ExpressionError) as info:
            ev("TO_DATE(d, 'YYYY-MM-DD')", d="junk")
        assert info.value.field == "d"


class TestCase:
    def test_searched(self):
        assert ev("CASE WHEN a > 1 THEN 'big' ELSE 'small' END", a=5) \
            == "big"

    def test_no_match_no_else(self):
        assert ev("CASE WHEN a > 1 THEN 'big' END", a=0) is None


class TestContext:
    def test_qualified_resolution(self):
        ctx = RowContext()
        ctx.bind("a", ["X"], (1,))
        ctx.bind("b", ["X"], (2,))
        assert evaluate(parse_expression("a.X"), ctx) == 1
        assert evaluate(parse_expression("b.X"), ctx) == 2

    def test_ambiguous_unqualified_raises(self):
        ctx = RowContext()
        ctx.bind("a", ["X"], (1,))
        ctx.bind("b", ["X"], (2,))
        with pytest.raises(ExpressionError):
            evaluate(parse_expression("X"), ctx)

    def test_parent_lookup(self):
        outer = RowContext()
        outer.bind("o", ["Y"], (9,))
        inner = RowContext(parent=outer)
        inner.bind("i", ["X"], (1,))
        assert evaluate(parse_expression("Y"), inner) == 9

    def test_unknown_column_raises(self):
        with pytest.raises(ExpressionError):
            ev("nope")

    def test_unknown_function_raises(self):
        with pytest.raises(ExpressionError):
            ev("FROBNICATE(1)")

    def test_unbound_host_param_raises(self):
        with pytest.raises(ExpressionError):
            ev(":X", dialect="legacy")


class TestFunctionArguments:
    """Bad scalar-function arguments: NULL gives NULL, anything else
    raises ExpressionError naming the input field — never a bare
    TypeError/ValueError/re.error the engine's handlers would miss."""

    @pytest.mark.parametrize("sql", [
        "SUBSTR('abc', NULL)", "SUBSTR('abc', 1, NULL)",
        "SUBSTR(NULL, 1)", "ROUND(1.5, NULL)", "ROUND(NULL, 1)",
        "MOD(NULL, 2)", "MOD(7, NULL)", "REGEXP_LIKE('a', NULL)",
    ])
    def test_null_argument_gives_null(self, sql):
        assert ev(sql) is None

    @pytest.mark.parametrize("sql", [
        "MOD('%d', 5)", "MOD('a', 2)", "MOD(2, 'a')",
        "SUBSTR('abc', 'x')", "SUBSTR('abc', 1, 'x')", "SUBSTR(5, 1)",
        "ROUND(1.5, 'x')", "ROUND('x', 1)", "REGEXP_LIKE('a', '(')",
        "TO_DATE('2020', 'YYYYYYYY')", "FLOOR(CAST('inf' AS DOUBLE))",
        "CAST(CAST('inf' AS DOUBLE) AS INT)", "CAST('nan' AS DECIMAL(8,2))",
        "UPPER('a', 'b')", "SUBSTR('abc')",
    ])
    def test_bad_argument_raises_expression_error(self, sql):
        with pytest.raises(ExpressionError):
            ev(sql)

    def test_mod_keeps_numeric_semantics(self):
        assert ev("MOD(7, 3)") == 1
        assert ev("MOD(7.5, 2)") == Decimal("1.5")

    def test_error_names_the_field(self):
        with pytest.raises(ExpressionError) as info:
            ev("SUBSTR(s, 'x')", s="abc")
        assert info.value.field == "s"
        with pytest.raises(ExpressionError) as info:
            ev("REGEXP_LIKE('abc', s)", s="(")
        assert info.value.field == "s"

    @pytest.fixture
    def engine(self):
        engine = CdwEngine()
        engine.execute("CREATE TABLE T (S NVARCHAR(10), N INT)")
        engine.execute("INSERT INTO T VALUES ('abc', 1)")
        return engine

    def test_through_the_engine(self, engine):
        assert engine.query("SELECT SUBSTR('abc', NULL)") == [(None,)]
        for sql in ("SELECT MOD('%d', 5)", "SELECT ROUND(1.5, 'x')",
                    "SELECT REGEXP_LIKE('a', '(')"):
            with pytest.raises(ExpressionError):
                engine.query(sql)

    def test_vector_path_null_position(self, engine):
        """Column-batch execution: the NULL position is NULL per row
        instead of a TypeError escaping the row-path fallback."""
        assert engine.query(
            "SELECT S FROM T WHERE SUBSTR(S, NULL) IS NULL") == [("abc",)]
        with pytest.raises(ExpressionError) as info:
            engine.query("SELECT MOD(S, 2) FROM T")
        assert info.value.field == "S"


class TestErrorsAtEvaluationTime:
    """Compiling never raises: an error belongs to the row that
    evaluates the failing node."""

    def test_unknown_function_in_untaken_case_arm(self):
        assert ev("CASE WHEN a > 1 THEN 'big' ELSE FROBNICATE(a) END",
                  a=5) == "big"
        with pytest.raises(ExpressionError):
            ev("CASE WHEN a > 1 THEN 'big' ELSE FROBNICATE(a) END", a=0)

    def test_host_param_in_untaken_case_arm(self):
        assert ev("CASE WHEN a > 1 THEN 1 ELSE :X END", dialect="legacy",
                  a=5) == 1
        with pytest.raises(ExpressionError):
            ev("CASE WHEN a > 1 THEN 1 ELSE :X END", dialect="legacy", a=0)

    def test_short_circuit_skips_failing_operand(self):
        assert ev("a > 1 OR FROBNICATE(a) = 1", a=5) is True
        assert ev("a > 1 AND FROBNICATE(a) = 1", a=0) is False

    def test_star_outside_select_list_raises(self):
        with pytest.raises(ExpressionError):
            evaluate(n.Star(), RowContext())
        with pytest.raises(ExpressionError):
            evaluate(n.BinaryOp("+", n.Literal(1), n.Star()), RowContext())

    def test_unknown_node_raises(self):
        with pytest.raises(ExpressionError):
            evaluate(n.WhenClause(n.Literal(True), n.Literal(1)),
                     RowContext())

    def test_statements_compile_without_rows(self):
        engine = CdwEngine()
        engine.execute("CREATE TABLE T (I INT)")
        assert engine.query("SELECT FROBNICATE(I) FROM T") == []
        engine.execute("INSERT INTO T VALUES (1)")
        with pytest.raises(ExpressionError):
            engine.query("SELECT FROBNICATE(I) FROM T")

    def test_scalar_subquery_with_several_rows_raises(self):
        engine = CdwEngine()
        engine.execute("CREATE TABLE T (I INT)")
        engine.execute("INSERT INTO T VALUES (1)")
        assert engine.query("SELECT (SELECT I FROM T) FROM T") == [(1,)]
        engine.execute("INSERT INTO T VALUES (2)")
        with pytest.raises(ExpressionError, match="several rows"):
            engine.query("SELECT (SELECT I FROM T) FROM T")


def _garbage_after(run, times=50) -> int:
    """Objects the cycle collector finds after ``run`` ran ``times``."""
    run(0)                     # warm caches outside the measurement
    gc.collect()
    gc.disable()
    try:
        for i in range(times):
            run(i)
        return gc.collect()
    finally:
        gc.enable()


def test_per_record_trees_leave_no_garbage():
    """The legacy server binds a fresh tree per record; evaluating it —
    one-shot or through an engine statement, row or vector path — must
    not leave node <-> closure reference cycles behind."""
    template = parse_expression(
        "CASE WHEN TRIM(:K) = 'a' THEN CAST(:V AS INT) "
        "ELSE LENGTH(:K) END", "legacy")
    ctx = RowContext()
    assert _garbage_after(lambda i: evaluate(
        bind_params_to_values(template, {"K": "a", "V": str(i)}),
        ctx)) == 0

    engine = CdwEngine()
    engine.execute("CREATE TABLE T (K VARCHAR(8), V INT)")
    statements = [parse_statement(sql, dialect="legacy") for sql in (
        "insert into T values (trim(:K), :V)",
        "update T set V = :V + 1 where K = trim(:K)",
        "delete from T where K = :K and V > 100")]
    assert _garbage_after(lambda i: [
        engine.execute(bind_params_to_values(s, {"K": "a", "V": i}))
        for s in statements]) == 0
