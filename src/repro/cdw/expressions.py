"""Scalar and vector expression evaluation over AST expressions.

Shared by the CDW engine and the reference legacy server: the two systems
agree on expression *semantics* (SQL three-valued logic, NULL propagation,
cast rules) and differ only in statement-level error handling, which lives
in their respective executors.

Both dialects' constructs are understood: legacy ``CAST .. AS DATE
FORMAT 'fmt'`` is evaluated directly (the legacy server executes
un-rewritten SQL) and CDW ``TO_DATE(x, 'fmt')`` uses the same machinery —
by construction the cross-compiled query computes the same value.

Each operator's meaning is written once, as a module function over
already-evaluated operand values: ``_and3``/``_or3``, ``_compare``,
``_between``, ``_in_values``, ``_like``, ``_unary``, ``_arith``,
``_cast_value`` and the ``_FUNCTIONS`` library.  Two compilers fold an
expression tree into closures that call those functions:

* :func:`compile_expr` gives ``fn(frame) -> value`` for one row.  It
  covers every node kind.  AND, OR and CASE short-circuit, and every
  error (unknown function or node, unbound host parameter, ``*`` outside
  a select list, a scalar subquery with several rows) is raised when the
  closure runs, never when it is built.
* :func:`compile_vector` gives ``fn(batch) -> (is_const, payload)`` over
  a column batch.  It evaluates eagerly and returns None for nodes it
  does not support (subqueries, outer references, ...).  When a vector
  closure raises, the engine falls back to the scalar closures, which
  either succeed (they short-circuit rows the eager path touched) or
  raise the canonical first-row error.

:func:`evaluate` is the one-shot entry: compile, call once, keep nothing.
"""

from __future__ import annotations

import math
import operator
import re
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from typing import Callable

from repro import values
from repro.cdw.types import cdw_type_from_node
from repro.errors import ExpressionError, SqlTranslationError, TypeError_
from repro.sqlxc import nodes as n

__all__ = ["Frame", "RowContext", "compile_expr", "compile_vector",
           "evaluate", "is_true"]

#: signature of the hook the engine provides for subquery evaluation.
SubqueryRunner = Callable[[n.Select, "RowContext"], list[tuple]]


#: column-layout -> {UPPER name: index}, memoized across rows.  Scans
#: re-bind the same table layout once per row, so uppercasing the
#: column list (and linear ``list.index`` lookups) per row dominated
#: wide scans; a shared index map makes bind+resolve O(1) dict ops.
_LAYOUT_CACHE: dict[tuple, dict[str, int]] = {}


def prepare_layout(columns: "list[str] | tuple[str, ...]") -> dict[str, int]:
    """The memoized ``{UPPER column: index}`` map for a column layout.

    Duplicate names keep their first index, matching the old
    ``list.index`` semantics.
    """
    key = tuple(columns)
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        layout = {}
        for i, c in enumerate(key):
            layout.setdefault(c.upper(), i)
        _LAYOUT_CACHE[key] = layout
    return layout


class RowContext:
    """Column bindings for one evaluation: binding name -> (columns, row).

    ``bindings`` preserves insertion order; unqualified column lookup
    searches all bindings and raises on ambiguity.
    """

    def __init__(self,
                 bindings: dict[str, tuple[list[str], tuple]] | None = None,
                 parent: "RowContext | None" = None):
        self._bindings: dict[str, tuple[dict[str, int], tuple]] = {}
        self.parent = parent
        for binding, (columns, row) in (bindings or {}).items():
            self.bind(binding, columns, row)

    def bind(self, binding: str, columns: list[str], row: tuple) -> None:
        """Add (or replace) a binding: columns and one row."""
        self._bindings[binding.upper()] = (prepare_layout(columns), row)

    def bind_prepared(self, binding_upper: str, layout: dict[str, int],
                      row: tuple) -> None:
        """Hot-path bind: caller pre-uppercased the name and prepared
        the layout via :func:`prepare_layout` once per source."""
        self._bindings[binding_upper] = (layout, row)

    def resolve(self, name: str, table: str | None = None):
        """Resolve a column reference to its value."""
        upper = name.upper()
        if table is not None:
            entry = self._bindings.get(table.upper())
            if entry is None:
                if self.parent is not None:
                    return self.parent.resolve(name, table)
                raise ExpressionError(
                    f"unknown table or alias {table!r}")
            layout, row = entry
            idx = layout.get(upper)
            if idx is None:
                raise ExpressionError(
                    f"{table}.{name} does not exist", field=name)
            return row[idx]
        matches = []
        for layout, row in self._bindings.values():
            idx = layout.get(upper)
            if idx is not None:
                matches.append(row[idx])
        if len(matches) > 1:
            raise ExpressionError(f"ambiguous column {name!r}", field=name)
        if matches:
            return matches[0]
        if self.parent is not None:
            return self.parent.resolve(name)
        raise ExpressionError(f"unknown column {name!r}", field=name)


def is_true(value) -> bool:
    """SQL WHERE semantics: only TRUE passes (NULL/unknown does not)."""
    return value is True


class Frame:
    """What a scalar closure evaluates against: the current row context
    and the engine's subquery hook.  Row loops rebind ``ctx`` per row."""

    __slots__ = ("ctx", "runner")

    def __init__(self, ctx: "RowContext | None" = None,
                 runner: SubqueryRunner | None = None):
        self.ctx = ctx
        self.runner = runner


def evaluate(expr: n.Expr, ctx: RowContext,
             subquery_runner: SubqueryRunner | None = None):
    """Evaluate a scalar expression once in a row context.

    Compiles without memoizing on the tree, so a caller that binds a
    fresh tree per record leaves nothing behind for the collector.
    """
    return _compile(expr)(Frame(ctx, subquery_runner))


# -- value semantics: one definition per operator ------------------------------

def _to_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, values.Timestamp):
        return value.isoformat(sep=" ")
    if isinstance(value, values.Date):
        return value.isoformat()
    return str(value)


def _numeric(value, what: str):
    if isinstance(value, (int, float, Decimal)) \
            and not isinstance(value, bool):
        return value
    raise ExpressionError(f"{what} needs a numeric operand, got "
                          f"{type(value).__name__}")


def _provenance(*exprs: n.Expr) -> str | None:
    """The first input field the expressions' values came from, if
    traceable."""
    for expr in exprs:
        for node in n.walk(expr):
            if isinstance(node, (n.BoundParam, n.ColumnRef)):
                return node.name
    return None


def _blame(exc: ExpressionError, *nodes: n.Expr) -> None:
    """Name the input field behind ``nodes`` on an error that names
    none."""
    if exc.field is None:
        exc.field = _provenance(*nodes)


def _and3(left, right):
    """Three-valued AND of two evaluated operands."""
    if left is False:
        return False
    if left is None or right is None:
        return False if right is False else None
    return bool(left) and bool(right)


def _or3(left, right):
    """Three-valued OR of two evaluated operands."""
    if left is True:
        return True
    if left is None or right is None:
        return True if right is True else None
    return bool(left) or bool(right)


def _unary(op: str, value):
    """NOT, unary minus and unary plus; NULL stays NULL."""
    if value is None:
        return None
    if op == "NOT":
        return not value
    if op == "-":
        return -_numeric(value, "unary minus")
    return _numeric(value, "unary plus")


def _arith_operands(what: str, left, right):
    """Both operands checked numeric; Decimal wins over int and float."""
    left = _numeric(left, what)
    right = _numeric(right, what)
    if isinstance(left, Decimal) or isinstance(right, Decimal):
        left, right = Decimal(str(left)), Decimal(str(right))
    return left, right


def _arith(op: str, left, right):
    """Arithmetic and ``||`` concatenation; NULL in, NULL out."""
    if left is None or right is None:
        return None
    if op == "||":
        return _to_text(left) + _to_text(right)
    left, right = _arith_operands(op, left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExpressionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return int(left / right)  # SQL integer division
        return left / right
    if op == "%":
        if right == 0:
            raise ExpressionError("division by zero")
        return left % right
    raise ExpressionError(f"unknown operator {op!r}")


def _align(left, right):
    """Align operand types for comparison (CHAR padding, numerics)."""
    if isinstance(left, str) and isinstance(right, str):
        # CHAR semantics: trailing blanks do not affect comparison.
        return left.rstrip(), right.rstrip()
    if isinstance(left, Decimal) and isinstance(right, float):
        return float(left), right
    if isinstance(left, float) and isinstance(right, Decimal):
        return left, float(right)
    if isinstance(left, values.Timestamp) != isinstance(
            right, values.Timestamp) and isinstance(
            left, values.Date) and isinstance(right, values.Date):
        # date vs timestamp: promote the date to midnight.
        if not isinstance(left, values.Timestamp):
            left = values.Timestamp(left.year, left.month, left.day)
        if not isinstance(right, values.Timestamp):
            right = values.Timestamp(right.year, right.month, right.day)
    return left, right


_PY_CMP = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(op: str, left, right):
    """A comparison operator; NULL on either side gives NULL."""
    if left is None or right is None:
        return None
    left, right = _align(left, right)
    try:
        return _PY_CMP[op](left, right)
    except TypeError as exc:
        raise ExpressionError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}") from exc


def _between(value, low, high, negated: bool):
    ge = _compare(">=", value, low)
    le = _compare("<=", value, high)
    if ge is None or le is None:
        return None
    result = ge and le
    return not result if negated else result


def _in_values(value, candidates, negated: bool):
    """IN over evaluated candidates: TRUE on a match, else NULL if any
    candidate is NULL, else FALSE.  A NULL operand gives NULL."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif _compare("=", value, candidate) is True:
            return not negated
    return None if saw_null else negated


def _literal_table(items: list[n.Expr]):
    """Set-lookup table for a homogeneous all-literal IN list.

    Without it a long IN list — e.g. the dq precheck's batched routing
    DELETE — degrades to a linear compare walk per row.  Returns
    ``(members, saw_null, element_type)`` or None when only the generic
    scan applies; strings are stored rstripped to keep CHAR-padding
    equality.
    """
    values_ = [item.value for item in items if type(item) is n.Literal]
    if not items or len(values_) != len(items):
        return None
    non_null = [v for v in values_ if v is not None]
    kinds = {type(v) for v in non_null}
    if kinds <= {int}:
        return frozenset(non_null), len(non_null) < len(values_), int
    if kinds == {str}:
        return (frozenset(v.rstrip() for v in non_null),
                len(non_null) < len(values_), str)
    return None


def _in_table(value, table, candidates: list, negated: bool):
    """:func:`_in_values` over a :func:`_literal_table`'s list: a set
    probe when the operand has the table's element type."""
    members, saw_null, ctype = table
    if value is None or type(value) is not ctype:
        return _in_values(value, candidates, negated)
    if (value.rstrip() if ctype is str else value) in members:
        return not negated
    return None if saw_null else negated


@lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _like(value, pattern, negated: bool):
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise ExpressionError("LIKE needs string operands")
    result = bool(_like_regex(pattern).match(value))
    return not result if negated else result


def _cast_value(value, ctype, fmt, type_base: str):
    """CAST of an evaluated operand; the caller attaches provenance."""
    if value is None:
        return None
    if fmt is not None:
        if ctype.base == "DATE":
            if isinstance(value, values.Date):
                return value
            return values.parse_date(str(value), fmt)
        if ctype.base == "TIMESTAMP":
            if isinstance(value, values.Timestamp):
                return value
            return values.parse_timestamp(str(value))
        raise SqlTranslationError(
            f"FORMAT cast to {type_base} is not supported")
    return ctype.coerce(value)


# -- scalar function library ---------------------------------------------------
#
# Every function takes its evaluated arguments as a list.  A NULL in any
# argument a function cannot ignore gives NULL; a wrong operand type or a
# bad pattern raises ExpressionError, never a bare Python exception.

def _need_str(value, fn: str) -> str:
    if isinstance(value, str):
        return value
    raise ExpressionError(f"{fn} needs a string argument, got "
                          f"{type(value).__name__}")


def _need_int(value, fn: str, rounding=int) -> int:
    """A numeric argument as an int: a position, length or digits, or
    the result of FLOOR/CEIL (``rounding``)."""
    try:
        return int(rounding(_numeric(value, fn)))
    except (ValueError, OverflowError) as exc:     # NaN, infinity
        raise ExpressionError(f"{fn} needs a finite number, got "
                              f"{value!r}") from exc


def _null_passthrough(fn):
    def wrapper(args):
        if args[0] is None:
            return None
        return fn(args)
    return wrapper


def _fn_substr(args):
    if any(v is None for v in args):
        return None
    text = _need_str(args[0], "SUBSTR")
    begin = max(_need_int(args[1], "SUBSTR") - 1, 0)
    if len(args) == 3:
        length = _need_int(args[2], "SUBSTR")
        if length < 0:
            raise ExpressionError("SUBSTR length must be non-negative")
        return text[begin:begin + length]
    return text[begin:]


def _fn_coalesce(args):
    for value in args:
        if value is not None:
            return value
    return None


def _fn_nullif(args):
    a, b = args
    if a is None:
        return None
    if b is not None and a == b:
        return None
    return a


def _fn_to_date(args):
    if args[0] is None:
        return None
    fmt = args[1] if len(args) > 1 and args[1] is not None \
        else values.DEFAULT_DATE_FORMAT
    if isinstance(args[0], values.Date) \
            and not isinstance(args[0], values.Timestamp):
        return args[0]
    if type(fmt) is not str:
        _need_str(fmt, "TO_DATE")
    return values.parse_date(str(args[0]), fmt)


def _fn_to_timestamp(args):
    if args[0] is None:
        return None
    if isinstance(args[0], values.Timestamp):
        return args[0]
    return values.parse_timestamp(str(args[0]))


def _fn_mod(args):
    if args[0] is None or args[1] is None:
        return None
    left, right = _arith_operands("MOD", args[0], args[1])
    if right == 0:
        raise ExpressionError("MOD by zero")
    return left % right


def _fn_extract(args):
    part, value = args[0], args[1]
    if value is None:
        return None
    if not isinstance(value, values.Date):
        raise ExpressionError(
            f"EXTRACT needs a date/timestamp, got "
            f"{type(value).__name__}")
    part = str(part).upper()
    if part == "YEAR":
        return value.year
    if part == "MONTH":
        return value.month
    if part == "DAY":
        return value.day
    if part in ("HOUR", "MINUTE", "SECOND"):
        if not isinstance(value, values.Timestamp):
            return 0
        return {"HOUR": value.hour, "MINUTE": value.minute,
                "SECOND": value.second}[part]
    if part == "DOW":
        return value.isoweekday() % 7  # Sunday = 0
    if part == "DOY":
        return value.timetuple().tm_yday
    raise ExpressionError(f"unknown EXTRACT part {part!r}")


def _fn_round(args):
    if any(v is None for v in args):
        return None
    digits = _need_int(args[1], "ROUND") if len(args) > 1 else 0
    value = _numeric(args[0], "ROUND")
    if isinstance(value, Decimal):
        try:
            return value.quantize(Decimal(1).scaleb(-digits))
        except InvalidOperation as exc:
            raise ExpressionError(
                f"ROUND({value}, {digits}) exceeds DECIMAL "
                f"precision") from exc
    return round(float(value), digits)


def _fn_regexp_like(args):
    # re.search semantics (unanchored); NULL in either argument is NULL,
    # matching the SQL standard's REGEXP_LIKE three-valued behaviour.
    if args[0] is None or args[1] is None:
        return None
    pattern = _need_str(args[1], "REGEXP_LIKE")
    try:
        return re.search(pattern, _to_text(args[0])) is not None
    except re.error as exc:
        raise ExpressionError(
            f"REGEXP_LIKE pattern {pattern!r} is invalid: {exc}") from exc


def _fn_concat(args):
    if any(v is None for v in args):
        return None
    return "".join(_to_text(v) for v in args)


def _fn_find(fn: str):
    """STRPOS / legacy INDEX: 1-based position of a[1] in a[0], 0 when
    absent."""
    def find(args):
        if args[0] is None or args[1] is None:
            return None
        return _need_str(args[0], fn).find(_need_str(args[1], fn)) + 1
    return find


def _fn_text(fn: str, method):
    return _null_passthrough(lambda a: method(_need_str(a[0], fn)))


def _fn_integral(fn: str, rounding):
    return _null_passthrough(lambda a: _need_int(a[0], fn, rounding))


_FUNCTIONS = {
    "TRIM": _fn_text("TRIM", str.strip),
    "LTRIM": _fn_text("LTRIM", str.lstrip),
    "RTRIM": _fn_text("RTRIM", str.rstrip),
    "UPPER": _fn_text("UPPER", str.upper),
    "LOWER": _fn_text("LOWER", str.lower),
    "LENGTH": _fn_text("LENGTH", len),
    "CHAR_LENGTH": _fn_text("CHAR_LENGTH", len),
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "STRPOS": _fn_find("STRPOS"),
    "COALESCE": _fn_coalesce,
    "NULLIF": _fn_nullif,
    "ABS": _null_passthrough(lambda a: abs(_numeric(a[0], "ABS"))),
    "MOD": _fn_mod,
    "ROUND": _fn_round,
    "FLOOR": _fn_integral("FLOOR", math.floor),
    "CEIL": _fn_integral("CEIL", math.ceil),
    "CEILING": _fn_integral("CEILING", math.ceil),
    "TO_DATE": _fn_to_date,
    "TO_TIMESTAMP": _fn_to_timestamp,
    "EXTRACT": _fn_extract,
    # Legacy-dialect spellings (the reference server evaluates them raw).
    "ZEROIFNULL": lambda a: 0 if a[0] is None else a[0],
    "NULLIFZERO": lambda a: None if a[0] == 0 else a[0],
    "INDEX": _fn_find("INDEX"),
    "CONCAT": _fn_concat,
    "REGEXP_LIKE": _fn_regexp_like,
}

#: (fewest, most) arguments of the functions that do not take exactly
#: one; None is unbounded.
_ARITY = {
    "SUBSTR": (2, 3), "SUBSTRING": (2, 3), "STRPOS": (2, 2),
    "COALESCE": (1, None), "NULLIF": (2, 2), "MOD": (2, 2),
    "ROUND": (1, 2), "TO_DATE": (1, 2), "TO_TIMESTAMP": (1, 2),
    "EXTRACT": (2, 2), "INDEX": (2, 2), "CONCAT": (1, None),
    "REGEXP_LIKE": (2, 2),
}


def _function(expr: n.FuncCall):
    """``(handler, None)`` for a known call, else ``(None, message)``."""
    name = expr.name.upper()
    handler = _FUNCTIONS.get(name)
    if handler is None:
        return None, f"unknown function {name}"
    fewest, most = _ARITY.get(name, (1, 1))
    count = len(expr.args)
    if count < fewest or (most is not None and count > most):
        return None, f"{name} does not take {count} argument(s)"
    return handler, None


# -- scalar compilation --------------------------------------------------------
#
# ``compile_expr`` folds a tree once into nested ``fn(frame)`` closures;
# the row loops hoist it and rebind ``frame.ctx`` per row.  No closure
# refers to the node it is memoized on (values are read from children or
# captured), except a Literal's, which must read ``Literal.value`` live:
# the prepared-DML cache rebinds the ``__SEQ`` range literals of a shared
# statement template between executions (PreparedDml.bind).

def compile_expr(expr: n.Expr):
    """The expression as a ``fn(frame) -> value`` closure, memoized on
    the node.  Tree *structure* is treated as read-only."""
    d = expr.__dict__
    fn = d.get("_compiled")
    if fn is None:
        fn = d["_compiled"] = _compile(expr)
    return fn


def _compile(expr: n.Expr):
    compiler = _SCALAR_COMPILERS.get(type(expr))
    if compiler is None:
        return _failing(f"cannot evaluate {type(expr).__name__} node")
    return compiler(expr)


def _failing(message: str):
    """A closure that raises ``message`` when (and only if) it runs."""
    def _fail(frame):
        raise ExpressionError(message)
    return _fail


def _c_literal(expr: n.Literal):
    return lambda f: expr.value


def _c_bound(expr: n.BoundParam):
    value = expr.value
    return lambda f: value


def _c_host(expr: n.HostParam):
    return _failing(
        f"host parameter :{expr.name} reached the evaluator unbound")


def _c_star(expr: n.Star):
    return _failing("'*' is only valid in a select list")


def _c_column(expr: n.ColumnRef):
    upper = expr.name.upper()
    tbl = expr.table.upper() if expr.table else None
    name, table = expr.name, expr.table
    # The direct dict hits below are the hot path; RowContext.resolve
    # keeps the slow/diagnostic one (parent scopes, ambiguity, unknown
    # columns).
    if tbl is None:
        def _unqualified(f):
            bindings = f.ctx._bindings
            if len(bindings) == 1:
                for layout, row in bindings.values():
                    idx = layout.get(upper)
                    if idx is not None:
                        return row[idx]
            return f.ctx.resolve(name, table)
        return _unqualified

    def _qualified(f):
        entry = f.ctx._bindings.get(tbl)
        if entry is not None:
            idx = entry[0].get(upper)
            if idx is not None:
                return entry[1][idx]
        return f.ctx.resolve(name, table)
    return _qualified


def _c_unary(expr: n.UnaryOp):
    operand = _compile(expr.operand)
    op = expr.op
    return lambda f: _unary(op, operand(f))


def _c_binary(expr: n.BinaryOp):
    op = expr.op
    left = _compile(expr.left)
    right = _compile(expr.right)
    if op == "AND":
        def _and(f):
            lv = left(f)
            return False if lv is False else _and3(lv, right(f))
        return _and
    if op == "OR":
        def _or(f):
            lv = left(f)
            return True if lv is True else _or3(lv, right(f))
        return _or
    if op in _PY_CMP:
        return lambda f: _compare(op, left(f), right(f))
    return lambda f: _arith(op, left(f), right(f))


def _c_isnull(expr: n.IsNull):
    operand = _compile(expr.operand)
    if expr.negated:
        return lambda f: operand(f) is not None
    return lambda f: operand(f) is None


def _c_between(expr: n.Between):
    operand = _compile(expr.operand)
    low = _compile(expr.low)
    high = _compile(expr.high)
    negated = expr.negated
    return lambda f: _between(operand(f), low(f), high(f), negated)


def _c_like(expr: n.Like):
    operand = _compile(expr.operand)
    pattern = _compile(expr.pattern)
    negated = expr.negated
    return lambda f: _like(operand(f), pattern(f), negated)


def _c_in(expr: n.InExpr):
    operand = _compile(expr.operand)
    negated = expr.negated
    if expr.subquery is not None:
        select = expr.subquery

        def _in_subquery(f):
            value = operand(f)
            rows = _run_subquery(f, select)
            return _in_values(value, [row[0] for row in rows], negated)
        return _in_subquery
    table = _literal_table(expr.items)
    if table is not None:
        candidates = [item.value for item in expr.items]
        return lambda f: _in_table(operand(f), table, candidates, negated)
    items = tuple(_compile(item) for item in expr.items)
    return lambda f: _in_values(operand(f), [g(f) for g in items], negated)


def _run_subquery(frame: Frame, select: n.Select) -> list[tuple]:
    if frame.runner is None:
        raise ExpressionError(
            "subqueries are not available in this context")
    return frame.runner(select, frame.ctx)


def _c_exists(expr: n.Exists):
    select, negated = expr.subquery, expr.negated
    return lambda f: bool(_run_subquery(f, select)) != negated


def _c_subquery(expr: n.SubqueryExpr):
    select = expr.subquery

    def _scalar_subquery(f):
        rows = _run_subquery(f, select)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExpressionError("scalar subquery returned several rows")
        return rows[0][0]
    return _scalar_subquery


def _c_cast(expr: n.Cast):
    operand_node = expr.operand
    operand = _compile(operand_node)
    type_node, fmt = expr.type, expr.format
    try:
        ctype = cdw_type_from_node(type_node)
    except TypeError_:
        def _unmapped(f):
            operand(f)
            return cdw_type_from_node(type_node)     # raises again
        return _unmapped

    def _cast(f):
        value = operand(f)
        try:
            return _cast_value(value, ctype, fmt, type_node.base)
        except ExpressionError as exc:
            _blame(exc, operand_node)
            raise
    return _cast


def _c_case(expr: n.CaseExpr):
    whens = tuple((_compile(w.condition), _compile(w.result))
                  for w in expr.whens)
    else_fn = None if expr.else_result is None \
        else _compile(expr.else_result)

    def _case(f):
        for condition, result in whens:
            if condition(f) is True:
                return result(f)
        return None if else_fn is None else else_fn(f)
    return _case


def _c_func(expr: n.FuncCall):
    handler, problem = _function(expr)
    if handler is None:
        return _failing(problem)
    arg_fns = tuple(_compile(a) for a in expr.args)
    arg_nodes = tuple(expr.args)

    def _call(f):
        args = [fn(f) for fn in arg_fns]
        try:
            return handler(args)
        except ExpressionError as exc:
            _blame(exc, *arg_nodes)
            raise
    return _call


_SCALAR_COMPILERS = {
    n.Literal: _c_literal,
    n.BoundParam: _c_bound,
    n.HostParam: _c_host,
    n.Star: _c_star,
    n.ColumnRef: _c_column,
    n.UnaryOp: _c_unary,
    n.BinaryOp: _c_binary,
    n.IsNull: _c_isnull,
    n.Between: _c_between,
    n.Like: _c_like,
    n.InExpr: _c_in,
    n.Exists: _c_exists,
    n.SubqueryExpr: _c_subquery,
    n.Cast: _c_cast,
    n.CaseExpr: _c_case,
    n.FuncCall: _c_func,
}


# -- vectorized compilation ----------------------------------------------------
#
# For columnar tables the engine compiles an expression once per (layout,
# binding) into a *vector* closure: ``fn(batch) -> (is_const, payload)``
# where payload is either a single value (constant over the batch) or a
# list with one entry per batch row.  Evaluation is eager — both AND
# operands, every CASE arm — which is safe because the engine falls back
# to the scalar closures on any ExpressionError, reproducing their
# short-circuit and error behaviour exactly.  Per-value work calls
# the same value functions as the scalar closures, so the two compilers
# cannot disagree on a value; the int/str loops below only skip
# ``_compare``'s alignment for operands that need none.


class ColumnBatch:
    """Lazy column slices of one table over a row range ``[lo, hi)``.

    Vector closures pull whole columns out of the table's column store
    on first touch; untouched columns are never materialized.
    """

    __slots__ = ("table", "lo", "hi", "length", "_cols")

    def __init__(self, table, lo: int, hi: int):
        self.table = table
        self.lo = lo
        self.hi = hi
        self.length = hi - lo
        self._cols: dict[int, list] = {}

    def col(self, idx: int) -> list:
        """Column ``idx``'s values over the batch range, materialized
        once per batch."""
        c = self._cols.get(idx)
        if c is None:
            c = self._cols[idx] = self.table.column_values_at(
                idx, self.lo, self.hi)
        return c


class GatherBatch:
    """A selection of a parent batch's rows, presented as a batch.

    Used after the WHERE mask: projection and aggregate arguments must
    evaluate over exactly the surviving rows (the rows the row path
    would touch), so errors stay symmetric between the two paths.
    """

    __slots__ = ("parent", "sel", "length", "_cols")

    def __init__(self, parent, sel: list):
        self.parent = parent
        self.sel = sel
        self.length = len(sel)
        self._cols: dict[int, list] = {}

    def col(self, idx: int) -> list:
        """Selected values of column ``idx``, gathered once per batch."""
        c = self._cols.get(idx)
        if c is None:
            pc = self.parent.col(idx)
            c = self._cols[idx] = [pc[i] for i in self.sel]
        return c


def vec_values(result, nrows: int) -> list:
    """Expand a vector-closure result into a per-row value list."""
    const, payload = result
    return [payload] * nrows if const else payload


def _value_getter(result):
    """Per-row accessor ``fn(i)`` over a vector-closure result."""
    const, payload = result
    if const:
        return lambda i: payload
    return payload.__getitem__


def compile_vector(expr: n.Expr, layout: dict[str, int],
                   binding_upper: str):
    """Compile ``expr`` into a vector closure for one table layout.

    Returns ``fn(batch) -> (is_const, payload)`` or None when the
    expression contains a node the vector compiler does not support
    (subqueries, outer references, unknown columns, ...), in which case
    the caller must use the row path.  Memoized per (layout, binding)
    on the node; like ``compile_expr``, closures read ``Literal.value``
    live so prepared-DML rebinding works.
    """
    cache = expr.__dict__.get("_vcompiled")
    if cache is None:
        cache = expr.__dict__["_vcompiled"] = {}
    key = (id(layout), binding_upper)
    try:
        return cache[key]
    except KeyError:
        fn = _vcompile(expr, layout, binding_upper)
        cache[key] = fn
        return fn


def _vcompile(expr: n.Expr, layout: dict[str, int], bu: str):
    t = type(expr)
    if t is n.Literal:
        return lambda b: (True, expr.value)      # reads the live binding
    if t is n.BoundParam:
        value = expr.value
        return lambda b: (True, value)
    if t is n.ColumnRef:
        if expr.table is not None and expr.table.upper() != bu:
            return None                          # outer/other binding
        idx = layout.get(expr.name.upper())
        if idx is None:
            return None                          # unknown: row path errors
        return lambda b: (False, b.col(idx))
    compiler = _VECTOR_COMPILERS.get(t)
    if compiler is None:
        return None
    return compiler(expr, layout, bu)


def _vcompile_all(exprs, layout, bu):
    """Vector closures for several children, or None if any is None."""
    fns = [compile_vector(e, layout, bu) for e in exprs]
    return None if any(fn is None for fn in fns) else fns


def _zip_results(fn, results: list, nrows: int):
    """Apply ``fn`` to each row's operand values; constant when every
    operand result is."""
    if all(const for const, _ in results):
        return (True, fn(*[payload for _, payload in results]))
    return (False, [fn(*args) for args in zip(
        *[vec_values(r, nrows) for r in results])])


def _v_zip(fn, operands):
    """A vector closure applying ``fn`` per row to several operands."""
    return lambda b: _zip_results(fn, [op(b) for op in operands], b.length)


def _vcompile_isnull(expr: n.IsNull, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    if operand is None:
        return None
    negated = expr.negated

    def _isnull(b):
        const, payload = operand(b)
        if const:
            return (True, (payload is None) != negated)
        if negated:
            return (False, [v is not None for v in payload])
        return (False, [v is None for v in payload])
    return _isnull


def _vcompile_unary(expr: n.UnaryOp, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    if operand is None:
        return None
    op = expr.op

    def _unary_v(b):
        const, payload = operand(b)
        if const:
            return (True, _unary(op, payload))
        return (False, [_unary(op, v) for v in payload])
    return _unary_v


def _vcompile_binary(expr: n.BinaryOp, layout, bu):
    op = expr.op
    operands = _vcompile_all((expr.left, expr.right), layout, bu)
    if operands is None:
        return None
    if op == "AND":
        return _v_zip(_and3, operands)
    if op == "OR":
        return _v_zip(_or3, operands)
    if op in _PY_CMP:
        return _vcompile_compare(op, *operands)
    return _v_zip(lambda lv, rv: _arith(op, lv, rv), operands)


def _vcompile_compare(op: str, left, right):
    pyop = _PY_CMP[op]

    def _cmp(b):
        lc, lv = left(b)
        rc, rv = right(b)
        if lc and rc:
            return (True, _compare(op, lv, rv))
        # Against an int or DATE constant, values of exactly its type
        # need no _align; anything else (a timestamp to promote, a
        # type error to raise) still goes through _compare.
        if lc:                                   # const <op> vector
            if lv is None:
                return (True, None)
            kind = type(lv)
            if kind is int or kind is values.Date:
                return (False, [
                    None if v is None else
                    (pyop(lv, v) if type(v) is kind
                     else _compare(op, lv, v))
                    for v in rv])
            return (False, [_compare(op, lv, v) for v in rv])
        if rc:                                   # vector <op> const
            if rv is None:
                return (True, None)
            kind = type(rv)
            if kind is int or kind is values.Date:
                return (False, [
                    None if v is None else
                    (pyop(v, rv) if type(v) is kind
                     else _compare(op, v, rv))
                    for v in lv])
            if type(rv) is str:
                cr = rv.rstrip()
                return (False, [
                    None if v is None else
                    (pyop(v.rstrip(), cr) if type(v) is str
                     else _compare(op, v, rv))
                    for v in lv])
            return (False, [_compare(op, v, rv) for v in lv])
        return (False, [_compare(op, a, c) for a, c in zip(lv, rv)])
    return _cmp


def _vcompile_between(expr: n.Between, layout, bu):
    operands = _vcompile_all((expr.operand, expr.low, expr.high),
                             layout, bu)
    if operands is None:
        return None
    negated = expr.negated

    def between(v, lo, hi):
        return _between(v, lo, hi, negated)

    def _between_v(b):
        results = [op(b) for op in operands]
        (vc, vv), (lc, lo), (hc, hi) = results
        if vc or not (lc and hc) \
                or type(lo) is not int or type(hi) is not int:
            return _zip_results(between, results, b.length)
        # vector BETWEEN int constants: skip _compare's alignment for
        # int values, which need none.
        return (False, [
            None if v is None else
            ((lo <= v <= hi) != negated if type(v) is int
             else between(v, lo, hi))
            for v in vv])
    return _between_v


def _vcompile_case(expr: n.CaseExpr, layout, bu):
    flat = [e for w in expr.whens for e in (w.condition, w.result)]
    fns = _vcompile_all(flat, layout, bu)
    if fns is None:
        return None
    whens = list(zip(fns[::2], fns[1::2]))
    else_fn = None
    if expr.else_result is not None:
        else_fn = compile_vector(expr.else_result, layout, bu)
        if else_fn is None:
            return None

    def _case(b):
        nrows = b.length
        conds = [vec_values(c(b), nrows) for c, _ in whens]
        results = [_value_getter(r(b)) for _, r in whens]
        else_at = None if else_fn is None else _value_getter(else_fn(b))
        out = []
        append = out.append
        n_whens = len(conds)
        for i in range(nrows):
            for j in range(n_whens):
                if conds[j][i] is True:
                    append(results[j](i))
                    break
            else:
                append(None if else_at is None else else_at(i))
        return (False, out)
    return _case


def _vcompile_in(expr: n.InExpr, layout, bu):
    if expr.subquery is not None:
        return None
    operand = compile_vector(expr.operand, layout, bu)
    items = _vcompile_all(expr.items, layout, bu)
    if operand is None or items is None:
        return None
    negated = expr.negated
    table = _literal_table(expr.items)
    if table is not None:
        candidates = [item.value for item in expr.items]

        def _in_literals(b):
            const, payload = operand(b)
            if const:
                return (True, _in_table(payload, table, candidates,
                                        negated))
            return (False, [_in_table(v, table, candidates, negated)
                            for v in payload])
        return _in_literals
    return _v_zip(lambda v, *cands: _in_values(v, cands, negated),
                  [operand] + items)


def _vcompile_like(expr: n.Like, layout, bu):
    operands = _vcompile_all((expr.operand, expr.pattern), layout, bu)
    if operands is None:
        return None
    negated = expr.negated
    return _v_zip(lambda v, pat: _like(v, pat, negated), operands)


def _vcompile_cast(expr: n.Cast, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    if operand is None:
        return None
    try:
        ctype = cdw_type_from_node(expr.type)
    except TypeError_:
        return None                      # the row path raises it
    fmt, type_base = expr.format, expr.type.base
    operand_node = expr.operand

    def _cast(b):
        const, payload = operand(b)
        try:
            if const:
                return (True, _cast_value(payload, ctype, fmt, type_base))
            return (False, [_cast_value(v, ctype, fmt, type_base)
                            for v in payload])
        except ExpressionError as exc:
            _blame(exc, operand_node)
            raise
    return _cast


def _vcompile_func(expr: n.FuncCall, layout, bu):
    handler, _ = _function(expr)
    if handler is None:
        return None
    args = _vcompile_all(expr.args, layout, bu)
    if args is None:
        return None
    arg_nodes = tuple(expr.args)

    def _call(b):
        results = [fn(b) for fn in args]
        try:
            if all(const for const, _ in results):
                return (True, handler([payload for _, payload in results]))
            if len(results) == 1:
                return (False, [handler([v]) for v in results[0][1]])
            vecs = [vec_values(r, b.length) for r in results]
            return (False, [handler(list(row)) for row in zip(*vecs)])
        except ExpressionError as exc:
            _blame(exc, *arg_nodes)
            raise
    return _call


_VECTOR_COMPILERS = {
    n.IsNull: _vcompile_isnull,
    n.UnaryOp: _vcompile_unary,
    n.BinaryOp: _vcompile_binary,
    n.Between: _vcompile_between,
    n.CaseExpr: _vcompile_case,
    n.InExpr: _vcompile_in,
    n.Like: _vcompile_like,
    n.Cast: _vcompile_cast,
    n.FuncCall: _vcompile_func,
}
