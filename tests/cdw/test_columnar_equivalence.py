"""Columnar engine vs row-fallback engine: observational equivalence.

PR 8's contract is that columnar storage + vectorized execution is a
pure performance change: for every statement the columnar engine must
produce exactly the rows, counts, table states, *and errors* the
row-of-tuples interpreter produces.  These tests drive randomized
statement streams (NULL-heavy data, zone map armed and disarmed)
through one engine of each kind and diff everything observable.
"""

import random

import pytest

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine

DDL = (
    "CREATE TABLE T (ID INT, GRP INT, AMT DOUBLE, "
    "NAME NVARCHAR(20), FLAG BOOLEAN, __SEQ BIGINT)",
    "CREATE TABLE SRC (ID INT, GRP INT, AMT DOUBLE, "
    "NAME NVARCHAR(20), FLAG BOOLEAN, __SEQ BIGINT)",
)

NUM_COLS = ("ID", "GRP", "AMT", "__SEQ")
CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")


def _random_rows(rng, count, seq_base=0):
    """NULL-heavy rows: every nullable column is None ~25% of the time."""
    def maybe(value):
        return None if rng.random() < 0.25 else value
    return [
        (maybe(rng.randrange(0, 200)),
         maybe(rng.randrange(0, 12)),
         maybe(round(rng.uniform(-50, 50), 2)),
         maybe(f"n{rng.randrange(0, 40)}"),
         maybe(rng.random() < 0.5),
         seq_base + i)
        for i in range(count)
    ]


def make_pair(seed, rows=250, arm_zone_map=False):
    """One columnar and one row-mode engine with identical contents."""
    engines = []
    for columnar in (True, False):
        engine = CdwEngine(store=CloudStore(), columnar=columnar)
        for ddl in DDL:
            engine.execute(ddl)
        rng = random.Random(seed)
        engine.table("T").append_rows(_random_rows(rng, rows))
        engine.table("SRC").append_rows(
            _random_rows(rng, rows // 3, seq_base=rows))
        if arm_zone_map:
            engine.table("T").set_sorted("__SEQ")
        engines.append(engine)
    return engines


def _predicate(rng, depth=0):
    """A random WHERE-clause fragment in the supported dialect."""
    roll = rng.random()
    if depth < 2 and roll < 0.25:
        left = _predicate(rng, depth + 1)
        right = _predicate(rng, depth + 1)
        junction = rng.choice(("AND", "OR"))
        text = f"({left} {junction} {right})"
        return f"NOT {text}" if rng.random() < 0.2 else text
    col = rng.choice(NUM_COLS)
    choice = rng.randrange(9)
    if choice == 0:
        return f"{col} {rng.choice(CMP_OPS)} {rng.randrange(-5, 205)}"
    if choice == 1:
        lo = rng.randrange(-5, 200)
        maybe_not = "NOT " if rng.random() < 0.3 else ""
        return f"{col} {maybe_not}BETWEEN {lo} AND " \
               f"{lo + rng.randrange(0, 60)}"
    if choice == 2:
        items = ", ".join(str(rng.randrange(0, 15)) for _ in range(3))
        if rng.random() < 0.3:
            items += ", NULL"
        maybe_not = "NOT " if rng.random() < 0.3 else ""
        return f"GRP {maybe_not}IN ({items})"
    if choice == 3:
        return f"NAME LIKE 'n{rng.randrange(0, 4)}%'"
    if choice == 4:
        col = rng.choice(("GRP", "AMT", "NAME", "FLAG"))
        maybe_not = "NOT " if rng.random() < 0.5 else ""
        return f"{col} IS {maybe_not}NULL"
    if choice == 5:
        return f"AMT * 2 > GRP + {rng.randrange(0, 20)}"
    if choice == 6:
        return ("CASE WHEN GRP > 5 THEN 1 WHEN GRP IS NULL THEN 2 "
                "ELSE 0 END = %d" % rng.randrange(0, 3))
    if choice == 7:
        return f"SUBSTR(NAME, 1, 2) = 'n{rng.randrange(0, 4)}'"
    # CAST of a DOUBLE to INT errors on non-integral values: both
    # engines must raise the same statement error for it.
    return f"CAST(AMT AS INT) = {rng.randrange(0, 50)}"


def _select(rng):
    roll = rng.random()
    where = f" WHERE {_predicate(rng)}" if rng.random() < 0.8 else ""
    if roll < 0.35:
        agg = rng.choice((
            "COUNT(*)", "COUNT(GRP)", "COUNT(DISTINCT GRP)",
            "SUM(AMT)", "MIN(ID)", "MAX(NAME)", "AVG(AMT)"))
        if rng.random() < 0.5:
            return (f"SELECT GRP, {agg} FROM T{where} "
                    f"GROUP BY GRP ORDER BY GRP")
        return f"SELECT {agg} FROM T{where}"
    items = "ID, NAME, AMT * 2, COALESCE(GRP, -1)"
    order = " ORDER BY __SEQ" if rng.random() < 0.5 else ""
    limit = f" LIMIT {rng.randrange(1, 40)}" \
        if rng.random() < 0.3 else ""
    distinct = "DISTINCT " if rng.random() < 0.15 and order == "" else ""
    return f"SELECT {distinct}{items} FROM T{where}{order}{limit}"


def _dml(rng):
    roll = rng.randrange(5)
    if roll == 0:
        return f"DELETE FROM T WHERE {_predicate(rng)}"
    if roll == 1:
        return ("UPDATE T SET AMT = COALESCE(AMT, 0) + 1, "
                f"NAME = 'u{rng.randrange(0, 9)}' "
                f"WHERE {_predicate(rng)}")
    if roll == 2:
        seq = 100_000 + rng.randrange(0, 100_000)
        return ("INSERT INTO T SELECT ID, GRP, AMT, NAME, FLAG, "
                f"__SEQ + {seq} FROM SRC WHERE {_predicate(rng)}")
    if roll == 3:
        return (f"INSERT INTO T VALUES ({rng.randrange(0, 99)}, NULL, "
                f"{rng.randrange(0, 9)}.5, 'ins', TRUE, "
                f"{500_000 + rng.randrange(0, 100_000)})")
    return ("MERGE INTO T USING SRC ON T.ID = SRC.ID "
            "WHEN MATCHED THEN UPDATE SET AMT = SRC.AMT "
            "WHEN NOT MATCHED THEN INSERT VALUES (SRC.ID, SRC.GRP, "
            "SRC.AMT, SRC.NAME, SRC.FLAG, SRC.__SEQ + "
            f"{900_000 + rng.randrange(0, 100_000)})")


def _outcome(engine, sql):
    """(tag, payload) for one execution — errors are part of the
    observable behaviour and must match across engines."""
    try:
        result = engine.execute(sql)
    except Exception as exc:  # noqa: BLE001 - diffing error identity
        return type(exc).__name__, str(exc)
    if result.kind == "rows":
        return "rows", result.rows
    return "count", (result.rows_inserted, result.rows_updated,
                     result.rows_deleted)


def _assert_equivalent(engines, sql):
    columnar, rowwise = (_outcome(e, sql) for e in engines)
    assert columnar == rowwise, f"divergence on: {sql}"
    state = [sorted(e.query("SELECT * FROM T"), key=repr)
             for e in engines]
    assert state[0] == state[1], f"table state diverged after: {sql}"


@pytest.mark.parametrize("seed", [11, 23, 37])
@pytest.mark.parametrize("armed", [False, True],
                         ids=["zone-map-off", "zone-map-armed"])
def test_random_statement_streams_agree(seed, armed):
    engines = make_pair(seed, arm_zone_map=armed)
    rng = random.Random(seed * 7 + int(armed))
    for step in range(120):
        sql = _select(rng) if rng.random() < 0.6 else _dml(rng)
        _assert_equivalent(engines, sql)


def test_seq_range_scans_agree_while_zone_map_armed():
    """The eager-apply shape: __SEQ BETWEEN conjunct + residual."""
    engines = make_pair(99, arm_zone_map=True)
    rng = random.Random(99)
    for _ in range(60):
        lo = rng.randrange(0, 260)
        hi = lo + rng.randrange(0, 120)
        residual = _predicate(rng)
        for sql in (
                f"SELECT ID, NAME FROM T WHERE __SEQ BETWEEN {lo} "
                f"AND {hi} AND {residual}",
                f"DELETE FROM T WHERE __SEQ BETWEEN {lo} AND {hi} "
                f"AND {residual}",
        ):
            _assert_equivalent(engines, sql)


def test_copy_into_agrees():
    """Staged bytes land identically through both COPY paths."""
    from repro.cdw import stagefile

    engines = make_pair(5, rows=0)
    rng = random.Random(5)
    rows = _random_rows(rng, 400)
    data = stagefile.compress(stagefile.encode_csv_rows(rows))
    for index, engine in enumerate(engines):
        engine.store.create_container("stage")
        engine.store.put_blob("stage", f"j{index}/p0.csv.gz", data)
        engine.execute(
            f"COPY INTO T FROM 'store://stage/j{index}/' FORMAT csv")
    state = [sorted(e.query("SELECT * FROM T"), key=repr)
             for e in engines]
    assert state[0] == state[1]
    assert len(state[0]) == 400


# -- INSERT..SELECT error semantics ------------------------------------------
#
# A failing vector INSERT..SELECT finishes on the vector path: it must
# raise exactly the error the row engine raises (type, message, field,
# kind), leave the target untouched, and never re-run the statement on
# the row executor.

ERR_DDL = (
    "CREATE TABLE ESRC (ID INT, TXT NVARCHAR(20), __SEQ BIGINT)",
    "CREATE TABLE E (A INT NOT NULL, B NVARCHAR(3), C INT, D INT)",
)

#: ESRC.TXT by row: integers as text, except where noted.
ERR_TXT = {2: "n2", 4: "long4", 5: None, 7: "x7", 9: "n9"}


def make_error_pair(txt=ERR_TXT, rows=12, seed_rows=()):
    """One columnar and one row engine holding ESRC (zone map armed)
    and an empty target E."""
    engines = []
    for columnar in (True, False):
        engine = CdwEngine(store=CloudStore(), columnar=columnar)
        for ddl in ERR_DDL:
            engine.execute(ddl)
        engine.table("ESRC").append_rows(
            [(i, txt.get(i, str(i)), i) for i in range(rows)])
        engine.table("ESRC").set_sorted("__SEQ")
        engine.table("E").append_rows(list(seed_rows))
        engines.append(engine)
    return engines


def _error_outcome(engine, sql):
    try:
        result = engine.execute(sql)
    except Exception as exc:  # noqa: BLE001 - diffing error identity
        return (type(exc).__name__, str(exc), getattr(exc, "field", None),
                getattr(exc, "kind", None))
    return "count", result.rows_inserted


def _assert_same_insert(engines, sql):
    columnar, rowwise = (_error_outcome(e, sql) for e in engines)
    assert columnar == rowwise, f"divergence on: {sql}"
    state = [sorted(e.query("SELECT * FROM E"), key=repr)
             for e in engines]
    assert state[0] == state[1], f"table state diverged after: {sql}"
    assert not [key for key in engines[0].path_counts
                if key[:2] == ("Insert", "row")], sql
    return columnar


#: (case, select list) — each shaped to fail on a known row.
ERROR_CASES = [
    # expression error: the first non-integer TXT (row 2)
    ("cast", "ID, 'b', CAST(TXT AS INT), ID"),
    # eager-only failure: the guarded CAST never runs on 'n..' rows,
    # but 'long4'/'x7' are unguarded
    ("case_guarded_cast",
     "ID, 'b', CASE WHEN TXT LIKE 'n%' THEN -1 "
     "WHEN TXT LIKE 'x%' OR TXT LIKE 'l%' THEN -2 "
     "ELSE CAST(TXT AS INT) END, ID"),
    # coercion: 'long4' overflows NVARCHAR(3)
    ("nvarchar_overflow", "ID, TXT, ID, ID"),
    # NOT NULL: A gets NULL on row 5
    ("not_null", "CASE WHEN TXT IS NULL THEN NULL ELSE ID END, "
                 "'b', ID, ID"),
    # expression error on row 7 (D) vs coercion error on row 2 (B):
    # projection runs first, so the expression error wins
    ("expression_beats_coercion",
     "ID, CASE WHEN ID = 2 THEN 'long' ELSE 'b' END, ID, "
     "CASE WHEN ID = 7 THEN CAST(TXT AS INT) ELSE 0 END"),
    # two expression errors in row 2: the first item wins
    ("two_expression_errors_same_row",
     "ID, 'b', CAST(TXT AS INT), CAST(TXT AS DOUBLE)"),
    # C fails on row 7, D on row 4: row order beats item order, though
    # the vector path meets C's error first
    ("later_item_earlier_row",
     "ID, 'b', CASE WHEN ID = 7 THEN CAST(TXT AS INT) ELSE 0 END, "
     "CASE WHEN ID = 4 THEN CAST(TXT AS DOUBLE) ELSE 0 END"),
    # C fails only eagerly, D really fails on row 9
    ("eager_only_then_real",
     "ID, 'b', CASE WHEN ID IN (2, 4, 7, 9) THEN -1 "
     "ELSE CAST(TXT AS INT) END, "
     "CASE WHEN ID = 9 THEN CAST(TXT AS DOUBLE) ELSE 0 END"),
    # two coercion errors in row 4 (B overflow, C non-integer text):
    # the first column wins
    ("two_coercion_errors_same_row",
     "ID, CASE WHEN ID = 4 THEN TXT ELSE 'b' END, "
     "CASE WHEN ID = 4 THEN TXT ELSE '1' END, ID"),
    # NOT NULL vs overflow in the same row 5: A is checked first
    ("not_null_beats_later_column",
     "CASE WHEN ID = 5 THEN NULL ELSE ID END, "
     "CASE WHEN ID = 5 THEN 'long' ELSE 'b' END, ID, ID"),
    # a later row's coercion error vs an earlier row's one in a later
    # column: row order wins over column order
    ("earlier_row_wins",
     "ID, CASE WHEN ID = 8 THEN 'long' ELSE 'b' END, "
     "CASE WHEN ID = 3 THEN 'x' ELSE '1' END, ID"),
]

#: residual WHEREs: none (a plain ColumnBatch), a zone-map slice, and
#: residual masks that make the batch a GatherBatch.
ERROR_WHERES = [
    "",
    " WHERE __SEQ BETWEEN 1 AND 10",
    " WHERE ID <> 2",
    " WHERE __SEQ BETWEEN 3 AND 11 AND ID <> 4 AND ID <> 5",
]


@pytest.mark.parametrize("where", ERROR_WHERES,
                         ids=["batch", "slice", "gather", "slice_gather"])
@pytest.mark.parametrize("case,items", ERROR_CASES,
                         ids=[c for c, _ in ERROR_CASES])
def test_failing_insert_select_matches_row_engine(case, items, where):
    engines = make_error_pair(seed_rows=[(100, "s", 1, 1)])
    outcome = _assert_same_insert(
        engines, f"INSERT INTO E SELECT {items} FROM ESRC{where}")
    assert outcome[0] in ("BulkExecutionError", "count")


def test_error_cases_raise_what_they_claim():
    """Pins the intent of ERROR_CASES on the full batch, so a change in
    data or SQL cannot silently turn a case into a different one."""
    engines = make_error_pair()
    expect = {
        "cast": ("INT conversion failed: 'n2'", "TXT"),
        "case_guarded_cast": None,
        "nvarchar_overflow": ("'long4' too long for NVARCHAR(3)", "B"),
        "not_null": ("NULL in NOT NULL column A", "A"),
        "expression_beats_coercion": ("INT conversion failed: 'x7'",
                                      "TXT"),
        "two_expression_errors_same_row": ("INT conversion failed: 'n2'",
                                           "TXT"),
        "later_item_earlier_row": ("DOUBLE conversion failed: 'long4'",
                                   "TXT"),
        "eager_only_then_real": ("DOUBLE conversion failed: 'n9'", "TXT"),
        "two_coercion_errors_same_row": ("'long4' too long", "B"),
        "not_null_beats_later_column": ("NULL in NOT NULL column A", "A"),
        "earlier_row_wins": ("INT conversion failed: 'x'", "C"),
    }
    for case, items in ERROR_CASES:
        outcome = _assert_same_insert(
            engines, f"INSERT INTO E SELECT {items} FROM ESRC")
        if expect[case] is None:
            assert outcome == ("count", 12), case
        else:
            text, field = expect[case]
            assert text in outcome[1] and outcome[2] == field, \
                (case, outcome)
    assert engines[0].path_counts[
        ("Insert", "vector_scalar_check", "")] == len(ERROR_CASES)


def test_insert_column_list_errors_match_row_engine():
    """Partial column lists: unlisted NOT NULL columns, wrong arity and
    unknown names raise from the same shaping code on both engines."""
    engines = make_error_pair()
    for sql in (
            "INSERT INTO E (B, C) SELECT 'b', ID FROM ESRC",
            "INSERT INTO E (A, B) SELECT ID, TXT FROM ESRC",
            "INSERT INTO E (A, C) SELECT ID, CAST(TXT AS INT) FROM ESRC",
            "INSERT INTO E (A, B) SELECT ID FROM ESRC",
            "INSERT INTO E (A, NOPE) SELECT ID, ID FROM ESRC",
            "INSERT INTO E (A, NOPE) SELECT ID, ID FROM ESRC "
            "WHERE ID > 99",
            "INSERT INTO E SELECT ID, 'b' FROM ESRC",
            "INSERT INTO E (A, C) SELECT ID, ID FROM ESRC WHERE ID < 4",
    ):
        _assert_same_insert(engines, sql)


@pytest.mark.parametrize("seed", range(6))
def test_random_failing_insert_selects_agree(seed):
    """Random select lists over error-prone items and dirty text."""
    rng = random.Random(seed)
    txt = {}
    for i in range(40):
        roll = rng.random()
        if roll < 0.06:
            txt[i] = None
        elif roll < 0.1:
            txt[i] = f"n{i}"
        elif roll < 0.13:
            txt[i] = "9" * 12
    engines = make_error_pair(txt=txt, rows=40)
    pool = (
        "ID", "CAST(TXT AS INT)", "TXT", "'b'", "NULL",
        "CASE WHEN TXT LIKE 'n%' THEN 0 ELSE CAST(TXT AS INT) END",
        "NULLIF(ID, {k})", "100 / (ID - {k})", "COALESCE(TXT, 'z')",
        "CASE WHEN ID = {k} THEN 'long' ELSE 'b' END",
    )
    for _ in range(40):
        items = ", ".join(
            rng.choice(pool).format(k=rng.randrange(40)) for _ in range(4))
        where = rng.choice(ERROR_WHERES[:3] + [
            f" WHERE __SEQ BETWEEN {rng.randrange(20)} AND "
            f"{rng.randrange(20, 40)} AND ID <> {rng.randrange(40)}"])
        _assert_same_insert(
            engines, f"INSERT INTO E SELECT {items} FROM ESRC{where}")
