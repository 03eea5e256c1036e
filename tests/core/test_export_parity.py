"""Export parity: Hyper-Q's export path must match the legacy server.

The same table is exported through :class:`LegacyServer` (reference
``BinaryFormat`` over the legacy engine's rows) and through the gateway
(CDW engine → TDFCursor → TDF packets → PXC unwrap → compiled binary
encoder).  The client must receive byte-identical export files and the
same column types, for one and several data sessions and for both
output formats.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_stack
from repro.core.config import HyperQConfig
from repro.legacy.client import ExportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import FormatSpec
from repro.legacy.server import LegacyServer

DDL = ("create table X (K integer not null, AMT decimal(12,2), D date, "
       "TS timestamp, F float, NAME varchar(40))")

ROWS = [
    "(1, 12.50, DATE '2012-01-01', TIMESTAMP '2012-01-01 08:30:00', "
    "1.5, 'Smith')",
    "(2, -0.07, DATE '1999-12-31', TIMESTAMP '1999-12-31 23:59:59', "
    "-2.25, 'Müller-Lüdenscheidt')",
    "(3, NULL, NULL, NULL, NULL, NULL)",
    "(4, 1000000.00, DATE '2020-02-29', TIMESTAMP '2020-02-29 00:00:00', "
    "0.0, '東京都')",
    "(5, 0.00, DATE '1970-01-01', NULL, 3e10, 'emoji 🎉 ok')",
    "(6, 99.99, NULL, TIMESTAMP '2001-09-09 01:46:40', NULL, '')",
    "(7, NULL, DATE '2038-01-19', TIMESTAMP '2038-01-19 03:14:07', "
    "-1e-3, 'ñandú')",
]

#: columns whose every value is NULL in the filtered export.
ALL_NULL_SELECT = ("select K, AMT, D, TS, F, NAME from X where K = 3 "
                   "order by K")
SELECT = "select K, AMT, D, TS, F, NAME from X order by K"


def _export(connect, select: str, sessions: int, format_spec: FormatSpec):
    client = LegacyEtlClient(connect)
    client.logon("h", "u", "p")
    try:
        client.execute_sql(DDL)
        for row in ROWS:
            client.execute_sql(f"insert into X values {row}")
        return client.run_export(ExportJobSpec(
            select_sql=select, sessions=sessions, format_spec=format_spec))
    finally:
        client.logoff()


def _both(select: str, sessions: int, format_spec: FormatSpec):
    server = LegacyServer().start()
    try:
        legacy = _export(server.connect, select, sessions, format_spec)
    finally:
        server.stop()
    # Two-row chunks: several TDF packets even with one session.
    stack = build_stack(config=HyperQConfig(export_chunk_rows=2, credits=8))
    try:
        hyperq = _export(stack.node.connect, select, sessions, format_spec)
    finally:
        stack.close()
    return legacy, hyperq


FORMATS = [FormatSpec("binary"), FormatSpec("vartext", "|")]


@pytest.mark.parametrize("sessions", [1, 3])
@pytest.mark.parametrize("format_spec", FORMATS,
                         ids=lambda spec: spec.kind)
def test_export_matches_legacy_server(sessions, format_spec):
    legacy, hyperq = _both(SELECT, sessions, format_spec)
    assert hyperq.rows_exported == legacy.rows_exported == len(ROWS)
    assert hyperq.columns == legacy.columns
    assert [t for _, t in hyperq.columns] == [
        "BIGINT", "DECIMAL", "DATE", "TIMESTAMP", "FLOAT", "VARCHAR(19)"]
    assert hyperq.data == legacy.data


@pytest.mark.parametrize("sessions", [1, 3])
def test_all_null_columns_match_legacy_server(sessions):
    legacy, hyperq = _both(ALL_NULL_SELECT, sessions, FormatSpec("binary"))
    assert hyperq.rows_exported == legacy.rows_exported == 1
    assert hyperq.columns == legacy.columns
    # An all-NULL column carries no type information: VARCHAR(1).
    assert {t for _, t in hyperq.columns} == {"BIGINT", "VARCHAR(1)"}
    assert hyperq.data == legacy.data
