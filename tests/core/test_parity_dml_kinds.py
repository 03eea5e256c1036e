"""Parity for non-INSERT apply DML: UPDATE, DELETE, and legacy upsert.

The application phase can carry any DML; the virtualized execution
(set-oriented over staging, upsert rewritten to MERGE) must match the
legacy server's tuple-at-a-time interpretation — including order
sensitivity when several input records hit the same target row.
"""

import pytest

from repro.bench.harness import build_stack
from repro.core.config import HyperQConfig
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.legacy.server import LegacyServer
from repro.legacy.types import FieldDef, Layout, parse_type

LAYOUT = Layout("L", [
    FieldDef("K", parse_type("varchar(8)")),
    FieldDef("V", parse_type("varchar(16)")),
])

SEED_SQL = [
    "create table T (K varchar(8) not null, V varchar(16), unique (K))",
    "insert into T values ('a', 'v-a')",
    "insert into T values ('b', 'v-b')",
    "insert into T values ('c', 'v-c')",
]


def run_job(connect, apply_sql: str, data: bytes, chunk_bytes: int = 24):
    client = LegacyEtlClient(connect)
    client.logon("h", "u", "p")
    for sql in SEED_SQL:
        client.execute_sql(sql)
    result = client.run_import(ImportJobSpec(
        target_table="T", et_table="T_ET", uv_table="T_UV",
        layout=LAYOUT, apply_sql=apply_sql, data=data,
        sessions=2, chunk_bytes=chunk_bytes))
    client.logoff()
    return result


def both(apply_sql: str, data: bytes, chunk_bytes: int = 24,
         query: str = "SELECT K, V FROM T ORDER BY K"):
    server = LegacyServer().start()
    try:
        legacy_result = run_job(server.connect, apply_sql, data,
                                chunk_bytes)
        legacy_table = server.engine.query(query)
    finally:
        server.stop()
    stack = build_stack(config=HyperQConfig(credits=8))
    try:
        hyperq_result = run_job(stack.node.connect, apply_sql, data,
                                chunk_bytes)
        hyperq_table = stack.engine.query(query)
    finally:
        stack.close()
    return legacy_result, legacy_table, hyperq_result, hyperq_table


class TestUpdateParity:
    def test_matched_updates(self):
        data = b"a|new-a\nc|new-c\nzz|never\n"
        lr, lt, hr, ht = both(
            "update T set V = :V where T.K = trim(:K)", data)
        assert lr.rows_updated == hr.rows_updated == 2
        assert lt == ht
        assert ("a", "new-a") in ht

    def test_last_write_wins_for_repeated_keys(self):
        data = b"a|first\na|second\na|third\n"
        lr, lt, hr, ht = both(
            "update T set V = :V where T.K = trim(:K)", data,
            chunk_bytes=8)
        assert lt == ht
        assert ("a", "third") in ht


class TestDeleteParity:
    def test_matched_deletes(self):
        data = b"b|x\nnope|y\n"
        lr, lt, hr, ht = both(
            "delete from T where T.K = trim(:K)", data)
        assert lr.rows_deleted == hr.rows_deleted == 1
        assert lt == ht
        assert all(k != "b" for k, _ in ht)


class TestUpsertParity:
    UPSERT = ("update T set V = :V where T.K = :K "
              "else insert into T values (:K, :V)")

    def test_mixed_update_and_insert(self):
        data = b"a|updated-a\nd|created-d\nb|updated-b\ne|created-e\n"
        lr, lt, hr, ht = both(self.UPSERT, data)
        assert lt == ht
        assert (lr.rows_updated, lr.rows_inserted) == \
            (hr.rows_updated, hr.rows_inserted) == (2, 2)

    def test_insert_then_update_same_key_in_one_job(self):
        """Row 1 creates key 'z'; row 2 must UPDATE it (tuple order)."""
        data = b"z|created\nz|then-updated\n"
        lr, lt, hr, ht = both(self.UPSERT, data, chunk_bytes=8)
        assert lt == ht
        assert ("z", "then-updated") in ht
        assert (lr.rows_inserted, lr.rows_updated) == \
            (hr.rows_inserted, hr.rows_updated) == (1, 1)

    @pytest.mark.parametrize("chunk_bytes", [8, 64, 4096])
    def test_chunking_invariance(self, chunk_bytes):
        data = (b"a|u1\nq|c1\na|u2\nq|u-after-c\nr|c2\n")
        lr, lt, hr, ht = both(self.UPSERT, data, chunk_bytes)
        assert lt == ht


class TestBadFunctionArgumentParity:
    def test_bad_regex_per_row_lands_in_et(self):
        """A per-record invalid pattern is an expression error for that
        record alone: the legacy server's tuple-at-a-time apply and the
        gateway's set-oriented DML (vector path, row fallback, then
        Beta's split) send the same records to ET with the same field."""
        data = b"d|x\ne|(\nf|[a\ng|.\n"
        apply_sql = ("insert into T values (trim(:K), case when "
                     "regexp_like('x', :V) then 'hit' else 'miss' end)")
        lr, lt, hr, ht = both(apply_sql, data, chunk_bytes=8)
        assert lr.et_errors == hr.et_errors == 2
        assert lr.rows_inserted == hr.rows_inserted == 2
        assert lt == ht
        assert ("d", "hit") in ht and ("g", "hit") in ht
        lr, let, hr, het = both(
            apply_sql, data, chunk_bytes=8,
            query="SELECT SEQNO, ERRFIELD FROM T_ET ORDER BY SEQNO")
        assert let == het == [(2, "V"), (3, "V")]
