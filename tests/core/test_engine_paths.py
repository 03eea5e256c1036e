"""Which executor finished each statement: the engine's path counter.

``CdwEngine.path_counts`` (and ``hyperq_engine_statements_total``)
record, for every statement that has a vector executor, whether the
vector path finished it or the row executor ran instead and why.  A
dirty import's apply DML must never fall back: its failing
INSERT..SELECTs raise their canonical error from the vector path.
"""

import pytest

from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.config import HyperQConfig
from repro.errors import BulkExecutionError
from repro.obs.metrics import parse_exposition
from repro.workloads.generator import dirty_workload


def make_engine(columnar=True):
    engine = CdwEngine(store=CloudStore(), columnar=columnar)
    engine.execute("CREATE TABLE S (ID INT, TXT NVARCHAR(10))")
    engine.execute("CREATE TABLE D (ID INT, TAG NVARCHAR(10))")
    engine.execute("CREATE TABLE T (ID INT, TXT NVARCHAR(10))")
    engine.execute("INSERT INTO S VALUES (1, '1'), (2, 'x'), (3, '3')")
    engine.execute("INSERT INTO D VALUES (1, 'a'), (3, 'c')")
    return engine


def row_keys(engine):
    return sorted(key for key in engine.path_counts if key[1] == "row")


class TestDirtyImport:
    def test_apply_inserts_never_take_the_row_path(self):
        dirty = dirty_workload(
            1200, violation_rate=0.03, seed=31,
            mix={"not_null": 1, "range": 1, "regex": 1, "unique": 1})
        with build_stack(config=HyperQConfig()) as stack:
            for sql in dirty.setup_sql:
                stack.engine.execute(sql)
            metrics = run_workload_through_hyperq(stack, dirty.workload)
            paths = stack.node.stats()["engine"]["paths"]["Insert"]
            registry = stack.node.obs.registry
            samples = registry.collect()[
                "hyperq_engine_statements_total"]["samples"]
            families = parse_exposition(registry.render_prometheus())
        assert metrics.chunk_retries > 0
        assert paths["vector"] > 0
        # every failed split raised its error from the vector path
        assert paths["vector_scalar_check"] > 0
        assert not [p for p in paths if p.startswith("row")], paths
        counted = {(s["labels"]["path"], s["labels"]["reason"]): s["value"]
                   for s in samples
                   if s["labels"]["statement"] == "Insert"}
        assert counted == {("vector", ""): paths["vector"],
                           ("vector_scalar_check", ""):
                               paths["vector_scalar_check"]}
        assert "hyperq_engine_statements_total" in families


class TestInsertPaths:
    def test_clean_insert_select_is_vector(self):
        engine = make_engine()
        engine.execute("INSERT INTO T SELECT ID, TXT FROM S")
        assert engine.path_counts == {("Insert", "vector", ""): 1}

    def test_failing_insert_select_finishes_on_the_vector_path(self):
        engine = make_engine()
        with pytest.raises(BulkExecutionError, match="'x'"):
            engine.execute("INSERT INTO T SELECT CAST(TXT AS INT), TXT "
                           "FROM S")
        assert engine.path_counts == {
            ("Insert", "vector_scalar_check", ""): 1}

    def test_join_insert_is_declined(self):
        engine = make_engine()
        seen = []
        engine.on_path = lambda *labels: seen.append(labels)
        engine.execute("INSERT INTO T SELECT S.ID, D.TAG FROM S "
                       "JOIN D ON S.ID = D.ID")
        assert seen == [("Insert", "row", "declined")]
        assert engine.path_snapshot() == {"Insert": {"row/declined": 1}}

    def test_subquery_insert_is_declined(self):
        engine = make_engine()
        engine.execute("INSERT INTO T SELECT ID, TXT FROM S WHERE ID IN "
                       "(SELECT ID FROM D)")
        assert row_keys(engine) == [("Insert", "row", "declined")]

    def test_erroring_where_mask_falls_back(self):
        engine = make_engine()
        with pytest.raises(BulkExecutionError, match="'x'"):
            engine.execute("INSERT INTO T SELECT ID, TXT FROM S "
                           "WHERE CAST(TXT AS INT) > 0")
        assert row_keys(engine) == [("Insert", "row", "where_error")]

    def test_row_storage_and_values_inserts(self):
        engine = make_engine(columnar=False)
        engine.execute("INSERT INTO T SELECT ID, TXT FROM S")
        # INSERT .. VALUES has only a row executor: it is not counted
        engine.execute("INSERT INTO T VALUES (9, 'v')")
        assert engine.path_counts == {("Insert", "row", "row_storage"): 1}


class TestOtherStatements:
    def test_delete_paths(self):
        engine = make_engine()
        engine.execute("DELETE FROM S WHERE ID = 1")
        engine.execute("DELETE FROM D")
        with pytest.raises(BulkExecutionError):
            engine.execute("DELETE FROM S WHERE CAST(TXT AS INT) = 3")
        assert engine.path_snapshot()["Delete"] == {
            "vector": 1, "row/declined": 1, "row/where_error": 1}

    def test_copy_paths(self):
        from repro.cdw import stagefile

        engine = make_engine()
        engine.store.create_container("stage")
        engine.store.put_blob(
            "stage", "ok/p0.csv",
            stagefile.encode_csv_rows([(5, "five"), (6, "six")]))
        engine.store.put_blob(
            "stage", "bad/p0.csv",
            stagefile.encode_csv_rows([("seven", "7")]))
        engine.execute("COPY INTO T FROM 'store://stage/ok/' FORMAT csv")
        with pytest.raises(BulkExecutionError):
            engine.execute(
                "COPY INTO T FROM 'store://stage/bad/' FORMAT csv")
        assert engine.path_snapshot()["CopyInto"] == {
            "vector": 1, "row/coerce_error": 1}
