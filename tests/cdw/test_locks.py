"""RWLock / LockManager semantics and the engine's lock granularity.

PR 5 splits the engine's one global RLock into a catalog lock plus
per-table reader/writer locks.  These tests pin the lock semantics the
engine now depends on (reentrancy, writer preference, refused upgrades)
and the satellite guarantee: reads — monitoring SELECTs, export
fetches — do not wait behind a bulk write on an unrelated table.
"""

import threading
import time

import pytest

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.cdw.locks import LockManager, RWLock


def run_in_thread(fn, timeout_s=5.0):
    """Run fn in a thread; returns (finished, result)."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn()),
                              daemon=True)
    thread.start()
    thread.join(timeout=timeout_s)
    return (not thread.is_alive(),
            box[0] if box else None, thread)


class TestRWLock:
    def test_concurrent_readers(self):
        lock = RWLock()
        lock.acquire_read()
        finished, _, _ = run_in_thread(
            lambda: lock.read().__enter__() or True)
        assert finished
        lock.release_read()

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        lock.acquire_write()
        for acquire in (lock.acquire_read, lock.acquire_write):
            finished, _, thread = run_in_thread(acquire, timeout_s=0.1)
            assert not finished
        lock.release_write()
        time.sleep(0.1)

    def test_write_reentrancy(self):
        lock = RWLock()
        with lock.write():
            with lock.write():
                with lock.read():  # write holder may read
                    pass
        # fully released: another thread can take it
        finished, _, _ = run_in_thread(
            lambda: lock.write().__enter__() or True)
        assert finished

    def test_read_reentrancy_beats_writer_preference(self):
        """A thread already reading is granted further reads even with
        a writer queued — otherwise reentrant readers deadlock."""
        lock = RWLock()
        lock.acquire_read()
        # park a writer so _writers_waiting > 0
        writer = threading.Thread(
            target=lambda: (lock.acquire_write(),
                            lock.release_write()),
            daemon=True)
        writer.start()
        time.sleep(0.05)
        lock.acquire_read()  # must not block
        lock.release_read()
        lock.release_read()
        writer.join(timeout=5)
        assert not writer.is_alive()

    def test_writer_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer = threading.Thread(
            target=lambda: (lock.acquire_write(),
                            lock.release_write()),
            daemon=True)
        writer.start()
        time.sleep(0.05)
        finished, _, _ = run_in_thread(lock.acquire_read,
                                       timeout_s=0.1)
        assert not finished  # queued behind the waiting writer
        lock.release_read()
        writer.join(timeout=5)
        assert not writer.is_alive()

    def test_read_to_write_upgrade_refused(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_foreign_release_refused(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        lock.acquire_write()
        finished, result, _ = run_in_thread(
            lambda: pytest.raises(RuntimeError, lock.release_write))
        assert finished
        lock.release_write()


class TestLockManager:
    def test_statement_orders_and_releases(self):
        locks = LockManager()
        with locks.statement({"b"}, {"a"}):
            assert locks.table_lock("A")._writer is not None
            assert locks.table_lock("B")._readers
        assert locks.table_lock("A")._writer is None
        assert not locks.table_lock("B")._readers

    def test_write_subsumes_read_for_same_table(self):
        locks = LockManager()
        with locks.statement({"t"}, {"t"}):
            assert locks.table_lock("T")._writer is not None
            assert not locks.table_lock("T")._readers

    def test_ddl_excludes_statements(self):
        locks = LockManager()
        ddl = locks.ddl()
        ddl.__enter__()
        finished, _, _ = run_in_thread(
            lambda: locks.statement(set(), {"t"}).__enter__(),
            timeout_s=0.1)
        assert not finished
        ddl.__exit__(None, None, None)


class TestEngineLockGranularity:
    def _engine(self):
        engine = CdwEngine(store=CloudStore())
        engine.execute("CREATE TABLE A (X INT)")
        engine.execute("CREATE TABLE B (X INT)")
        engine.execute("INSERT INTO B VALUES (1)")
        return engine

    def test_reads_bypass_bulk_write_on_other_table(self):
        """The satellite fix: a long COPY/INSERT holding table A's
        write lock must not stall a SELECT against table B."""
        engine = self._engine()
        lock = engine.locks.table_lock("A")
        lock.acquire_write()  # stand-in for an in-flight bulk write
        try:
            finished, result, _ = run_in_thread(
                lambda: engine.query("SELECT * FROM B"))
            assert finished and result == [(1,)]
            # ... while a write against A does wait:
            blocked, _, thread = run_in_thread(
                lambda: engine.execute("INSERT INTO A VALUES (1)"),
                timeout_s=0.1)
            assert not blocked
        finally:
            lock.release_write()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert engine.query("SELECT COUNT(*) FROM A") == [(1,)]

    def test_concurrent_readers_on_one_table(self):
        engine = self._engine()
        lock = engine.locks.table_lock("B")
        lock.acquire_read()
        try:
            finished, result, _ = run_in_thread(
                lambda: engine.query("SELECT COUNT(*) FROM B"))
            assert finished and result == [(1,)]
        finally:
            lock.release_read()


class TestLockSetMemo:
    """``_lock_sets`` memoizes read names on the statement node."""

    SQL = ("INSERT INTO T SELECT S.ID FROM STG S WHERE S.__SEQ "
           "BETWEEN 1 AND 5 AND S.ID IN (SELECT ID FROM DIM)")

    def test_rebinding_literals_keeps_sets_correct(self):
        from repro.sqlxc import nodes as n
        from repro.sqlxc.parser import parse_statement

        engine = CdwEngine()
        statement = parse_statement(self.SQL, dialect="cdw")
        between = next(node for node in n.walk(statement)
                       if isinstance(node, n.Between))
        expected = ({"T", "STG", "DIM"}, {"T"})
        assert engine._lock_sets(statement) == expected
        for lo, hi in ((10, 20), (3, 3), (0, 99)):
            # what PreparedDml.bind does between executions
            between.low.value, between.high.value = lo, hi
            reads, writes = engine._lock_sets(statement)
            assert (reads, writes) == expected
            reads.add("MUTATED")          # a fresh set every call
        assert engine._lock_sets(statement) == expected

    def test_distinct_statements_never_share_a_memo(self):
        from repro.sqlxc import nodes as n
        from repro.sqlxc.parser import parse_statement

        engine = CdwEngine()
        first = parse_statement(self.SQL, dialect="cdw")
        second = parse_statement(self.SQL, dialect="cdw")
        assert first == second and first is not second
        first_reads, _ = engine._lock_sets(first)
        assert "_lock_reads" not in second.__dict__

        def rename(node):
            if isinstance(node, n.TableRef) and node.name == "DIM":
                return n.TableRef("OTHER", node.alias)
            return node
        # a rewritten tree is a new node: it must not inherit the memo
        renamed = n.transform(first, rename)
        assert renamed is not first
        assert engine._lock_sets(renamed)[0] == {"T", "STG", "OTHER"}
        assert engine._lock_sets(first)[0] == first_reads
        assert engine._lock_sets(second)[0] == first_reads
        select = parse_statement("SELECT * FROM DIM", dialect="cdw")
        assert engine._lock_sets(select) == ({"DIM"}, set())
