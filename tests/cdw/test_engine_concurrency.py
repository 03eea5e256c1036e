"""Engine thread-safety soak: concurrent DML + queries stay consistent.

The gateway runs Beta, COPY, and ad-hoc SQL from different threads
against one engine; the engine serializes statements with a lock.  This
soak hammers one engine from many threads and checks the final state is
exactly the sum of the applied operations.
"""

import sys
import threading

from repro.cdw.engine import CdwEngine
from repro.errors import BulkExecutionError

WORKERS = 6
OPS_PER_WORKER = 60


def test_concurrent_inserts_and_queries():
    engine = CdwEngine()
    engine.execute("CREATE TABLE T (W INT, I INT, UNIQUE (W, I))")
    errors: list[BaseException] = []

    def worker(worker_no: int):
        try:
            for i in range(OPS_PER_WORKER):
                engine.execute(
                    f"INSERT INTO T VALUES ({worker_no}, {i})")
                if i % 10 == 0:
                    count = engine.query(
                        f"SELECT COUNT(*) FROM T WHERE W = {worker_no}"
                    )[0][0]
                    assert count == i + 1
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert engine.query("SELECT COUNT(*) FROM T") == \
        [(WORKERS * OPS_PER_WORKER,)]


def test_concurrent_unique_contention():
    """Many threads race to insert the same keys; exactly one wins per
    key and every loser gets a clean uniqueness abort."""
    engine = CdwEngine()
    engine.execute("CREATE TABLE K (V INT, UNIQUE (V))")
    wins = []
    losses = []
    lock = threading.Lock()

    def worker():
        for value in range(30):
            try:
                engine.execute(f"INSERT INTO K VALUES ({value})")
                with lock:
                    wins.append(value)
            except BulkExecutionError as exc:
                assert exc.kind == "uniqueness"
                with lock:
                    losses.append(value)

    threads = [threading.Thread(target=worker) for _ in range(5)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(wins) == list(range(30))
    assert len(losses) == 4 * 30
    assert engine.query("SELECT COUNT(*) FROM K") == [(30,)]


def test_concurrent_path_counts_lose_no_update():
    """Clean and failing INSERT..SELECTs from several threads: every
    statement is counted once under the path that finished it."""
    engine = CdwEngine()
    for w in range(WORKERS):
        engine.execute(f"CREATE TABLE S{w} (I INT, TXT NVARCHAR(8))")
        engine.execute(f"CREATE TABLE T{w} (I INT, N INT)")
        engine.execute(f"INSERT INTO S{w} VALUES (1, '1'), (2, 'x')")
    errors: list[BaseException] = []

    def worker(w: int):
        try:
            for i in range(OPS_PER_WORKER):
                try:
                    engine.execute(
                        f"INSERT INTO T{w} SELECT I, CAST(TXT AS INT) "
                        f"FROM S{w} WHERE I <= {1 + i % 2}")
                except BulkExecutionError:
                    pass
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(WORKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    half = WORKERS * OPS_PER_WORKER // 2
    assert engine.path_counts == {
        ("Insert", "vector", ""): half,
        ("Insert", "vector_scalar_check", ""): half}
    for w in range(WORKERS):
        assert engine.query(f"SELECT COUNT(*) FROM T{w}") == \
            [(half // WORKERS,)]
