"""Export jobs release their TDFCursor on every way they end.

A cursor's ``tdf-cursor`` prefetch thread holds the whole materialized
result set.  It must stop when the export completes, when its control
connection drops it, when BEGIN_EXPORT fails after the cursor exists,
and when the node stops; otherwise each abandoned export pins its
result for the life of the process.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import gateway
from repro.core.config import HyperQConfig
from repro.errors import GatewayError
from repro.legacy.client import ExportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import FormatSpec
from repro.legacy.protocol import Message, MessageChannel, MessageKind
from tests.conftest import make_node

#: 40 rows in 2-row chunks: far more chunks than the prefetch buffer
#: holds, so the prefetch thread is still waiting when the job ends.
ROWS = 40


def cursor_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if t.name == "tdf-cursor" and t.is_alive()}


def wait_gone(threads: set[threading.Thread],
              timeout_s: float = 3.0) -> None:
    deadline = time.monotonic() + timeout_s
    while any(t.is_alive() for t in threads):
        if time.monotonic() > deadline:
            raise AssertionError(
                f"{sum(t.is_alive() for t in threads)} tdf-cursor "
                f"thread(s) still alive after {timeout_s} s")
        time.sleep(0.01)


@pytest.fixture
def stack():
    built = make_node(config=HyperQConfig(export_chunk_rows=2, credits=8))
    built.engine.execute("create table E (A integer, B varchar(12))")
    values = ", ".join(f"({i}, 'row-{i:04d}')" for i in range(ROWS))
    built.engine.execute(f"insert into E values {values}")
    yield built
    built.close()


def control_channel(stack) -> MessageChannel:
    channel = MessageChannel(stack.node.connect(), timeout=5)
    channel.request(
        Message(MessageKind.LOGON,
                {"host": "h", "user": "u", "password": "p"}),
        MessageKind.LOGON_OK)
    return channel


def begin_export(channel, job_id: str) -> Message:
    return channel.request(
        Message(MessageKind.BEGIN_EXPORT, {
            "job_id": job_id,
            "sql": "select A, B from E order by A",
            "format": FormatSpec("binary").to_wire(),
            "sessions": 1,
        }),
        MessageKind.BEGIN_EXPORT_OK)


def begun_cursor_thread(stack, job_id: str):
    """BEGIN an export; returns (control channel, its cursor thread)."""
    before = cursor_threads()
    control = control_channel(stack)
    begin_export(control, job_id)
    started = cursor_threads() - before
    assert len(started) == 1
    return control, started


def test_dropped_export_stops_its_cursor_thread(stack):
    control, started = begun_cursor_thread(stack, "drop1")
    control.close()  # the client dies before fetching anything
    wait_gone(started)
    assert not stack.node._exports


def test_node_stop_stops_cursor_threads(stack):
    _, started = begun_cursor_thread(stack, "stop1")
    stack.close()
    wait_gone(started)


def test_completed_export_closes_its_cursor(stack):
    client = LegacyEtlClient(stack.node.connect)
    before = cursor_threads()
    try:
        client.logon("h", "u", "p")
        result = client.run_export(ExportJobSpec(
            select_sql="select A, B from E order by A", sessions=3))
    finally:
        client.logoff()
    assert result.rows_exported == ROWS
    wait_gone(cursor_threads() - before)


def test_failed_begin_export_closes_the_cursor(stack, monkeypatch):
    def broken_layout(columns, rows):
        raise GatewayError("layout inference failed")

    monkeypatch.setattr(gateway, "infer_result_layout", broken_layout)
    before = cursor_threads()
    control = control_channel(stack)
    control.send(Message(MessageKind.BEGIN_EXPORT, {
        "job_id": "fail1", "sql": "select A, B from E",
        "format": FormatSpec("binary").to_wire(), "sessions": 1}))
    assert control.recv().kind == MessageKind.ERROR
    wait_gone(cursor_threads() - before)
    control.close()
