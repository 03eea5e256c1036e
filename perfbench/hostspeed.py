"""How fast the host runs Python during a run, to take its drift out of
the timing metrics.

The reference host is two vCPUs of a shared machine.  Its speed for the
same pure-Python work toggles between a fast and a slow state (about
1.8x apart) every few tens of milliseconds, and the share of time spent
slow drifts with the neighbours' load over minutes.  The program under
test is pure Python too, so that drift reaches every timing metric.

The speed is measured by timing ``task()``, a fixed piece of pure Python
independent of the program: a change to the program moves job times but
not the task, so it still shows in full.  Closed-loop workloads have no
idle time, so a ``Sampler`` thread runs the task every ``PERIOD_S``
while jobs run; the open-loop feed runs it in the gaps between batches
(``probe()``), so that its batches are not disturbed.  Either way a
run's speed is ``REFERENCE_S`` over the mean task time, and every time
the run measured is multiplied by it, so that it reads as on the
reference host at its median speed.

The hypervisor also gives this machine's vCPUs to other guests for a
while (``steal_s()``).  Thread and process CPU time leave that time out
already; wall times are also multiplied by the share of the jobs' time
that was not stolen (``available()``).
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: thread CPU seconds ``task()`` takes on the reference host (2 vCPUs
#: of an Intel Xeon at 2.1 GHz, Python 3.11.7): the median over runs of
#: every workload.
REFERENCE_S = 0.00065

#: the largest share of a run's time taken as stolen.
MAX_STOLEN_SHARE = 0.9
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: tasks one ``probe()`` times back to back.
PROBE_TASKS = 8

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf")


def task(n: int = 100) -> int:
    """A fixed mix of what the program spends its time on: parsing and
    formatting text fields, building tuples, dict updates, sorting."""
    rows = []
    for i in range(n):
        line = (f"{i:08d}|{_WORDS[i % 7]}{i % 97}|20{i % 30:02d}-"
                f"{i % 12 + 1:02d}-{i % 28 + 1:02d}|{i * 7919 % 10007}")
        rec, name, date, amount = line.split("|")
        year, month, day = date.split("-")
        rows.append((int(rec), name.upper(), (int(year), int(month),
                                               int(day)), int(amount)))
    totals: dict = {}
    for rec, name, date, amount in rows:
        totals[name] = totals.get(name, 0) + amount
    rows.sort(key=lambda row: (row[2], -row[3]))
    text = "\n".join(f"{r[0]},{r[1]},{r[3]}" for r in rows)
    return len(text.encode("utf-8")) + len(totals)


def timed_task() -> float:
    """Thread CPU seconds one ``task()`` takes now."""
    started = time.thread_time()
    task()
    return time.thread_time() - started


def speed(times: list) -> float:
    """The host's speed over ``times`` (task timings) as a share of the
    reference speed; 1.0 when there are none."""
    return REFERENCE_S / statistics.mean(times) if times else 1.0


def steal_s() -> float:
    """Seconds of CPU time the hypervisor has given other guests instead
    of this machine's CPUs (the ``steal`` column of ``/proc/stat``); 0.0
    where there is no such file."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


def available(stolen_s: float, wall_s: float) -> float:
    """The share of ``wall_s`` the host's CPUs ran this machine, given
    the ``stolen_s`` taken from it meanwhile.  Stolen time is summed
    over all vCPUs, so it can exceed ``wall_s``: the share is capped."""
    if wall_s <= 0:
        return 1.0
    return 1.0 - min(stolen_s / wall_s, MAX_STOLEN_SHARE)


def probe(times: list) -> None:
    """Time ``PROBE_TASKS`` tasks back to back, appending to ``times``."""
    for _ in range(PROBE_TASKS):
        times.append(timed_task())


class Sampler:
    """Times one ``task()`` every ``PERIOD_S`` on a thread of its own
    while it is entered (``with sampler:``), so that the host's speed is
    known over the jobs' own time.  Thread CPU time leaves out the waits
    for the interpreter lock.  The samples cost the jobs 4-5% of
    their time, alike in every run."""

    PERIOD_S = 0.010

    def __init__(self):
        self.times: list = []
        self._on = threading.Event()
        self._closed = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-hostspeed")
        self._thread.start()

    def _loop(self) -> None:
        while True:
            self._on.wait()
            if self._closed:
                return
            time.sleep(self.PERIOD_S)
            if self._on.is_set() and not self._closed:
                self.times.append(timed_task())

    def __enter__(self) -> "Sampler":
        self._on.set()
        return self

    def __exit__(self, *exc) -> None:
        self._on.clear()

    def close(self) -> None:
        """Stop the thread and wait for it to end."""
        self._closed = True
        self._on.set()
        self._thread.join()
