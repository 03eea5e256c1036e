"""The benchmark's four workloads and the run that measures one of them.

Every workload drives one Hyper-Q node, built with the default
``HyperQConfig`` (``dirty_apply`` adds its DQ profile), from a client in
the same process over a loopback ``TcpListener``.  A job holds one data
session plus its control connection, so the client never runs more
threads or connections than the two cores of the reference host.

- ``bulk_load``: closed loop, one client, sequential clean import jobs
  of 500-byte rows.  Conversion, COPY and the one INSERT…SELECT do the
  work; Beta never splits.
- ``dirty_apply``: closed loop, one client, sequential import jobs of
  160-byte rows at ~1% violators.  The DQ precheck routes the not-null
  and range violators; Beta's recursive split handles the regex and
  uniqueness ones.  The apply side is nearly all of the job.
- ``export``: closed loop, one client, sequential export jobs of a
  filtered, ordered SELECT over a table loaded during set-up.  The read
  path: scan, filter, sort, TDF encoding and the wire back to the
  client, with no converter, staging file, COPY or Beta.
- ``feed``: open loop, one stream session sending a micro-batch every
  ``Feed.PERIOD_S`` whatever the gateway does, with two schema drifts
  and ~0.5% date errors.  Per-job fixed cost dominates: BEGIN/END_LOAD,
  per-batch DDL and journal appends and compaction.

Inputs come from the seed and are generated before set-up starts.
Outputs are checked against the generators' ground truth after each
job (after the whole feed for ``feed``), outside the timed region.
Every time a run measures is scaled by the host's speed during that run
(``hostspeed``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import checks
import hostspeed
import tracing
from repro.bench.harness import build_stack
from repro.core.config import HyperQConfig
from repro.legacy.client import ExportJobSpec, ImportJobSpec, LegacyEtlClient
from repro.net_tcp import TcpListener
from repro.stream import StreamSession
from repro.workloads.generator import dirty_workload, make_workload
from repro.workloads.streamgen import stream_workload

#: data sessions per job.
SESSIONS = 1
#: set-ups per run, fewest and most; between the two, set-ups repeat
#: until ``SETUP_MIN_S`` have passed.  ``setup_s`` is their median.
SETUP_REPEATS = (7, 201)
SETUP_MIN_S = 1.0


@dataclass
class JobSample:
    """One timed job."""

    wall_s: float
    cpu_s: float
    #: rows the job delivered (target + ET + UV, exported, committed).
    rows: int
    #: bytes of input the client sent.
    input_bytes: int
    problems: list = field(default_factory=list)
    #: CPU time the hypervisor gave other guests while the job ran.
    stolen_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


class Env:
    """One running stack: engine, store and a node on loopback TCP."""

    def __init__(self, config: HyperQConfig):
        self.config = config
        self.stack = build_stack(config=config, listener=TcpListener())
        self.node = self.stack.node
        self.engine = self.stack.engine
        self.session: StreamSession | None = None

    def client(self) -> LegacyEtlClient:
        """A logged-on legacy client (the caller logs it off)."""
        client = LegacyEtlClient(self.node.connect)
        client.logon("hyperq", "etl", "secret")
        return client

    def sql(self, *statements: str) -> None:
        """Run legacy-dialect statements through the gateway."""
        client = self.client()
        try:
            for statement in statements:
                client.execute_sql(statement)
        finally:
            client.logoff()

    def run_import(self, workload):
        """One import job of ``workload``, logon to logoff."""
        client = self.client()
        try:
            return client.run_import(ImportJobSpec(
                target_table=workload.target_table,
                et_table=workload.et_table, uv_table=workload.uv_table,
                layout=workload.layout, apply_sql=workload.apply_sql,
                data=workload.data, format_spec=workload.format_spec,
                sessions=SESSIONS))
        finally:
            client.logoff()

    def probe(self) -> dict:
        """Program counters a traced job differences."""
        engine_plans = self.engine.plan_cache.stats()
        beta_plans = self.node.beta.plans.stats()
        return {
            "credit_wait_s": self.node.credits.total_wait_s,
            "plan_hits": engine_plans["hits"] + beta_plans["hits"],
            "plan_misses": engine_plans["misses"] + beta_plans["misses"],
        }

    def load_output(self, workload, columns: str) -> checks.LoadOutput:
        """What an import job left in its target, ET and UV tables."""
        query = self.engine.query
        return checks.LoadOutput(
            target_rows=query(
                f"SELECT {columns} FROM {workload.target_table}"),
            et_seqnos=[r[0] for r in query(
                f"SELECT SEQNO FROM {workload.et_table}")],
            uv_seqnos=[r[0] for r in query(
                f"SELECT SEQNO FROM {workload.uv_table}")])

    def reset_load(self, workload) -> None:
        """Empty target, ET and UV so the next job starts alike."""
        for table in (workload.target_table, workload.et_table,
                      workload.uv_table):
            self.engine.execute(f"DROP TABLE IF EXISTS {table}")
        self.engine.execute(workload.ddl)

    def close(self) -> None:
        """Close the feed session, if any, then stop the node."""
        try:
            if self.session is not None:
                self.session.close()
        finally:
            self.stack.close()


def _delivered(result) -> int:
    return (result.rows_inserted + result.et_errors + result.uv_errors
            + result.dq_routed_rows)


class ClosedLoop:
    """One client running jobs back to back for the run's duration."""

    name = ""
    #: ``hostspeed`` task timings taken while the jobs ran.
    task_times: list = []

    def config(self) -> HyperQConfig:
        return HyperQConfig()

    def describe(self) -> dict:
        """The input size (and, after a run, anything else to report)."""
        raise NotImplementedError

    def job(self, env: Env, k: int):
        """Run job ``k``; returns (result, rows, input bytes)."""
        raise NotImplementedError

    def check(self, env: Env, k: int, result) -> list[str]:
        """Problems with job ``k``'s output; resets for the next job."""
        raise NotImplementedError

    def run(self, env: Env, seconds: float, recorder=None
            ) -> list[JobSample]:
        """Start jobs until ``seconds`` have passed (at least one)."""
        samples = []
        sampler = hostspeed.Sampler()
        self.task_times = sampler.times
        started = time.perf_counter()
        k = 0
        try:
            while k == 0 or time.perf_counter() - started < seconds:
                result = self._timed_job(env, k, sampler, recorder, samples)
                if result is None:
                    break
                k += 1
        finally:
            sampler.close()
        return samples

    def _timed_job(self, env: Env, k: int, sampler, recorder, samples):
        """Run, time and check job ``k``; its result, None if it
        failed."""
        with sampler:
            if recorder is not None:
                recorder.begin_job(k, env.probe)
            steal0 = hostspeed.steal_s()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                result, rows, sent = self.job(env, k)
            except Exception as exc:  # counted; the run then stops
                result, rows, sent = None, 0, 0
                problems = [f"job {k} failed: {exc!r}"]
            wall1, cpu1 = time.perf_counter(), time.process_time()
            stolen = hostspeed.steal_s() - steal0
            if recorder is not None:
                recorder.end_job()
        if result is not None:
            problems = self.check(env, k, result)
        samples.append(JobSample(wall1 - wall0, cpu1 - cpu0, rows, sent,
                                 problems, stolen))
        return result


class BulkLoad(ClosedLoop):
    """Sequential clean import jobs of 500-byte rows (Fig 7 shape)."""

    name = "bulk_load"
    ROW_BYTES = 500
    COLUMNS = "REC_ID, REC_NAME, JOIN_DATE, PAYLOAD"

    def __init__(self, rows: int = 16_000, inputs: int = 4):
        self.rows = rows
        self.n_inputs = inputs

    def generate(self, seed: int, seconds: float) -> None:
        self.inputs = [
            make_workload(self.rows, row_bytes=self.ROW_BYTES,
                          seed=seed * 1000 + i, table="PROD.FACT")
            for i in range(self.n_inputs)]
        self.expected = [checks.clean_load_expectation(w)
                         for w in self.inputs]

    def describe(self) -> dict:
        return {"rows_per_job": self.rows, "row_bytes": self.ROW_BYTES,
                "distinct_inputs": self.n_inputs}

    def setup(self) -> Env:
        env = Env(self.config())
        env.sql(self.inputs[0].ddl)
        return env

    def job(self, env: Env, k: int):
        workload = self.inputs[k % self.n_inputs]
        result = env.run_import(workload)
        return result, _delivered(result), len(workload.data)

    def check(self, env: Env, k: int, result) -> list[str]:
        workload = self.inputs[k % self.n_inputs]
        output = env.load_output(workload, self.COLUMNS)
        env.reset_load(workload)
        return checks.check_load(self.expected[k % self.n_inputs], output)


class DirtyApply(BulkLoad):
    """Sequential import jobs of 160-byte rows at ~1% violators."""

    name = "dirty_apply"
    ROW_BYTES = 160
    COLUMNS = "REC_ID, REC_NAME, JOIN_DATE, AMOUNT, REGION, PAYLOAD"
    VIOLATION_RATE = 0.01
    MIX = {"not_null": 1, "range": 1, "regex": 1, "unique": 1}
    #: rule kinds the DQ profile guards; the rest reach Beta's split.
    GUARDED = ("not_null", "range")

    def __init__(self, rows: int = 3_000, inputs: int = 60):
        # Job cost follows the violators that reach Beta, which vary
        # from input to input; a fresh input per job (a run does about
        # 45) keeps the run's job sample from repeating a few of them.
        super().__init__(rows, inputs)

    def generate(self, seed: int, seconds: float) -> None:
        self.dirty = [
            dirty_workload(self.rows, row_bytes=self.ROW_BYTES,
                           seed=seed * 1000 + i,
                           violation_rate=self.VIOLATION_RATE,
                           mix=self.MIX)
            for i in range(self.n_inputs)]
        self.inputs = [d.workload for d in self.dirty]
        self.expected = [checks.dirty_load_expectation(d)
                         for d in self.dirty]

    def describe(self) -> dict:
        return dict(super().describe(),
                    violation_rate=self.VIOLATION_RATE,
                    violators=sum(len(d.violating_rownums)
                                  for d in self.dirty))

    def config(self) -> HyperQConfig:
        return HyperQConfig(dq_profile=[
            rule for rule in self.dirty[0].dq_rules
            if rule["kind"] in self.GUARDED])

    def setup(self) -> Env:
        env = Env(self.config())
        for statement in self.dirty[0].setup_sql:
            env.engine.execute(statement)
        env.sql(self.inputs[0].ddl)
        return env


class Export(ClosedLoop):
    """Sequential export jobs of a filtered, ordered SELECT."""

    name = "export"
    ROW_BYTES = 160
    CUTOFF = "2012-01-01"
    SELECT = ("SELECT REC_ID, REC_NAME, JOIN_DATE, PAYLOAD FROM PROD.SRC "
              f"WHERE JOIN_DATE >= DATE '{CUTOFF}' ORDER BY REC_ID")

    def __init__(self, rows: int = 20_000):
        self.rows = rows

    def generate(self, seed: int, seconds: float) -> None:
        self.source = make_workload(self.rows, row_bytes=self.ROW_BYTES,
                                    seed=seed, table="PROD.SRC")
        self.expected = checks.export_expectation(self.source, self.CUTOFF)

    def describe(self) -> dict:
        return {"source_rows": self.rows, "row_bytes": self.ROW_BYTES,
                "rows_per_job": self.expected.rows}

    def setup(self) -> Env:
        env = Env(self.config())
        env.sql(self.source.ddl)
        env.run_import(self.source)
        return env

    def job(self, env: Env, k: int):
        client = env.client()
        try:
            result = client.run_export(
                ExportJobSpec(select_sql=self.SELECT, sessions=SESSIONS))
        finally:
            client.logoff()
        return result, result.rows_exported, 0

    def check(self, env: Env, k: int, result) -> list[str]:
        return checks.check_export(self.expected, result.rows_exported,
                                   result.data)


class Feed:
    """One stream session sending a micro-batch every ``PERIOD_S``.

    One batch takes about 30 ms on the reference host when batches run
    back to back.  At a 60 ms period (half capacity) the latency of the
    same run spread by up to 26% between runs, as host speed swings were
    amplified by queueing; at 100 ms the gateway is about a third busy
    and the spread stays under 10%.
    """

    name = "feed"
    PERIOD_S = 0.100
    ROW_BYTES = 120
    DATE_ERROR_RATE = 0.005
    FEED = "bench_feed"
    #: least time before a batch is due that a host-speed probe (eight
    #: tasks, about 5 ms) may start.
    PROBE_BEFORE_S = 0.020

    def __init__(self, rows_per_batch: int = 300):
        self.rows_per_batch = rows_per_batch
        #: batch seq -> (rows_inserted, et_errors) from its APPLY reply.
        self.replies: dict[int, tuple] = {}
        #: how long past its due time the generator woke, per batch it
        #: had to wait for; batches that started behind schedule.
        self.late_s: list[float] = []
        self.backlogged = 0
        #: ``hostspeed`` task timings taken between batches.
        self.task_times: list = []

    def generate(self, seed: int, seconds: float) -> None:
        batches = max(int(seconds / self.PERIOD_S), 12)
        self.stream = stream_workload(
            batches=batches, rows_per_batch=self.rows_per_batch,
            row_bytes=self.ROW_BYTES, seed=seed,
            date_error_rate=self.DATE_ERROR_RATE, feed=self.FEED)
        self.expected = checks.feed_expectation(self.stream)

    def describe(self) -> dict:
        manifest = self.stream.manifest
        late = self.late_s or [0.0]
        return {"batches": manifest["batches"],
                "rows_per_batch": self.rows_per_batch,
                "row_bytes": self.ROW_BYTES,
                "period_ms": self.PERIOD_S * 1000,
                "drift_at": [d["seq"] for d in manifest["drift"]],
                "date_errors": sum(map(len, manifest["date_error_rows"]
                                       .values())),
                "generator_late_ms": {
                    "median": statistics.median(late) * 1000,
                    "max": max(late) * 1000},
                "backlogged_batches": self.backlogged}

    def setup(self) -> Env:
        env = Env(HyperQConfig())
        env.sql(self.stream.ddl)
        env.session = StreamSession(
            env.node.connect, feed=self.FEED,
            target_table=self.stream.target_table,
            sessions=SESSIONS).open()
        return env

    def run(self, env: Env, seconds: float, recorder=None
            ) -> list[JobSample]:
        """Send every batch on schedule; each is timed from its due time
        to its commit."""
        samples = []
        self.replies, self.late_s, self.backlogged = {}, [], 0
        self.task_times = []
        t0 = time.perf_counter() + self.PERIOD_S
        for k, batch in enumerate(self.stream.batches):
            due = t0 + k * self.PERIOD_S
            # The gateway is idle between batches (about two thirds of
            # the time): time the host's speed there, if the batch is
            # not yet due.
            if due - time.perf_counter() > self.PROBE_BEFORE_S:
                hostspeed.probe(self.task_times)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = time.perf_counter()
            if delay > 0:
                self.late_s.append(start - due)
            else:
                self.backlogged += 1
            if recorder is not None:
                recorder.begin_job(k, env.probe)
            steal0, cpu0 = hostspeed.steal_s(), time.process_time()
            try:
                result = env.session.run_batch(batch)
            except Exception as exc:  # counted; the feed then stops
                result = None
                problems = [f"batch {k} failed: {exc!r}"]
            end, cpu1 = time.perf_counter(), time.process_time()
            stolen = hostspeed.steal_s() - steal0
            if recorder is not None:
                recorder.end_job(start=due)
            if result is None:
                samples.append(JobSample(end - due, cpu1 - cpu0, 0,
                                         len(batch.data), problems, stolen))
                break
            self.replies[batch.seq] = (result.rows_inserted,
                                       result.et_errors)
            samples.append(JobSample(end - due, cpu1 - cpu0,
                                     result.rows_inserted, len(batch.data),
                                     stolen_s=stolen))
        failed, problems = checks.check_feed(
            self.expected, self.replies, **self.observe(env))
        for seq in failed:
            if seq < len(samples):
                samples[seq].problems.extend(problems)
        return samples

    def observe(self, env: Env) -> dict:
        """What the feed left in its target, ET and UV tables."""
        stream = self.stream
        columns = [c.name for c in env.engine.table(
            stream.target_table).columns]
        query = env.engine.query
        return {
            "target_rows": query(f"SELECT {', '.join(columns)} "
                                 f"FROM {stream.target_table}"),
            "et_seqnos": [r[0] for r in query(
                f"SELECT SEQNO FROM {stream.et_table}")],
            "uv_count": len(query(f"SELECT SEQNO FROM {stream.uv_table}")),
            "columns": columns,
        }


WORKLOADS = {cls.name: cls for cls in (BulkLoad, DirtyApply, Export, Feed)}


def _status_kib(key: str) -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def _reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS counter (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


@dataclass
class Run:
    """Everything one measured run produced."""

    samples: list
    setup_s: list
    peak_rss_mb: float
    info: dict
    layers: dict | None = None
    #: the host's speed during the run as a share of reference speed.
    speed: float = 1.0


def measure(workload, seed: int, seconds: float,
            recorder=None, spans_path: str | None = None) -> Run:
    """Generate, set up ``SETUP_REPEATS`` times, run, check, tear down.

    The peak-RSS baseline is taken after input generation, so
    ``peak_rss_mb`` counts set-up and the run, not the inputs.
    """
    workload.generate(seed, seconds)
    base_kib = _status_kib("VmRSS")
    peak_reset = _reset_peak_rss()
    setup_s = []
    env = None
    fewest, most = SETUP_REPEATS
    while len(setup_s) < fewest or (len(setup_s) < most
                                    and sum(setup_s) < SETUP_MIN_S):
        if env is not None:
            env.close()
        started = time.perf_counter()
        env = workload.setup()
        setup_s.append(time.perf_counter() - started)
    first_job = len(env.node.completed_jobs)
    if recorder is not None:
        recorder.install()
    try:
        samples = workload.run(env, seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
        job_metrics = env.node.completed_jobs[first_job:]
        env.close()
    peak_mb = max(_status_kib("VmHWM") - base_kib, 0) / 1024.0
    times = workload.task_times
    info = {"input": workload.describe(),
            "config_fingerprint": config_fingerprint(env.config),
            "peak_rss_reset": peak_reset,
            "host_speed": {
                "speed": hostspeed.speed(times), "tasks": len(times),
                "task_us_median": (statistics.median(times) * 1e6
                                   if times else None)}}
    run = Run(samples, setup_s, peak_mb, info,
              speed=hostspeed.speed(times))
    if recorder is not None:
        run.layers = tracing.layer_metrics(
            recorder, input_bytes=sum(s.input_bytes for s in samples),
            job_metrics=job_metrics)
        if spans_path is not None:
            recorder.write(spans_path)
            info["spans_file"] = os.path.relpath(spans_path)
    return run


def config_fingerprint(config: HyperQConfig) -> str:
    """Short digest of every effective ``HyperQConfig`` field."""
    text = json.dumps(dataclasses.asdict(config), sort_keys=True,
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(end-to-end metrics, notes on how the tail was taken).

    Every time is multiplied by the run's host speed (``hostspeed``), and
    the jobs' wall times also by the share of the jobs' time that the
    hypervisor did not give to other guests, so that they read as on
    the reference host at its median speed, alone.  CPU time needs no
    such share: the kernel already leaves stolen time out of it.  Nor
    does ``setup_s``: set-ups take a few milliseconds, stolen time comes
    in ticks of ten, and the median of many set-ups already leaves out
    those it hit.  The notes give the unscaled times too.
    """
    samples = run.samples
    n = len(samples)
    rows = sum(s.rows for s in samples)
    available = hostspeed.available(sum(s.stolen_s for s in samples),
                                    sum(s.wall_s for s in samples))
    # The highest percentile with at least ten samples beyond it: the
    # 11th-largest job.  Runs too short for that report their slowest.
    tail_rank = n - 10 if n > 10 else n

    def timing(wall: float, cpu: float, setup: float) -> dict:
        walls = sorted(s.wall_s * wall for s in samples)
        cpu_s = sum(s.cpu_s for s in samples) * cpu
        return {
            "rows_per_s": rows / sum(walls) if sum(walls) > 0 else 0.0,
            "job_p50_ms": statistics.median(walls) * 1000,
            "job_tail_ms": walls[tail_rank - 1] * 1000,
            "cpu_ms_per_krow": cpu_s * 1000 / (rows / 1000) if rows else 0.0,
            "setup_s": statistics.median(run.setup_s) * setup,
        }

    metrics = timing(run.speed * available, run.speed, run.speed)
    metrics["peak_rss_mb"] = run.peak_rss_mb
    metrics["ok_frac"] = sum(s.ok for s in samples) / n
    notes = {"jobs": n, "rows": rows,
             "job_tail_percentile": round(100.0 * tail_rank / n, 1),
             "samples_beyond_tail": n - tail_rank,
             "setups": len(run.setup_s), "host_available": available,
             "unscaled": timing(1.0, 1.0, 1.0)}
    return metrics, notes
