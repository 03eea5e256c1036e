"""Self-test of the benchmark: every workload passes its output checks at
a tiny size, and the checks reject a perturbed expectation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.fixture(autouse=True)
def _tempdir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


def tiny(name: str):
    if name == "bulk_load":
        return workloads.BulkLoad(rows=300, inputs=2)
    if name == "dirty_apply":
        workload = workloads.DirtyApply(rows=600, inputs=2)
        workload.VIOLATION_RATE = 0.05
        return workload
    if name == "export":
        return workloads.Export(rows=400)
    return workloads.Feed(rows_per_batch=40)


def drop_last_line(data: bytes) -> bytes:
    return data[:data.rstrip(b"\n").rfind(b"\n") + 1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_at_tiny_size(name):
    run = workloads.measure(tiny(name), SEED, seconds=0.3)
    assert run.samples
    assert [p for s in run.samples for p in s.problems] == []
    metrics, notes = workloads.end_to_end(run)
    assert metrics["ok_frac"] == 1.0
    assert metrics["rows_per_s"] > 0 and metrics["setup_s"] > 0
    assert notes["jobs"] == len(run.samples)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_times_the_host_speed(name):
    run = workloads.measure(tiny(name), SEED, seconds=0.3)
    assert run.info["host_speed"]["tasks"] > 0
    assert run.speed > 0 and run.speed != 1.0


def test_every_time_is_scaled_by_the_host_speed():
    samples = [workloads.JobSample(wall_s=0.1 * (k + 1), cpu_s=0.05,
                                   rows=100, input_bytes=0)
               for k in range(3)]
    samples[0].stolen_s = 0.15
    run = workloads.Run(samples, setup_s=[0.2, 0.4, 0.3], peak_rss_mb=1.0,
                        info={}, speed=2.0)
    metrics, notes = workloads.end_to_end(run)
    unscaled = notes["unscaled"]
    # A quarter of the jobs' time was stolen.
    assert notes["host_available"] == pytest.approx(0.75)
    assert metrics["job_p50_ms"] == pytest.approx(1.5 * unscaled["job_p50_ms"])
    assert metrics["job_tail_ms"] == pytest.approx(450.0)
    assert metrics["rows_per_s"] == pytest.approx(unscaled["rows_per_s"] / 1.5)
    assert metrics["cpu_ms_per_krow"] == pytest.approx(
        2 * unscaled["cpu_ms_per_krow"])
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert metrics["peak_rss_mb"] == 1.0


def test_sampler_times_tasks_only_while_entered():
    sampler = hostspeed.Sampler()
    try:
        with sampler:
            deadline = time.monotonic() + 5.0
            while not sampler.times and time.monotonic() < deadline:
                time.sleep(0.01)
        taken = len(sampler.times)
        time.sleep(3 * sampler.PERIOD_S)
        assert taken > 0 and len(sampler.times) <= taken + 1
    finally:
        sampler.close()
    assert not sampler._thread.is_alive()
    assert hostspeed.speed([]) == 1.0
    assert hostspeed.speed([2 * hostspeed.REFERENCE_S]) == 0.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(name):
    recorder = tracing.Recorder()
    run = workloads.measure(tiny(name), SEED, seconds=0.3,
                            recorder=recorder)
    assert all(s.ok for s in run.samples)
    for layer in tracing.LAYERS:
        assert f"{layer}.calls" in run.layers
        assert f"{layer}.busy_s" in run.layers
    assert run.layers["gateway.calls"] > 0
    assert 0 < run.layers["job.coverage"] <= 1.0
    assert run.layers["job.count"] == len(run.samples)


def one_load_job(workload):
    """Run job 0 of a tiny load workload; returns its output."""
    workload.generate(SEED, 1.0)
    env = workload.setup()
    try:
        workload.job(env, 0)
        return env.load_output(workload.inputs[0], workload.COLUMNS)
    finally:
        env.close()


def test_clean_load_check_rejects_a_dropped_row():
    workload = tiny("bulk_load")
    output = one_load_job(workload)
    assert checks.check_load(workload.expected[0], output) == []
    short = dataclasses.replace(
        workload.inputs[0], data=drop_last_line(workload.inputs[0].data))
    assert checks.check_load(checks.clean_load_expectation(short), output)


def test_dirty_load_check_rejects_a_dropped_row_and_an_extra_et_row():
    workload = tiny("dirty_apply")
    output = one_load_job(workload)
    expected = workload.expected[0]
    assert expected.rejected, "the tiny input must hold violators"
    assert checks.check_load(expected, output) == []
    kept = next(n for n in range(1, 10) if n not in expected.rejected)
    extra_et = dataclasses.replace(
        expected, rejected=expected.rejected | {kept})
    assert checks.check_load(extra_et, output)
    dirty = workload.dirty[0]
    short = dataclasses.replace(dirty, workload=dataclasses.replace(
        dirty.workload, data=drop_last_line(dirty.workload.data)))
    assert checks.check_load(checks.dirty_load_expectation(short), output)


def test_export_check_rejects_a_dropped_row():
    workload = tiny("export")
    workload.generate(SEED, 1.0)
    env = workload.setup()
    try:
        result, _, _ = workload.job(env, 0)
        assert workload.check(env, 0, result) == []
    finally:
        env.close()
    lines = workload.source.data.splitlines(keepends=True)
    exported = next(i for i, line in enumerate(lines)
                    if line.split(b"|")[2].decode() >= workload.CUTOFF)
    short = dataclasses.replace(
        workload.source, data=b"".join(lines[:exported]
                                       + lines[exported + 1:]))
    expected = checks.export_expectation(short, workload.CUTOFF)
    assert checks.check_export(expected, result.rows_exported, result.data)


def test_feed_check_rejects_an_extra_et_row():
    workload = tiny("feed")
    workload.generate(SEED, 0.0)
    env = workload.setup()
    try:
        samples = workload.run(env, 0.0)
        observed = workload.observe(env)
    finally:
        env.close()
    assert all(s.ok for s in samples)
    errors = workload.stream.manifest["date_error_rows"]
    seq = workload.stream.batches[0].seq
    errors[seq] = sorted(set(errors.get(seq, ())) | {1})
    perturbed = checks.feed_expectation(workload.stream)
    failed, problems = checks.check_feed(perturbed, workload.replies,
                                         **observed)
    assert seq in failed and problems
