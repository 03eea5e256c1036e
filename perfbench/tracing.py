"""Per-layer spans recorded from outside the program.

:class:`Recorder` wraps public calls of the ``repro`` modules that make
up one record's path through the gateway (see ``LAYERS``) and records a
span per call: name, start, end, parent span, thread and benchmark job.
Nothing under ``src/`` changes; the wrappers are installed on the
classes for the duration of a traced run and removed afterwards.

Spans are recorded only while a job is open (:meth:`Recorder.begin_job`
to :meth:`Recorder.end_job`), so set-up and the benchmark's own output
checks never show up as layer time.  :func:`layer_metrics` turns the
spans into the per-layer metrics the traced run prints.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import threading
import time

#: statement classes of ``CdwEngine.execute``, by parsed node type.
_ENGINE_CLASS = {
    "CopyInto": "copy",
    "Insert": "dml", "Update": "dml", "Delete": "dml", "Merge": "dml",
    "Upsert": "dml",
    "Select": "select", "SetOp": "select",
}
#: the same classes by leading keyword, for SQL handed over as text.
_ENGINE_KEYWORD = {
    "COPY": "copy", "INSERT": "dml", "UPDATE": "dml", "DELETE": "dml",
    "MERGE": "dml", "SELECT": "select", "WITH": "select",
}

#: gateway message kinds reported with their own self time, keyed by
#: the wire name of the kind.
GATEWAY_KINDS = {
    "LOGON": "LOGON", "SQL_REQUEST": "SQL", "BEGIN_LOAD": "BEGIN_LOAD",
    "DATA": "DATA", "APPLY_DML": "APPLY", "END_LOAD": "END_LOAD",
    "BEGIN_EXPORT": "BEGIN_EXPORT", "EXPORT_FETCH": "EXPORT_FETCH",
}

ENGINE_LAYERS = ("engine.copy", "engine.dml", "engine.select", "engine.ddl")

#: every layer, in the order of one record's path through the gateway.
LAYERS = ("gateway", "protocol", "credits", "converter", "filewriter",
          "bulkloader") + ENGINE_LAYERS + (
          "plancache", "beta", "dq", "checkpoint", "tdfcursor", "tdf")


def _engine_layer(args) -> str:
    statement = args[1]
    if isinstance(statement, str):
        keyword = statement.lstrip().split(None, 1)[0].upper()
        kind = _ENGINE_KEYWORD.get(keyword, "ddl")
    else:
        kind = _ENGINE_CLASS.get(type(statement).__name__, "ddl")
    return f"engine.{kind}"


def _engine_extra(layer, args, result):
    if layer == "engine.copy":
        return {"rows": result.activity_count}
    if layer == "engine.select" and result.kind == "rows":
        return {"rows": len(result.rows)}
    return None


def _staged_extra(layer, args, result):
    if result is None:
        return None
    return {"bytes": result.size, "files": 1}


#: (layer, module, class or None for a module function, attribute,
#: op, extra) — ``op`` names the call inside its layer (a callable
#: derives it from the call's arguments), ``extra`` returns the counts
#: a call contributes from its arguments and result.
TARGETS = (
    ("gateway", "repro.core.gateway", "HyperQNode", "handle_message",
     lambda args: GATEWAY_KINDS.get(args[2].kind.name, "OTHER"), None),
    ("protocol", "repro.legacy.protocol", "MessageChannel", "send",
     "send", None),
    # The receive side is timed at frame decoding: a blocking recv()
    # mostly waits for the peer, which is the peer's layer time.
    ("protocol", "repro.legacy.protocol", "Coalescer", "feed", "decode",
     lambda layer, args, result: {"bytes": len(args[1])}),
    ("credits", "repro.core.credits", "CreditManager", "acquire",
     "acquire", None),
    ("converter", "repro.core.converter", "DataConverter", "convert",
     "convert",
     lambda layer, args, result: {"records": result.records,
                                  "errors": len(result.errors)}),
    ("filewriter", "repro.core.filewriter", "FileWriter", "append",
     "append", _staged_extra),
    ("filewriter", "repro.core.filewriter", "FileWriter", "flush",
     "flush", _staged_extra),
    ("bulkloader", "repro.cdw.bulkloader", "CloudBulkLoader",
     "upload_file", "upload_file", None),
    ("bulkloader", "repro.cdw.cloudstore", "CloudStore", "put_blob",
     "put_blob", lambda layer, args, result: {"bytes": len(args[3])}),
    ("bulkloader", "repro.cdw.cloudstore", "CloudStore", "get_blob",
     "get_blob", None),
    (_engine_layer, "repro.cdw.engine", "CdwEngine", "execute",
     "execute", _engine_extra),
    ("plancache", "repro.plancache", "PlanCache", "get_or_compile",
     "lookup", None),
    ("beta", "repro.core.beta", "Beta", "apply_dml", "apply_dml", None),
    ("dq", "repro.dq.precheck", "DqPrechecker", "check_range",
     "check_range",
     lambda layer, args, result: {"routed_rows": len(result.routed)}),
    ("checkpoint", "repro.resilience.checkpoint", "CheckpointJournal",
     "compact", "compact", None),
    ("tdfcursor", "repro.core.tdfcursor", "TdfCursor", "packet",
     "packet", None),
    ("tdf", "repro.core.tdf", None, "encode_packet", "encode_packet",
     lambda layer, args, result: {"bytes": len(result)}),
)

#: every ``CheckpointJournal.record_*`` method is a checkpoint call.
_CHECKPOINT_RECORDS = ("record_ack", "record_staged", "record_uploaded",
                       "record_copy", "record_eager_copy",
                       "record_eager_apply", "record_dq_route",
                       "record_stream_commit", "record_stream_drift")


def _targets():
    yield from TARGETS
    for method in _CHECKPOINT_RECORDS:
        yield ("checkpoint", "repro.resilience.checkpoint",
               "CheckpointJournal", method, "record", None)


#: one recorded call; ``parent`` is the enclosing span's id on the same
#: thread (-1 for none), ``extra`` the counts the call contributed.
Span = collections.namedtuple(
    "Span", "id layer op start end parent thread job error extra")


class Recorder:
    """Records spans at public layer calls while a job is open."""

    def __init__(self):
        self.spans: list[Span] = []
        #: benchmark job the next spans belong to (None: not recording).
        self.job = None
        #: [(job, start, end)] of every closed job.
        self.jobs: list[tuple] = []
        #: program counters read at job boundaries, summed over jobs.
        self.deltas: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._probe = None
        self._job_start = 0.0
        self._before: dict[str, float] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target call."""
        for layer, module_name, class_name, attr, op, extra in _targets():
            module = importlib.import_module(module_name)
            owner = module if class_name is None \
                else getattr(module, class_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, op, extra, original,
                                            generator=attr == "feed"))

    def uninstall(self) -> None:
        """Restore the original calls."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, op, extra, fn, generator: bool):
        recorder = self
        next_id = self._ids.__next__
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = recorder.job
            if job is None:
                return fn(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            kind = op(args) if callable(op) else op
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next_id()
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            counts = None
            error = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # Coalescer.feed yields lazily; its callers drain it
                    # at once, so draining here times the decoding.
                    result = list(result)
                if extra is not None:
                    counts = extra(name, args, result)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                recorder.spans.append(Span(
                    span_id, name, kind, start, end, parent,
                    threading.get_ident(), job, error, counts))

        return wrapper

    # -- job windows -------------------------------------------------------

    def begin_job(self, job, probe=None) -> None:
        """Open job ``job``; ``probe()`` returns program counters to
        difference over the job (credit wait, plan-cache hits, ...)."""
        self._probe = probe
        self._before = probe() if probe is not None else {}
        self._job_start = time.perf_counter()
        self.job = job

    def end_job(self, start: float | None = None) -> None:
        """Close the open job; ``start`` overrides its window start
        (an open-loop job is timed from its due time)."""
        end = time.perf_counter()
        job, self.job = self.job, None
        self.jobs.append((job, self._job_start if start is None
                          else start, end))
        if self._probe is not None:
            after = self._probe()
            for key, value in after.items():
                self.deltas[key] = (self.deltas.get(key, 0.0) + value
                                    - self._before.get(key, 0.0))

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span._asdict()) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {
        span.id: (span.end - span.start) - _union_length(
            children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_metrics(recorder: Recorder, *, input_bytes: int,
                  job_metrics) -> dict:
    """Per-layer metrics from a recorder's spans and job windows.

    ``job_metrics`` are the program's own ``JobMetrics`` of the jobs
    the recorder saw (``HyperQNode.completed_jobs``); ``input_bytes``
    is what the client sent in those jobs.

    ``calls`` and ``busy_s`` count only the outermost span of a layer
    on a thread, so a layer calling itself (an upload that stores a
    blob) is not counted twice.
    """
    spans = recorder.spans
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_s"] = 0.0
    for kind in GATEWAY_KINDS.values():
        out[f"gateway.{kind}.self_s"] = 0.0
    sums: dict[str, float] = {}
    failed_dml = 0
    compact_s = 0.0
    for span in spans:
        layer = span.layer
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.layer != layer:
            ancestor = by_id.get(ancestor.parent)
        for key, value in (span.extra or {}).items():
            sums[f"{layer}.{key}"] = sums.get(f"{layer}.{key}", 0) + value
        if ancestor is not None:
            continue  # nested in a call of the same layer
        duration = span.end - span.start
        out[f"{layer}.calls"] += 1
        out[f"{layer}.busy_s"] += duration
        if layer == "gateway" and span.op in GATEWAY_KINDS.values():
            out[f"gateway.{span.op}.self_s"] += own[span.id]
        elif layer == "checkpoint" and span.op == "compact":
            compact_s += duration
        elif layer == "engine.dml" and span.error:
            failed_dml += 1

    dml_calls = out["engine.dml.calls"]
    staged = sums.get("filewriter.bytes", 0)
    deltas = recorder.deltas
    lookups = deltas.get("plan_hits", 0) + deltas.get("plan_misses", 0)
    out.update({
        "protocol.bytes": sums.get("protocol.bytes", 0),
        "credits.wait_s": deltas.get("credit_wait_s", 0.0),
        "converter.records": sums.get("converter.records", 0),
        "converter.errors": sums.get("converter.errors", 0),
        "filewriter.bytes": staged,
        "filewriter.files": sums.get("filewriter.files", 0),
        "filewriter.bytes_per_input_byte":
            staged / input_bytes if input_bytes else 0.0,
        "bulkloader.bytes": sums.get("bulkloader.bytes", 0),
        "engine.copy.rows": sums.get("engine.copy.rows", 0),
        "engine.dml.failed": failed_dml,
        "engine.dml.ok_ratio":
            (dml_calls - failed_dml) / dml_calls if dml_calls else 0.0,
        "engine.select.rows": sums.get("engine.select.rows", 0),
        "plancache.hit_ratio":
            deltas.get("plan_hits", 0) / lookups if lookups else 0.0,
        "beta.split_retries": sum(m.chunk_retries for m in job_metrics),
        "beta.dml_statements": sum(m.dml_statements for m in job_metrics),
        "dq.routed_rows": sums.get("dq.routed_rows", 0),
        "checkpoint.compact.busy_s": compact_s,
        "tdf.bytes": sums.get("tdf.bytes", 0),
    })

    # Coverage: the share of job wall time inside at least one span.
    intervals: dict = {}
    for span in spans:
        intervals.setdefault(span.job, []).append((span.start, span.end))
    wall = covered = 0.0
    for job, start, end in recorder.jobs:
        wall += end - start
        covered += _union_length(intervals.get(job, ()), start, end)
    out.update({
        "job.count": len(recorder.jobs),
        "job.wall_s": wall,
        "job.acquisition_s": sum(m.acquisition_s for m in job_metrics),
        "job.application_s": sum(m.application_s for m in job_metrics),
        "job.other_s": sum(m.other_s for m in job_metrics),
        "job.coverage": covered / wall if wall else 0.0,
    })
    return out
