"""Run one workload of the gateway benchmark and print its metrics.

    python3 perfbench/run.py --workload bulk_load --seed 1 --seconds 15 \\
        --trace 0

Run from the root of a checkout.  The program under test is the
``repro`` package in ``src/``; without it the command exits with code 2
and prints no result.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, where
``--trace 0`` gives the end-to-end metrics and ``--trace 1`` the
per-layer ones.  Times are scaled by the host's speed and stolen time
during the run (``hostspeed.py``).  The line before it holds the run's
provenance and notes (input size, tail percentile, sample count, host
speed, unscaled times).  Every file the run writes goes under
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

#: the unit of every metric the command prints.
UNITS = {
    "rows_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "cpu_ms_per_krow": "ms", "peak_rss_mb": "MiB", "setup_s": "s",
    "ok_frac": "ratio",
}


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix == "rows_per_s":
        return "1/s"
    if suffix.endswith("_s"):
        return "s"
    if suffix == "bytes":
        return "bytes"
    if suffix in ("ok_ratio", "hit_ratio", "coverage",
                  "bytes_per_input_byte"):
        return "ratio"
    return "count"


def git_rev() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") \
                as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of every ``src/`` Python file: the code's identity even in
    a checkout without git metadata."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def single_malloc_arena() -> bool:
    """Make glibc malloc use one arena for every thread of the process.

    With the default per-thread arenas, which arena each new connection
    or pipeline thread lands in decides how much freed memory stays
    unusable, and ``bulk_load``'s peak RSS flips between about 100 and
    130 MiB from run to run; with one arena it reads about 40 MiB every
    time.  Call before the first thread starts.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_arena_max = -8
    return mallopt(m_arena_max, 1) == 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk_load", "dirty_apply", "export",
                                 "feed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    one_arena = single_malloc_arena()
    sys.path.insert(0, SRC)
    sys.dont_write_bytecode = True
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    # Node staging areas and feed journals are temporary directories:
    # keep them inside the checkout.
    tempfile.tempdir = scratch
    try:
        return _run(args, one_arena)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, one_arena: bool) -> int:
    import workloads
    from tracing import Recorder

    workload = workloads.WORKLOADS[args.workload]()
    recorder = Recorder() if args.trace else None
    spans_path = os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.jsonl") \
        if args.trace else None
    run = workloads.measure(workload, args.seed, args.seconds,
                            recorder=recorder, spans_path=spans_path)
    metrics, notes = workloads.end_to_end(run)
    if args.trace:
        chosen = dict(run.layers)
        chosen["trace.rows_per_s"] = metrics["rows_per_s"]
        units = {name: _layer_unit(name) for name in chosen}
    else:
        chosen = metrics
        units = UNITS
    failed = sum(not s.ok for s in run.samples)
    problems = [p for s in run.samples for p in s.problems]
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_rev": git_rev(), "src_digest": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "malloc_arenas": 1 if one_arena else "default",
        "transport": "tcp-loopback",
        "sessions_per_job": workloads.SESSIONS,
        **notes, **run.info,
        "problems": problems[:10],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
