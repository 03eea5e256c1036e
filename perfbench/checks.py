"""Output checks against the generators' ground truth.

Every check takes an expectation built from the generated input (never
from the program's output) and what the job left behind, and returns
the list of problems it found; an empty list means the output is right.
The checks run outside the timed region of each job.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

_MASK = (1 << 64) - 1


def _row_key(row) -> bytes:
    return "\x1f".join("\x00" if value is None else str(value)
                       for value in row).encode("utf-8")


def digest_rows(rows) -> tuple[int, int]:
    """(row count, order-independent digest) of a collection of rows.

    The digest sums a 64-bit hash of each row, so it ignores row order
    but sees every dropped, added, duplicated or altered row.
    """
    count = total = 0
    for row in rows:
        count += 1
        total += int.from_bytes(
            hashlib.blake2b(_row_key(row), digest_size=8).digest(), "little")
    return count, total & _MASK


def _lines(data: bytes) -> list[list[str]]:
    return [line.split("|") for line in data.decode("utf-8").splitlines()]


@dataclass(frozen=True)
class LoadExpectation:
    """What one import job must leave behind."""

    #: (count, digest) of the rows the target table must hold.
    target: tuple[int, int]
    #: 1-based input row numbers that must land in ET ∪ UV.
    rejected: frozenset


@dataclass(frozen=True)
class LoadOutput:
    """What one import job left behind."""

    target_rows: list
    et_seqnos: list
    uv_seqnos: list


def clean_load_expectation(workload) -> LoadExpectation:
    """A clean ``make_workload`` load: every input row, nothing rejected."""
    return LoadExpectation(digest_rows(_lines(workload.data)), frozenset())


def dirty_load_expectation(dirty) -> LoadExpectation:
    """A ``dirty_workload`` load judged the way the legacy EDW applies it.

    Rows breaking the not-null, range, regex or referential rules are
    rejected wherever they sit.  A repeated REC_ID is rejected only
    when an earlier row with that key survived: the manifest's raw
    uniqueness verdict also lists a repeat of a key whose first row
    was itself rejected, and that repeat loads.
    """
    failing: set[int] = set()
    for rule_id, rownums in dirty.manifest.items():
        if rule_id != "rec_unique":
            failing.update(rownums)
    seen: set[str] = set()
    rejected: set[int] = set()
    kept = []
    for rownum, (rec_id, name, date, amount, region, payload) in \
            enumerate(_lines(dirty.workload.data), start=1):
        if rownum in failing or rec_id in seen:
            rejected.add(rownum)
            continue
        seen.add(rec_id)
        kept.append((rec_id, name, date, int(amount), region, payload))
    return LoadExpectation(digest_rows(kept), frozenset(rejected))


def check_load(expected: LoadExpectation, output: LoadOutput) -> list[str]:
    """Problems with an import job's target, ET and UV tables."""
    problems = []
    target = digest_rows(output.target_rows)
    if target[0] != expected.target[0]:
        problems.append(f"target holds {target[0]} rows, "
                        f"expected {expected.target[0]}")
    elif target != expected.target:
        problems.append("target content differs from the input")
    rejected = list(output.et_seqnos) + list(output.uv_seqnos)
    if len(rejected) != len(set(rejected)):
        problems.append("a row number appears twice in ET/UV")
    if set(rejected) != expected.rejected:
        missing = sorted(expected.rejected - set(rejected))[:5]
        extra = sorted(set(rejected) - expected.rejected)[:5]
        problems.append(f"ET/UV rows differ: missing {missing}, "
                        f"unexpected {extra}")
    return problems


@dataclass(frozen=True)
class ExportExpectation:
    """What one export job must return."""

    rows: int
    sha256: str


def export_expectation(workload, cutoff: str) -> ExportExpectation:
    """Rows of a clean load with JOIN_DATE >= ``cutoff``, by REC_ID,
    rendered the way the client writes a VARTEXT export."""
    rows = sorted((fields for fields in _lines(workload.data)
                   if fields[2] >= cutoff), key=lambda fields: fields[0])
    rendered = "".join("|".join(fields) + "\n" for fields in rows)
    return ExportExpectation(
        len(rows), hashlib.sha256(rendered.encode("utf-8")).hexdigest())


def check_export(expected: ExportExpectation, rows: int,
                 data: bytes) -> list[str]:
    """Problems with an export job's result."""
    if rows != expected.rows:
        return [f"exported {rows} rows, expected {expected.rows}"]
    if hashlib.sha256(data).hexdigest() != expected.sha256:
        return ["exported bytes differ from the expected rendering"]
    return []


@dataclass(frozen=True)
class FeedExpectation:
    """What a scripted stream feed must leave behind."""

    #: batch seq -> (committed rows, ET rows) of that batch.
    batches: dict
    #: batch seq -> (count, digest) of its rows in the target.
    target: dict
    #: multiset of ET row numbers (within-batch, 1-based).
    et_rownums: Counter
    final_columns: tuple


def feed_expectation(stream) -> FeedExpectation:
    """Every row of a ``stream_workload`` except its date errors."""
    errors = stream.manifest["date_error_rows"]
    final_width = len(stream.manifest["final_columns"])
    batches, target = {}, {}
    et = Counter()
    for batch in stream.batches:
        bad = set(errors.get(batch.seq, ()))
        rows = [tuple(fields) + (None,) * (final_width - len(fields))
                for rownum, fields in enumerate(_lines(batch.data), 1)
                if rownum not in bad]
        batches[batch.seq] = (len(rows), len(bad))
        target[batch.seq] = digest_rows(rows)
        et.update(bad)
    return FeedExpectation(batches, target, et,
                           tuple(stream.manifest["final_columns"]))


def feed_batch_of(rec_id: str) -> int:
    """Batch seq encoded in a stream REC_ID (``R<seq:04d><row:05d>``)."""
    return int(rec_id[1:5])


def check_feed(expected: FeedExpectation, replies: dict, target_rows,
               et_seqnos, uv_count: int, columns) -> tuple[set, list]:
    """(failed batch seqs, problems) of a finished feed.

    ``replies`` maps batch seq -> (rows_inserted, et_errors) as the
    gateway answered each APPLY.  A batch fails when its reply or its
    target rows differ; a wrong ET, UV or final schema fails them all.
    """
    problems = []
    failed = set()
    by_batch: dict[int, list] = {}
    for row in target_rows:
        by_batch.setdefault(feed_batch_of(row[0]), []).append(row)
    for seq, counts in expected.batches.items():
        if replies.get(seq) != counts:
            failed.add(seq)
            problems.append(f"batch {seq}: reply {replies.get(seq)}, "
                            f"expected {counts}")
        elif digest_rows(by_batch.get(seq, ())) != expected.target[seq]:
            failed.add(seq)
            problems.append(f"batch {seq}: target rows differ")
    shared = []
    strays = sorted(set(by_batch) - set(expected.batches))
    if strays:
        shared.append(f"target rows of unknown batches {strays[:5]}")
    if Counter(et_seqnos) != expected.et_rownums:
        shared.append("ET rows differ from the date-error rows")
    if uv_count:
        shared.append(f"{uv_count} unexpected UV rows")
    if tuple(columns) != expected.final_columns:
        shared.append(f"final columns {tuple(columns)}, "
                      f"expected {expected.final_columns}")
    if shared:
        failed = set(expected.batches)
    return failed, problems + shared
