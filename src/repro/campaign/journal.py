"""Crash-safe append-only JSONL journal for campaign progress.

Every record is one line::

    {"crc": 2774120735, "data": {"event": "finish", ...}}

where ``crc`` is the CRC-32 of the canonical JSON serialization of
``data``.  Appends are flushed and fsync'ed, so after a crash the journal
contains every completed record plus at most one torn line at the tail.
The loader therefore tolerates exactly the corruption a crash can
produce — a truncated or garbled *final* line — silently, and skips (but
counts) corrupt lines elsewhere; ``strict=True`` turns mid-file
corruption into a :class:`~repro.errors.JournalError` instead.

Event vocabulary written by the runner:

* ``enqueue`` — the job spec, journaled once so a campaign can resume
  from the journal alone;
* ``start`` — one attempt began (job id, attempt number, method, budget);
* ``attempt_failed`` — the attempt ended without a verdict (budget
  exhausted, injected fault, a worker process that died mid-job —
  error ``WorkerCrashed``, ...), and why;
* ``finish`` — the job reached a terminal state; the full
  :class:`~repro.campaign.jobs.JobResult` payload;
* ``callback_error`` — the user's ``on_result`` callback raised; the
  exception was contained and the campaign continued.

A job with a ``start`` but no ``finish`` was in flight when the process
died and is re-run on resume; a job with a ``finish`` is never re-run.

The journal has exactly one writer.  In parallel campaigns
(``CampaignRunner(..., workers=N)``) the worker processes stream their
would-be records to the parent over a result queue and the parent alone
appends them, so records of concurrent jobs interleave but every per-job
subsequence reads exactly like a sequential run's.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import JournalError

__all__ = ["Journal", "JournalReplay", "JournalTailer"]


def _canonical(data: Dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _checksum(payload: str) -> int:
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


class Journal:
    """Append-only writer; see the module docstring for the format."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    def append(self, data: Dict[str, Any]) -> None:
        """Durably append one record (flush + fsync)."""
        payload = _canonical(data)
        line = json.dumps({"crc": _checksum(payload), "data": data},
                          sort_keys=True)
        self._file.write(line + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- fault-injection seam -------------------------------------------

    def corrupt_tail(self, nbytes: int = 24) -> None:
        """Overwrite the last ``nbytes`` with garbage (simulates a torn
        write at crash time; used by the fault harness and tests)."""
        self._file.flush()
        with open(self.path, "r+b") as raw:
            raw.seek(0, os.SEEK_END)
            size = raw.tell()
            raw.seek(max(0, size - nbytes))
            raw.write(b"\x00garbage\x00" * (nbytes // 9 + 1))
            raw.truncate(size)

    # -- loading ---------------------------------------------------------

    @staticmethod
    def load(path: str, strict: bool = False) -> "JournalReplay":
        """Replay a journal, tolerating crash-shaped corruption."""
        records: List[Dict[str, Any]] = []
        corrupt: List[Tuple[int, str]] = []
        if not os.path.exists(path):
            return JournalReplay(records=records, corrupt_lines=0,
                                 torn_tail=False)
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            lines = handle.read().splitlines()
        last_content = -1
        for index, line in enumerate(lines):
            if line.strip():
                last_content = index
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            data = _decode_line(line)
            if data is None:
                corrupt.append((index + 1, line[:80]))
                continue
            records.append(data)
        torn_tail = bool(corrupt) and corrupt[-1][0] == last_content + 1
        mid_file = corrupt[:-1] if torn_tail else corrupt
        if strict and mid_file:
            lineno, snippet = mid_file[0]
            raise JournalError(
                f"{path}:{lineno}: corrupt journal record {snippet!r}"
            )
        return JournalReplay(
            records=records,
            corrupt_lines=len(mid_file),
            torn_tail=torn_tail,
        )


def _decode_line(line: str) -> Optional[Dict[str, Any]]:
    try:
        wrapper = json.loads(line)
    except ValueError:
        return None
    if not isinstance(wrapper, dict) or "data" not in wrapper:
        return None
    data = wrapper["data"]
    if not isinstance(data, dict):
        return None
    if wrapper.get("crc") != _checksum(_canonical(data)):
        return None
    return data


class JournalReplay:
    """Parsed journal contents plus derived campaign state."""

    def __init__(self, records: List[Dict[str, Any]], corrupt_lines: int,
                 torn_tail: bool) -> None:
        self.records = records
        #: mid-file corrupt lines that were skipped (not the torn tail).
        self.corrupt_lines = corrupt_lines
        #: True when the final line was torn (the crash signature).
        self.torn_tail = torn_tail

    def events(self, kind: str) -> Iterator[Dict[str, Any]]:
        return (rec for rec in self.records if rec.get("event") == kind)

    def job_specs(self) -> Dict[str, Dict[str, Any]]:
        """Job specs journaled by ``enqueue`` events, in order.

        Raises :class:`JournalError` naming the first ``enqueue`` record
        whose job is not an object with a string ``job_id``.
        """
        specs: Dict[str, Dict[str, Any]] = {}
        for rec in self.events("enqueue"):
            job = rec.get("job")
            if not isinstance(job, dict) \
                    or not isinstance(job.get("job_id"), str):
                raise JournalError(
                    f"enqueue record {rec!r} holds no job object with a "
                    "string job_id"
                )
            specs.setdefault(job["job_id"], job)
        return specs

    def finished(self) -> Dict[str, Dict[str, Any]]:
        """Terminal results by job id (later records win)."""
        done: Dict[str, Dict[str, Any]] = {}
        for rec in self.events("finish"):
            if "job_id" in rec:
                done[rec["job_id"]] = rec
        return done

    def failed_attempts(self) -> Dict[Tuple[str, str], int]:
        """Count of recorded failed attempts per (job_id, method).

        Resume semantics: an attempt with a ``start`` but neither
        ``attempt_failed`` nor ``finish`` was in flight at the crash and
        is *re-run* with the same escalated budget, so only explicitly
        failed attempts advance the escalation schedule.
        """
        counts: Dict[Tuple[str, str], int] = {}
        for rec in self.events("attempt_failed"):
            key = (rec.get("job_id", ""), rec.get("method", ""))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def callback_errors(self) -> List[Dict[str, Any]]:
        """``callback_error`` records, in journal order."""
        return list(self.events("callback_error"))

    def in_flight(self) -> Dict[str, Dict[str, Any]]:
        """Jobs that started but never reached a terminal state."""
        finished = self.finished()
        open_jobs: Dict[str, Dict[str, Any]] = {}
        for rec in self.events("start"):
            job_id = rec.get("job_id")
            if job_id and job_id not in finished:
                open_jobs[job_id] = rec
        return open_jobs


class JournalTailer:
    """Incremental journal reader safe to run *while the writer appends*.

    :meth:`Journal.load` is replay-time machinery: it reads the whole
    file once, after the writer is gone, and classifies a bad final line
    as the crash's torn tail.  A live reader has a harder problem — the
    single writer appends ``line + "\\n"`` and then flushes, so a reader
    polling mid-append can observe a *prefix* of the final line (no
    newline yet, or a newline-terminated line whose CRC does not check
    out on a filesystem that exposes partial writes).  That torn tail is
    transient: the very next poll (after the writer's flush completes)
    sees the full line.

    The tailer therefore never consumes the tail until it is provably
    complete:

    * only newline-terminated lines are even considered — a trailing
      fragment stays in the file (the offset does not advance past it);
    * a *final* newline-terminated line that fails CRC/decode is held
      back too, and re-read on the next poll, because it may still be
      mid-flush; it is surfaced only once a *later* line supersedes it
      (at which point it is genuine corruption, counted in
      :attr:`corrupt_lines` like replay does);
    * mid-file garbage (a previous crash's torn tail that the writer has
      since appended past) is skipped and counted, never returned.

    Use one tailer per reader; it keeps a private byte offset.  Polling
    is cheap (one ``seek`` + incremental read), so status endpoints can
    poll at sub-second intervals.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._offset = 0
        #: decoded-and-rejected lines that were superseded by later
        #: records (mid-file corruption; never the live tail).
        self.corrupt_lines = 0

    def poll(self) -> List[Dict[str, Any]]:
        """Every record durably appended since the last poll.

        Returns an empty list when the journal does not exist yet, has
        not grown, or has grown only by an incomplete tail.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        # Consume only up to the last newline: anything after it is a
        # fragment the writer is still flushing.
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return []
        raw_lines = chunk[: cut + 1].split(b"\n")[:-1]
        records: List[Dict[str, Any]] = []
        consumed = 0       # bytes of validated territory to advance past
        held_bytes = 0     # bytes of trailing bad lines held back
        pending_bad = 0    # bad lines not yet superseded by a later one
        for raw in raw_lines:
            nbytes = len(raw) + 1
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                consumed += held_bytes + nbytes
                self.corrupt_lines += pending_bad
                held_bytes = pending_bad = 0
                continue
            data = _decode_line(line)
            if data is None:
                # Maybe mid-flush: hold back unless a later line exists.
                pending_bad += 1
                held_bytes += nbytes
                continue
            self.corrupt_lines += pending_bad
            pending_bad = 0
            records.append(data)
            consumed += held_bytes + nbytes
            held_bytes = 0
        # The offset advances only past fully-validated territory; held
        # back bad tail lines are re-read (and re-validated) next poll.
        self._offset += consumed
        return records
