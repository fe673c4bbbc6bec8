"""Process-parallel campaign execution: a pool that runs attempts.

Topology: :class:`WorkerPool` keeps up to ``size`` :mod:`multiprocessing`
workers.  The campaign runner hands it one attempt at a time — the job,
the attempt number, the attempt's budgets and the job's faults — and a
worker runs exactly that attempt (:func:`~repro.campaign.executor.run_attempt`)
and answers with one ``done`` message holding its outcome.  Everything
else — the attempt numbers, the retry decision, every journal record —
belongs to :class:`~repro.campaign.runner.CampaignRunner`, the journal's
single writer: this module holds no journal handle.

Durability: the result queue is a ``SimpleQueue``, whose ``put`` writes
synchronously to the pipe under a lock — no feeder thread, so every
message a worker sent before dying is readable by the parent.  A worker
that dies mid-attempt (an :class:`~repro.campaign.faults.InjectedCrash`,
a segfault, an OOM kill) is detected by process liveness and its attempt
reported as failed with error ``WorkerCrashed``; the runner settles it
like any recoverable failure, so a job that crashes its worker on every
attempt ends ``INCONCLUSIVE`` after ``max_attempts`` crashes.

Liveness: a crashed worker is visible to process polling, but a *wedged*
one — livelocked in a C extension, swapping, deadlocked — stays alive and
silent forever.  Every worker therefore runs its attempt under an
ambient heartbeat :class:`~repro.guard.Deadline`: the pipeline's own
deadline check sites double as heartbeat emitters, sending throttled
``heartbeat`` messages over the result queue, ten per ``hang_timeout``
(:data:`BEATS_PER_HANG_TIMEOUT`).  A busy worker silent for
``hang_timeout`` seconds is declared hung: the pool reads the queue once
more (a beat may be in flight), then escalates ``terminate()`` →
``kill()`` and reports the attempt as failed with error ``WorkerHung``.
A lost worker is replaced when the next attempt needs one.

Orphans: a campaign killed outright sends its workers no sentinel.  A
worker therefore waits for its next task one heartbeat interval at a
time and, after each wait and before each beat, checks that the
campaign process that spawned it is still its parent; once it is not,
the worker exits.

Fault plans are partitioned deterministically by job id
(:meth:`FaultPlan.for_job`), so ``workers=N`` fires the same injected
faults as an in-process run of the same plan.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Optional

from ..guard.deadline import Deadline
from .executor import AttemptFailure, Budgets, Ended, run_attempt
from .faults import Fault, FaultPlan, InjectedCrash
from .jobs import Job, JobResult

__all__ = [
    "WorkerPool",
    "BEATS_PER_HANG_TIMEOUT",
    "WORKER_CRASH_ERROR",
    "WORKER_HUNG_ERROR",
]

#: Heartbeats a busy worker sends per ``hang_timeout``: its heartbeat
#: interval is ``hang_timeout / BEATS_PER_HANG_TIMEOUT``, so a worker
#: reads as hung only after ten beat intervals of silence.
BEATS_PER_HANG_TIMEOUT = 10

#: ``error`` value journaled for attempts whose worker process died.
WORKER_CRASH_ERROR = "WorkerCrashed"

#: ``error`` value journaled for attempts whose worker went silent past
#: the hang timeout and had to be killed by the parent.
WORKER_HUNG_ERROR = "WorkerHung"

#: Exit status a worker uses to simulate process death on InjectedCrash
#: (os._exit: no cleanup, no queue flushing — as close to kill -9 as a
#: Python exception can get).
_CRASH_EXIT_CODE = 70

def _campaign_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (cheap, inherits verify_fn closures);
    spawn otherwise — worker task messages are picklable either way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_main(
    worker_id: int, parent: int, inbox: Any, outbox: Any,
    options: Dict[str, Any],
) -> None:
    """Worker entry: run one attempt per task until the ``None`` sentinel,
    or until the campaign process ``parent`` is gone — a killed campaign
    sends no sentinel, and its workers must not outlive it."""
    verify_fn = options["verify_fn"]
    if verify_fn is None:
        from ..core.verifier import verify as verify_fn
    interval = options["heartbeat_interval"]

    def beat(stage: str) -> None:
        if os.getppid() != parent:
            os._exit(0)  # orphaned mid-attempt: nobody awaits the outcome
        outbox.put({"event": "heartbeat", "worker": worker_id})

    while True:
        if not inbox._reader.poll(interval):
            if os.getppid() != parent:
                return
            continue
        task = inbox.get()
        if task is None:
            return
        faults = [Fault.from_dict(spec) for spec in task["faults"]]
        try:
            outcome, metrics = run_attempt(
                Job.from_dict(task["job"]),
                task["attempt"],
                task["budgets"],
                verify_fn,
                certify=options["certify"],
                fault_plan=FaultPlan(faults) if faults else None,
                # Every deadline check site in the pipeline doubles as a
                # liveness beat to the parent, throttled to one per
                # heartbeat interval.
                deadline=Deadline(heartbeat=beat, heartbeat_interval=interval),
            )
        except InjectedCrash:
            os._exit(_CRASH_EXIT_CODE)
        if isinstance(outcome, JobResult):
            outcome.worker = worker_id
        outbox.put({
            "event": "done", "worker": worker_id,
            "outcome": outcome, "metrics": metrics,
        })


def _escalate_stop(process, grace: float = 1.0) -> str:
    """Stop a worker process: ``terminate()``, then ``kill()`` if it
    survives the grace period (a wedged worker can ignore SIGTERM —
    blocked in uninterruptible I/O, or swapping too hard to schedule).
    Returns how the process actually died: ``"terminated"`` or
    ``"killed"``."""
    process.terminate()
    process.join(timeout=grace)
    if not process.is_alive():
        return "terminated"
    process.kill()
    process.join(timeout=5.0)
    return "killed"


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("worker_id", "process", "inbox", "job", "attempt",
                 "last_beat")

    def __init__(self, worker_id: int, process, inbox) -> None:
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox
        #: the job and attempt number the worker is running, if any.
        self.job: Optional[Job] = None
        self.attempt = 0
        #: monotonic time of the last sign of life (a queue message or a
        #: task); the hang detector measures silence from it.
        self.last_beat = time.monotonic()


class WorkerPool:
    """Runs attempts on up to ``size`` worker processes; see the module
    docstring.  Use as a context manager: leaving it stops the workers."""

    def __init__(
        self,
        size: int,
        *,
        verify_fn: Optional[Callable],
        fault_plan: Optional[FaultPlan],
        certify: bool,
        hang_timeout: float,
    ) -> None:
        self._size = size
        self._options = {
            "verify_fn": verify_fn,
            "certify": certify,
            "heartbeat_interval": hang_timeout / BEATS_PER_HANG_TIMEOUT,
        }
        self._fault_plan = fault_plan
        self._hang_timeout = hang_timeout
        self._ctx = _campaign_context()
        self._outbox = self._ctx.SimpleQueue()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for handle in self._workers.values():
            if handle.process.is_alive():
                try:
                    handle.inbox.put(None)
                except (OSError, ValueError):  # pragma: no cover - racing exit
                    pass
        for handle in self._workers.values():
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                # A worker too wedged for the sentinel is likely too
                # wedged for SIGTERM; escalate to SIGKILL rather than
                # leak the process past campaign shutdown.
                _escalate_stop(handle.process)

    @property
    def busy(self) -> bool:
        """True while an attempt is running."""
        return any(h.job is not None for h in self._workers.values())

    @property
    def idle(self) -> bool:
        """True when :meth:`submit` can start an attempt at once."""
        return len(self._workers) < self._size or any(
            h.job is None for h in self._workers.values()
        )

    def submit(self, job: Job, attempt: int, budgets: Budgets) -> None:
        """Start one attempt on an idle worker, spawning one if needed."""
        handle = next(
            (h for h in self._workers.values() if h.job is None), None
        ) or self._spawn()
        faults = (
            self._fault_plan.for_job(job.job_id)
            if self._fault_plan is not None else ()
        )
        handle.inbox.put({
            "job": job.to_dict(),
            "attempt": attempt,
            "budgets": budgets,
            "faults": [fault.to_dict() for fault in faults],
        })
        handle.job, handle.attempt = job, attempt
        handle.last_beat = time.monotonic()

    def collect(self) -> List[Ended]:
        """Wait up to 0.2 s for a message; return every attempt that ended
        since, reported by its worker or lost with a crashed or hung one."""
        ended: List[Ended] = []
        self._outbox._reader.poll(0.2)
        # Snapshot before reading the queue: a worker's messages are all
        # in the pipe once it is dead, and a beat read now clears a
        # suspect.  Crash and hang detection runs on every call, so
        # steady heartbeat traffic cannot starve it.
        dead = [h for h in self._workers.values() if not h.process.is_alive()]
        now = time.monotonic()
        silent = [
            h for h in self._workers.values()
            if h.job is not None and now - h.last_beat > self._hang_timeout
        ]
        self._receive(ended)
        for handle in dead:
            self._lose(
                handle, WORKER_CRASH_ERROR, "campaign.worker_crashes",
                f"crashed (exit code {handle.process.exitcode})", ended,
            )
        now = time.monotonic()
        for handle in silent:
            if handle.job is None or handle.worker_id not in self._workers:
                continue  # it finished, or died, after all
            silence = now - handle.last_beat
            if silence <= self._hang_timeout:
                continue  # the read surfaced a beat
            how = _escalate_stop(handle.process)
            self._lose(
                handle, WORKER_HUNG_ERROR, "campaign.worker_hangs",
                f"hung: sent no heartbeat for {silence:.1f}s (timeout "
                f"{self._hang_timeout:g}s); {how} (exit code "
                f"{handle.process.exitcode})", ended,
            )
        return ended

    # ------------------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        inbox = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, os.getpid(), inbox, self._outbox, self._options),
            name=f"campaign-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = self._workers[worker_id] = _WorkerHandle(
            worker_id, process, inbox
        )
        return handle

    def _receive(self, ended: List[Ended]) -> None:
        """Handle every message already queued.  Heartbeats only refresh
        liveness — they are never journaled; messages of a worker already
        reported lost are dropped."""
        while self._outbox._reader.poll(0):
            message = self._outbox.get()
            handle = self._workers.get(message["worker"])
            if handle is None:
                continue
            handle.last_beat = time.monotonic()
            if message["event"] == "done":
                ended.append((
                    handle.job, handle.attempt,
                    message["outcome"], message["metrics"],
                ))
                handle.job = None

    def _lose(
        self, handle: _WorkerHandle, error: str, metric: str, what: str,
        ended: List[Ended],
    ) -> None:
        """Drop a dead worker; report its attempt, if any, as failed with
        ``error``, counting it in the campaign metric ``metric``."""
        del self._workers[handle.worker_id]
        if handle.job is not None:
            ended.append((
                handle.job, handle.attempt,
                AttemptFailure(
                    error, f"worker {handle.worker_id} {what}",
                    recoverable=True,
                ),
                {metric: 1.0},
            ))
