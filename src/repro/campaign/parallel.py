"""Process-parallel campaign execution with a single-writer journal.

Topology: the parent process owns the journal and a pool of
:mod:`multiprocessing` workers.  Each worker runs whole jobs (the full
retry loop of :class:`~repro.campaign.executor.JobExecutor`) and
streams the records the sequential runner would journal — ``start``,
``attempt_failed``, finally ``done`` with the serialized
:class:`~repro.campaign.jobs.JobResult` — over one shared result queue.
Only the parent ever appends to the journal, so crash-resume, torn-tail
tolerance, and replay semantics are byte-for-byte those of a sequential
run; the records of concurrent jobs merely interleave, which the replay
logic (keyed by job id) never cared about.

Durability: the result queue is a ``SimpleQueue``, whose ``put`` writes
synchronously to the pipe under a lock — no feeder thread, so every event
a worker emitted before dying is readable by the parent.  A worker that
dies mid-job (an :class:`~repro.campaign.faults.InjectedCrash`, a
segfault, an OOM kill) is detected by process liveness; the parent
journals the in-flight attempt as ``attempt_failed`` with error
``WorkerCrashed``, re-queues the job — whose escalation schedule resumes
from the journaled failure counts, exactly like a campaign-level resume —
and spawns a replacement worker.  A job that crashes its worker on every
attempt therefore ends ``INCONCLUSIVE`` after its ``max_attempts``
crashes instead of looping.

Liveness: a crashed worker is visible to process polling, but a *wedged*
one — livelocked in a C extension, swapping, deadlocked — stays alive and
silent forever.  Every worker therefore installs an ambient heartbeat
:class:`~repro.guard.Deadline` around each job: the pipeline's own
deadline check sites double as heartbeat emitters, streaming throttled
``heartbeat`` events (never journaled) over the result queue, ten per
``hang_timeout`` (:data:`BEATS_PER_HANG_TIMEOUT`).  A busy worker silent
for ``hang_timeout`` seconds is declared hung; the parent
drains the queue once more (a beat may be in flight), then escalates
``terminate()`` → ``kill()``, journals the in-flight attempt as
``attempt_failed`` with error ``WorkerHung``, re-queues the job, and
spawns a replacement — so a permanently hanging job converges to
``INCONCLUSIVE`` through the same escalation schedule as a crashing one.

Each worker installs its own ambient :class:`~repro.obs.tracer.Tracer`
(the ``obs`` ContextVar is per-process state) and ships per-job wall/CPU
seconds back for parent-side merging into the campaign metrics registry.
Fault plans are partitioned deterministically by job id
(:meth:`FaultPlan.for_job`), so ``workers=N`` fires the same injected
faults as a sequential run of the same plan.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from ..errors import CampaignError
from .executor import JobExecutor
from .faults import Fault, FaultPlan, InjectedCrash
from .jobs import Job, JobResult
from .journal import Journal

__all__ = [
    "ParallelCampaignExecutor",
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
    worker_id: int, inbox: Any, outbox: Any, options: Dict[str, Any]
) -> None:
    """Worker entry: pull job tasks until the ``None`` shutdown sentinel."""
    from ..guard.deadline import Deadline, use_deadline
    from ..obs.tracer import Tracer, use_tracer

    verify_fn = options.get("verify_fn")
    if verify_fn is None:
        from ..core.verifier import verify as verify_fn

    while True:
        task = inbox.get()
        if task is None:
            return
        job = Job.from_dict(task["job"])
        faults = [Fault.from_dict(spec) for spec in task["faults"]]
        executor = JobExecutor(
            verify_fn,
            options["retry"],
            fault_plan=FaultPlan(faults) if faults else None,
            analyze=options["analyze"],
            certify=options.get("certify", False),
            log=lambda text: outbox.put({"event": "log", "text": text}),
            # Workers never hold the journal: the single-writer invariant.
            fault_journal=None,
        )
        # A fresh ambient tracer per process: the obs ContextVar is
        # per-process state, so worker spans never mix with the parent's.
        tracer = Tracer()
        # The heartbeat deadline (no budgets of its own): every deadline
        # check site anywhere in the pipeline now doubles as a liveness
        # beat to the parent, throttled to one per heartbeat interval.
        # Attempt-scoped supervision budgets derive from it in the
        # executor, inheriting the sink — a supervised attempt needs no
        # extra wiring to stay observable.
        heartbeat = Deadline(
            heartbeat=lambda stage: outbox.put({
                "event": "heartbeat",
                "worker": worker_id,
                "job_id": job.job_id,
                "stage": stage,
            }),
            heartbeat_interval=options["heartbeat_interval"],
        )
        try:
            with use_deadline(heartbeat), use_tracer(tracer):
                with tracer.span("campaign.job"):
                    result = executor.run_job(
                        job, outbox.put, task["failed_attempts"]
                    )
        except InjectedCrash:
            os._exit(_CRASH_EXIT_CODE)
        result.worker = worker_id
        span = tracer.root
        outbox.put({
            "event": "done",
            "job_id": job.job_id,
            "result": result.to_dict(),
            "worker_metrics": {
                "campaign.jobs_run": 1.0,
                "campaign.job_seconds": span.wall_seconds,
                "campaign.job_cpu_seconds": span.cpu_seconds,
            },
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

    __slots__ = ("worker_id", "process", "inbox", "job", "last_beat")

    def __init__(self, worker_id: int, process, inbox) -> None:
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox
        self.job: Optional[Job] = None
        #: monotonic time of the last sign of life (any queue message or
        #: a job assignment); the hang detector measures silence from it.
        self.last_beat = time.monotonic()


class ParallelCampaignExecutor:
    """Fans jobs out to worker processes; the parent is the sole journal
    writer.  See the module docstring for the protocol."""

    def __init__(
        self,
        *,
        workers: int,
        retry,
        analyze: bool,
        verify_fn: Optional[Callable],
        certify: bool = False,
        fault_plan: Optional[FaultPlan],
        journal: Journal,
        log: Callable[[str], None],
        failed_attempts: Dict[str, int],
        on_finish: Callable[[Job, JobResult], None],
        merge_metrics: Callable[[Dict[str, float]], None],
        hang_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise CampaignError("workers must be at least 1")
        self.workers = workers
        self._options = {
            "retry": retry,
            "analyze": analyze,
            "certify": certify,
            "verify_fn": verify_fn,
            "heartbeat_interval": hang_timeout / BEATS_PER_HANG_TIMEOUT,
        }
        self._fault_plan = fault_plan
        self._journal = journal
        self._log = log
        self._failed = failed_attempts
        self._on_finish = on_finish
        self._merge_metrics = merge_metrics
        self._hang_timeout = hang_timeout
        self._ctx = _campaign_context()
        #: worker processes that died mid-job (each journaled + retried).
        self.worker_crashes = 0
        #: worker processes the hang detector had to kill.
        self.worker_hangs = 0
        self._outbox = self._ctx.SimpleQueue()
        self._pool: List[_WorkerHandle] = []
        self._next_worker_id = 0
        #: attempt number of each job's event-confirmed in-flight attempt.
        self._in_flight: Dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------

    def run(self, jobs: List[Job]) -> None:
        """Run every job to a terminal state; returns when all finished."""
        self._pending = deque(jobs)
        self._jobs_by_id = {job.job_id: job for job in jobs}
        remaining = len(jobs)
        for _ in range(min(self.workers, remaining)):
            self._spawn_worker()
        try:
            while remaining > 0:
                self._dispatch()
                if self._poll(0.2):
                    remaining -= self._handle(self._outbox.get())
                # Reap every iteration, not only on poll timeouts: steady
                # heartbeat traffic keeps the poll returning True, which
                # must not starve crash/hang detection.
                remaining -= self._reap_dead_workers()
                remaining -= self._reap_hung_workers()
        finally:
            self._shutdown()

    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        inbox = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, inbox, self._outbox, self._options),
            name=f"campaign-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(worker_id, process, inbox)
        self._pool.append(handle)
        return handle

    def _shutdown(self) -> None:
        for handle in self._pool:
            if handle.process.is_alive():
                try:
                    handle.inbox.put(None)
                except (OSError, ValueError):  # pragma: no cover - racing exit
                    pass
        for handle in self._pool:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                # A worker too wedged for the sentinel is likely too
                # wedged for SIGTERM; escalate to SIGKILL rather than
                # leak the process past campaign shutdown.
                how = _escalate_stop(handle.process)
                self._log(
                    f"worker {handle.worker_id}: ignored the shutdown "
                    f"sentinel; {how} (exit code "
                    f"{handle.process.exitcode})"
                )

    # -- scheduling ------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand pending jobs to idle workers (one job per worker)."""
        for handle in self._pool:
            if not self._pending:
                return
            if handle.job is not None or not handle.process.is_alive():
                continue
            job = self._pending.popleft()
            faults = (
                self._fault_plan.for_job(job.job_id)
                if self._fault_plan is not None
                else ()
            )
            handle.inbox.put({
                "job": job.to_dict(),
                "failed_attempts": self._failed.get(job.job_id, 0),
                "faults": [fault.to_dict() for fault in faults],
            })
            handle.job = job
            handle.last_beat = time.monotonic()

    def _poll(self, timeout: float) -> bool:
        """True when a result-queue message is ready within ``timeout``."""
        reader = getattr(self._outbox, "_reader", None)
        if reader is not None:
            return reader.poll(timeout)
        if timeout:  # pragma: no cover - SimpleQueue always has _reader
            time.sleep(timeout)
        return not self._outbox.empty()  # pragma: no cover

    # -- event handling --------------------------------------------------

    def _handle(self, message: Dict[str, Any]) -> int:
        """Process one worker message; returns 1 when a job finished."""
        event = message.get("event")
        if event == "heartbeat":
            # Liveness only — never journaled (hundreds per job would
            # bury the records replay actually reads).
            for handle in self._pool:
                if handle.worker_id == message.get("worker"):
                    handle.last_beat = time.monotonic()
                    break
            return 0
        if event == "log":
            self._log(message.get("text", ""))
            return 0
        if event == "start":
            job_id = message["job_id"]
            self._touch_worker(job_id)
            self._in_flight[job_id] = message["attempt"]
            self._journal.append(message)
            return 0
        if event == "attempt_failed":
            job_id = message["job_id"]
            self._touch_worker(job_id)
            self._failed[job_id] = self._failed.get(job_id, 0) + 1
            self._in_flight.pop(job_id, None)
            self._journal.append(message)
            return 0
        if event == "done":
            job_id = message["job_id"]
            self._in_flight.pop(job_id, None)
            for handle in self._pool:
                if handle.job is not None and handle.job.job_id == job_id:
                    handle.job = None
                    break
            self._merge_metrics(message.get("worker_metrics", {}))
            result = JobResult.from_dict(message["result"])
            self._on_finish(self._jobs_by_id[job_id], result)
            return 1
        raise CampaignError(  # pragma: no cover - protocol guard
            f"unknown worker message {event!r}"
        )

    def _touch_worker(self, job_id: str) -> None:
        """Refresh the liveness stamp of the worker running ``job_id`` —
        every protocol message is proof of life, not just heartbeats."""
        for handle in self._pool:
            if handle.job is not None and handle.job.job_id == job_id:
                handle.last_beat = time.monotonic()
                return

    def _reap_dead_workers(self) -> int:
        """Detect crashed workers; journal + requeue their in-flight jobs.

        Returns the number of jobs completed by messages that were still
        queued from a worker that has since exited.
        """
        completed = 0
        dead = [h for h in self._pool if not h.process.is_alive()]
        if not dead:
            return 0
        # Drain everything the dead workers managed to send first — a
        # worker that finished its job and then exited is not a crash.
        while self._poll(0):
            completed += self._handle(self._outbox.get())
        for handle in dead:
            self._pool.remove(handle)
            if handle.job is None:
                continue
            exitcode = handle.process.exitcode
            self.worker_crashes += 1
            self._requeue_failed(
                handle, WORKER_CRASH_ERROR,
                f"exited with code {exitcode} mid-attempt",
                f"crashed (exit {exitcode})",
            )
        self._replenish_pool()
        return completed

    def _reap_hung_workers(self) -> int:
        """Detect, kill, journal and requeue silently wedged workers.

        A busy worker whose last sign of life predates the hang timeout
        is suspect.  The queue is drained first — its beat may be queued
        behind slower messages — and only workers *still* silent after
        the drain are escalated ``terminate()`` → ``kill()`` and their
        in-flight attempt journaled as ``WorkerHung``.  Returns the
        number of jobs completed by messages found during the drain.
        """
        now = time.monotonic()
        suspects = [
            h for h in self._pool
            if h.job is not None
            and h.process.is_alive()
            and now - h.last_beat > self._hang_timeout
        ]
        if not suspects:
            return 0
        completed = 0
        while self._poll(0):
            completed += self._handle(self._outbox.get())
        now = time.monotonic()
        for handle in suspects:
            if handle not in self._pool:
                continue  # the drain completed or crashed it
            if handle.job is None or not handle.process.is_alive():
                continue
            if now - handle.last_beat <= self._hang_timeout:
                continue  # the drain surfaced a beat after all
            silence = now - handle.last_beat
            how = _escalate_stop(handle.process)
            # Remove before the dead-worker reaper runs, or the kill
            # would be double-journaled as a crash.
            self._pool.remove(handle)
            self.worker_hangs += 1
            self._requeue_failed(
                handle, WORKER_HUNG_ERROR,
                f"sent no heartbeat for {silence:.1f}s "
                f"(timeout {self._hang_timeout:g}s); "
                f"{how} (exit code {handle.process.exitcode})",
                f"hung (silent {silence:.1f}s, {how})",
            )
        self._replenish_pool()
        return completed

    def _requeue_failed(
        self, handle: _WorkerHandle, error: str, detail: str, what: str
    ) -> None:
        """Journal the in-flight attempt of ``handle``'s job as failed
        with ``error`` and put the job back at the head of the queue.

        ``detail`` (journaled) and ``what`` (logged) say what became of
        the worker.
        """
        job = handle.job
        failed = self._failed.get(job.job_id, 0)
        attempt = self._in_flight.pop(job.job_id, failed + 1)
        self._journal.append({
            "event": "attempt_failed",
            "job_id": job.job_id,
            "attempt": attempt,
            "method": job.method,
            "error": error,
            "detail": f"worker {handle.worker_id} {detail}; job re-queued",
        })
        self._failed[job.job_id] = failed + 1
        self._log(
            f"{job.job_id}: worker {handle.worker_id} {what}; journaled "
            f"failed attempt {attempt} and re-queued"
        )
        self._pending.appendleft(job)

    def _replenish_pool(self) -> None:
        """Keep the pool sized to the remaining work."""
        alive = sum(1 for h in self._pool if h.process.is_alive())
        busy = sum(1 for h in self._pool if h.job is not None)
        want = min(self.workers, busy + len(self._pending))
        while alive < want:
            self._spawn_worker()
            alive += 1
