"""The campaign runner: budgeted, retrying, crash-safe job execution.

Execution model (per job):

1. run ``verify()`` under the attempt's budget — the job's base budget
   scaled by :attr:`RetryPolicy.escalation` raised to the attempt number
   (exponential budget escalation, capped);
2. on :class:`~repro.errors.BudgetExhausted` / :class:`MemoryError`,
   journal the failed attempt and retry with the next, larger budget;
3. when the attempts run out — or one fails structurally
   (:class:`~repro.errors.ReproError` / :class:`ValueError`, which no
   bigger budget can help) — record a structured ``INCONCLUSIVE``
   outcome instead of crashing the batch: the campaign analogue of the
   paper's out-of-memory table entries.

A job runs only its own method.  Journals from builds that re-ran an
exhausted ``rewriting`` job under ``positive_equality`` still replay:
their ``finish`` records replay as written, and every ``attempt_failed``
record of a job counts toward its schedule, whatever method it names.

Every transition is appended to a :class:`~repro.campaign.journal.Journal`
before/after it happens, so a killed campaign resumes exactly where it
left off: finished jobs are never re-run, recorded failed attempts keep
their place in the escalation schedule, and the attempt that was in
flight at the kill is re-run at the same budget.

With ``workers > 1`` jobs fan out to a :mod:`multiprocessing` pool
(:mod:`repro.campaign.parallel`).  The parent process remains the single
journal writer — workers stream their would-be journal records back over
a result queue — so every journal and resume property above is
unchanged; a worker that dies mid-job is journaled as a failed attempt
(error ``WorkerCrashed``) and the job is retried under the same
:class:`RetryPolicy` schedule.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.verifier import budget_problem
from ..errors import CampaignError, JournalError
from ..guard.deadline import Deadline, use_deadline
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, use_tracer
from .executor import JobExecutor
from .faults import FaultPlan
from .jobs import Job, JobResult
from .journal import Journal

__all__ = ["RetryPolicy", "CampaignRunner", "CampaignReport"]


@dataclass(frozen=True)
class RetryPolicy:
    """Budget and escalation schedule for verification attempts.

    Attempt ``a`` (1-based) runs with ``base * escalation**(a - 1)`` of
    each budget — SAT conflicts, the run's wall-clock deadline and its
    memory ceiling (see :mod:`repro.guard`) — the conflicts capped at
    ``conflicts_cap``.  The base comes from the job when set, otherwise
    from this policy; a base of ``None`` means unbounded (no budget of
    that kind is enforced).  By default only the conflicts are bounded.
    """

    max_attempts: int = 3
    escalation: float = 2.0
    base_conflicts: Optional[int] = 100_000
    conflicts_cap: int = 2_000_000
    base_wall_seconds: Optional[float] = None
    base_memory_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CampaignError("max_attempts must be at least 1")
        if not 1.0 <= self.escalation < math.inf:
            raise CampaignError(
                "escalation factor must be a finite number >= 1, "
                f"got {self.escalation!r}"
            )
        for name in ("base_conflicts", "base_wall_seconds", "base_memory_mb"):
            value = getattr(self, name)
            problem = value is not None and budget_problem(name, value)
            if problem:
                raise CampaignError(f"{name} {problem}, got {value!r}")

    def budget_for(
        self, job: Job, attempt: int
    ) -> Tuple[Optional[int], Optional[float], Optional[float]]:
        """The (max_conflicts, max_wall_seconds, max_memory_mb) budgets of
        one attempt — all escalated alike, so a conflict, wall-clock or
        memory kill retries bigger, the paper's 4 GB-limit protocol."""
        factor = self.escalation ** (attempt - 1)

        def scaled(mine, default):
            base = mine if mine is not None else default
            return None if base is None else base * factor

        conflicts = scaled(job.max_conflicts, self.base_conflicts)
        if conflicts is not None:
            conflicts = min(int(conflicts), self.conflicts_cap)
        return (
            conflicts,
            scaled(job.max_wall_seconds, self.base_wall_seconds),
            scaled(job.max_memory_mb, self.base_memory_mb),
        )


def _replayed_result(record: Dict[str, object]) -> JobResult:
    """The result a journaled ``finish`` record holds.

    Raises :class:`JournalError` naming a record whose ``status`` is
    missing or not a string, or whose ``attempts`` is not an integer.
    """
    attempts = record.get("attempts", 1)
    if not isinstance(record.get("status"), str) \
            or isinstance(attempts, bool) or not isinstance(attempts, int):
        raise JournalError(
            f"finish record {record!r} holds no string status and "
            "integer attempts"
        )
    result = JobResult.from_dict(record)
    result.from_journal = True
    return result


@dataclass
class CampaignReport:
    """Aggregate outcome of a campaign run."""

    results: Dict[str, JobResult]
    #: jobs whose finish was replayed from the journal (not re-run).
    replayed: int = 0
    #: mid-file corrupt journal lines that were skipped on load.
    corrupt_lines: int = 0
    #: True when the journal ended in a torn line (crash signature).
    torn_tail: bool = False
    #: worker processes the campaign ran with (1 = in-process).
    workers: int = 1
    #: wall-clock seconds of this run (excludes replayed work).
    wall_seconds: float = 0.0
    #: ``on_result`` callback invocations that raised (and were contained).
    callback_errors: int = 0
    #: campaign-wide metrics: per-job verification metrics summed across
    #: jobs plus ``campaign.*`` scheduling counters (jobs run, per-job
    #: wall/CPU seconds, worker crashes).
    metrics: Dict[str, float] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for result in self.results.values():
            tally[result.status] = tally.get(result.status, 0) + 1
        return tally

    def exit_code(self) -> int:
        """0 = all proved; 1 = a bug was found; 4 = inconclusive jobs."""
        counts = self.counts()
        if counts.get("BUG_FOUND"):
            return 1
        if counts.get("INCONCLUSIVE"):
            return 4
        return 0

    def summary(self) -> str:
        header = (
            f"{'job':<28} {'status':<13} {'method':<18} "
            f"{'tries':>5} {'total':>8}"
        )
        lines = [header, "-" * len(header)]
        for result in self.results.values():
            total = result.metrics.get("timings.total", 0.0)
            note = " (journal)" if result.from_journal else ""
            detail = f"  [{result.detail}]" if result.detail else ""
            lines.append(
                f"{result.job_id:<28} {result.status:<13} "
                f"{result.method:<18} {result.attempts:>5} "
                f"{total:>7.2f}s{note}{detail}"
            )
        tally = ", ".join(
            f"{count} {status}" for status, count in sorted(self.counts().items())
        )
        workers = f", {self.workers} workers" if self.workers > 1 else ""
        lines.append(
            f"{len(self.results)} job(s): {tally}"
            f" ({self.replayed} replayed from journal"
            f"{workers}, {self.wall_seconds:.2f}s wall)"
        )
        if self.callback_errors:
            lines.append(
                f"warning: {self.callback_errors} on_result callback "
                "error(s) were journaled and skipped"
            )
        if self.corrupt_lines:
            lines.append(
                f"warning: skipped {self.corrupt_lines} corrupt journal line(s)"
            )
        return "\n".join(lines)


class CampaignRunner:
    """Executes a batch of jobs against a crash-safe journal.

    Args:
        journal_path: JSONL journal; created if missing, resumed if not.
        retry: budget/escalation schedule (:class:`RetryPolicy`).
        verify_fn: override for :func:`repro.core.verify` (tests/monitors).
        fault_plan: optional :class:`~repro.campaign.faults.FaultPlan`
            consulted at the verify seam on every attempt.
        on_result: callback invoked with ``(job, result)`` after every job
            reaches a terminal state (including journal replays).  An
            exception it raises is journaled as a ``callback_error`` event
            and the campaign continues; it does not abort the batch.
        log: line sink for progress messages (e.g. ``print``).
        analyze: run the :mod:`repro.analysis` soundness analyzers on
            every verification; their findings ride in
            :attr:`JobResult.diagnostics` and the journal's finish
            records, so they survive crash-and-resume.
        certify: certify every verdict (``verify(certify=True)``): DRUP
            proofs are checked for PROVED jobs, counterexamples replayed
            and minimized for BUG_FOUND ones.  The witness digest summary
            rides in :attr:`JobResult.witness` and the journal's finish
            records, so it survives crash-and-resume.
        workers: worker processes to fan jobs out to; ``1`` (the default)
            runs everything in this process.  The parent stays the single
            journal writer either way (see :mod:`repro.campaign.parallel`).
        hang_timeout: parallel runs only — seconds of heartbeat silence
            after which a busy worker is declared hung, escalated
            terminate→kill, journaled as a ``WorkerHung`` failed attempt,
            and its job re-queued.  Workers beat ten times per timeout
            (see :mod:`repro.campaign.parallel`).  It must be positive,
            whatever the worker count: it is checked here, before
            anything is journaled.
    """

    def __init__(
        self,
        journal_path: str,
        retry: Optional[RetryPolicy] = None,
        verify_fn: Optional[Callable] = None,
        fault_plan: Optional[FaultPlan] = None,
        on_result: Optional[Callable[[Job, JobResult], None]] = None,
        log: Optional[Callable[[str], None]] = None,
        strict_journal: bool = False,
        analyze: bool = False,
        certify: bool = False,
        workers: int = 1,
        hang_timeout: float = 30.0,
    ) -> None:
        self._verify_is_default = verify_fn is None
        if verify_fn is None:
            from ..core.verifier import verify as verify_fn
        if workers < 1:
            raise CampaignError("workers must be at least 1")
        if not hang_timeout > 0:  # NaN fails too
            raise CampaignError(
                f"hang_timeout must be positive, got {hang_timeout!r}"
            )
        self.journal_path = journal_path
        self.retry = retry or RetryPolicy()
        self.verify_fn = verify_fn
        self.fault_plan = fault_plan
        self.on_result = on_result
        self._log = log or (lambda message: None)
        self.strict_journal = strict_journal
        self.analyze = analyze
        self.certify = certify
        self.workers = workers
        self.hang_timeout = hang_timeout

    # ------------------------------------------------------------------

    def run(self, jobs: Optional[Iterable[Job]] = None) -> CampaignReport:
        """Run (or resume) the campaign; returns when every job is terminal.

        With ``jobs=None`` the job list is recovered from the journal's
        ``enqueue`` records, so ``CampaignRunner(path).run()`` resumes an
        interrupted campaign without re-supplying the spec.  When ``jobs``
        *is* supplied on resume, each job is checked against the journaled
        spec of the same id; any drift raises :class:`CampaignError`
        naming the fields, instead of silently running one spec while the
        journal records another.
        """
        started = time.perf_counter()
        replay = Journal.load(self.journal_path, strict=self.strict_journal)
        known_specs = replay.job_specs()
        if jobs is None:
            if not known_specs:
                raise CampaignError(
                    f"no jobs supplied and journal {self.journal_path!r} "
                    "records none to resume"
                )
            job_list = [Job.from_dict(spec) for spec in known_specs.values()]
        else:
            job_list = list(jobs)
        if not job_list:
            raise CampaignError("the campaign has no jobs")
        seen = set()
        for job in job_list:
            if job.job_id in seen:
                raise CampaignError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
            if jobs is not None and job.job_id in known_specs:
                self._check_spec_drift(job, known_specs[job.job_id])

        finished = replay.finished()
        replayable = {
            job.job_id: _replayed_result(finished[job.job_id])
            for job in job_list
            if job.job_id in finished
        }
        failed_attempts = replay.failed_attempts()
        results: Dict[str, JobResult] = {}
        replayed = 0
        self._registry = MetricsRegistry()
        self._callback_errors = 0

        with Journal(self.journal_path) as journal:
            for job in job_list:
                if job.job_id not in known_specs:
                    journal.append({"event": "enqueue", "job": job.to_dict()})
            to_run: List[Job] = []
            for job in job_list:
                if job.job_id in replayable:
                    result = replayable[job.job_id]
                    results[job.job_id] = result
                    replayed += 1
                    self._log(f"{job.job_id}: {result.status} (from journal)")
                    self._invoke_callback(job, result, journal)
                else:
                    to_run.append(job)
            if to_run:
                cpu_count = os.cpu_count() or 1
                if self.workers > cpu_count:
                    # Oversubscription is pure scheduling overhead for
                    # this CPU-bound workload (the proximate cause of the
                    # old parallel bench's 0.87x "speedup" — 4 workers on
                    # a 1-CPU box).  Honour the user's choice, but leave
                    # a durable mark.
                    journal.append({
                        "event": "oversubscribed_workers",
                        "workers": self.workers,
                        "cpu_count": cpu_count,
                    })
                    self._log(
                        f"warning: {self.workers} workers on a "
                        f"{cpu_count}-CPU machine — CPU-bound jobs gain "
                        "nothing from oversubscription"
                    )
                if self.workers > 1 and len(to_run) > 1:
                    self._run_parallel(
                        to_run, journal, failed_attempts, results
                    )
                else:
                    self._run_sequential(
                        to_run, journal, failed_attempts, results
                    )

        return CampaignReport(
            results={job.job_id: results[job.job_id] for job in job_list},
            replayed=replayed,
            corrupt_lines=replay.corrupt_lines,
            torn_tail=replay.torn_tail,
            workers=self.workers,
            wall_seconds=time.perf_counter() - started,
            callback_errors=self._callback_errors,
            metrics=self._registry.values(),
        )

    # ------------------------------------------------------------------

    def _check_spec_drift(self, job: Job, journaled: Dict[str, object]) -> None:
        """Raise when a supplied job disagrees with its journaled spec, or
        the journaled spec is one this build refuses."""
        recorded = Job.from_dict(journaled).to_dict()
        current = job.to_dict()
        drifted = sorted(
            name for name in current if current[name] != recorded.get(name)
        )
        if drifted:
            details = ", ".join(
                f"{name}: journal={recorded.get(name)!r} "
                f"supplied={current[name]!r}"
                for name in drifted
            )
            raise CampaignError(
                f"job {job.job_id!r} spec drifted from the journal "
                f"({details}); use a fresh journal or re-supply the "
                "journaled spec"
            )

    def _invoke_callback(
        self, job: Job, result: JobResult, journal: Journal
    ) -> None:
        """Run ``on_result``, containing (and journaling) its exceptions."""
        if self.on_result is None:
            return
        try:
            self.on_result(job, result)
        except Exception as exc:
            self._callback_errors += 1
            journal.append({
                "event": "callback_error",
                "job_id": job.job_id,
                "error": type(exc).__name__,
                "detail": str(exc),
            })
            self._log(
                f"{job.job_id}: on_result callback raised "
                f"{type(exc).__name__}: {exc} (journaled; campaign continues)"
            )

    def _finish_job(
        self, job: Job, result: JobResult, journal: Journal,
        results: Dict[str, JobResult],
    ) -> None:
        """Journal one terminal result (the single-writer append path)."""
        journal.append({"event": "finish", **result.to_dict()})
        results[job.job_id] = result
        self._registry.merge(result.metrics)
        self._log(
            f"{job.job_id}: {result.status} after "
            f"{result.attempts} attempt(s) via {result.method}"
        )
        self._invoke_callback(job, result, journal)

    def _run_sequential(
        self,
        to_run: List[Job],
        journal: Journal,
        failed_attempts: Dict[str, int],
        results: Dict[str, JobResult],
    ) -> None:
        executor = JobExecutor(
            self.verify_fn,
            self.retry,
            fault_plan=self.fault_plan,
            analyze=self.analyze,
            certify=self.certify,
            log=self._log,
            fault_journal=journal,
        )
        for job in to_run:
            tracer = Tracer()
            # A per-job ambient deadline (no budgets of its own): the
            # anchor `slow` faults attach their stage delays to, and the
            # parent the executor's attempt-scoped budgets derive from —
            # mirroring the heartbeat deadline a parallel worker installs.
            with use_deadline(Deadline()), use_tracer(tracer):
                with tracer.span("campaign.job"):
                    result = executor.run_job(
                        job, journal.append,
                        failed_attempts.get(job.job_id, 0),
                    )
            span = tracer.root
            self._registry.merge({
                "campaign.jobs_run": 1.0,
                "campaign.job_seconds": span.wall_seconds,
                "campaign.job_cpu_seconds": span.cpu_seconds,
            })
            self._finish_job(job, result, journal, results)

    def _run_parallel(
        self,
        to_run: List[Job],
        journal: Journal,
        failed_attempts: Dict[str, int],
        results: Dict[str, JobResult],
    ) -> None:
        from .parallel import ParallelCampaignExecutor

        def merge(metrics: Dict[str, float]) -> None:
            self._registry.merge(metrics)

        executor = ParallelCampaignExecutor(
            workers=min(self.workers, len(to_run)),
            retry=self.retry,
            analyze=self.analyze,
            certify=self.certify,
            # The default verify is importable in every worker; only a
            # custom verify_fn needs to cross the process boundary.
            verify_fn=None if self._verify_is_default else self.verify_fn,
            fault_plan=self.fault_plan,
            journal=journal,
            log=self._log,
            failed_attempts=failed_attempts,
            on_finish=lambda job, result: self._finish_job(
                job, result, journal, results
            ),
            merge_metrics=merge,
            hang_timeout=self.hang_timeout,
        )
        executor.run(to_run)
        crashes = executor.worker_crashes
        if crashes:
            self._registry.merge({"campaign.worker_crashes": float(crashes)})
        hangs = executor.worker_hangs
        if hangs:
            self._registry.merge({"campaign.worker_hangs": float(hangs)})
