"""The per-job attempt loop, shared by the sequential and parallel paths.

A :class:`JobExecutor` drives exactly one job to a terminal state under
the job's own method: retries with exponential budget escalation, and a
structured ``INCONCLUSIVE`` when the attempts run out or one fails
structurally.  It is deliberately journal-agnostic: every record it would
journal is handed to an ``emit`` callable instead, so the same code runs

* inline in :class:`~repro.campaign.runner.CampaignRunner` (``emit``
  appends to the journal directly), and
* inside a :mod:`multiprocessing` worker (``emit`` ships the record over
  the result queue to the parent, which is the only journal writer).

The only journal-shaped dependency left is the ``journal-corrupt`` fault
seam: corrupting the journal's tail needs a file handle, so the optional
``fault_journal`` is forwarded to :meth:`FaultPlan.fire`.  Workers pass
``None`` — they hold no journal handle, which is precisely the
single-writer invariant — and the fault becomes a plain crash.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Optional

from ..errors import BudgetExhausted, ReproError
from ..guard.deadline import current_deadline, use_deadline
from ..guard.memory import MemoryBudget
from .faults import FaultPlan
from .jobs import Job, JobResult
from .journal import Journal

__all__ = ["JobExecutor"]

#: Event dict sink; receives exactly what the journal would record.
EmitFn = Callable[[Dict[str, object]], None]


class JobExecutor:
    """Runs one job's attempts; see the module docstring."""

    def __init__(
        self,
        verify_fn: Callable,
        retry,
        fault_plan: Optional[FaultPlan] = None,
        analyze: bool = False,
        certify: bool = False,
        log: Optional[Callable[[str], None]] = None,
        fault_journal: Optional[Journal] = None,
    ) -> None:
        self.verify_fn = verify_fn
        self.retry = retry
        self.fault_plan = fault_plan
        self.analyze = analyze
        self.certify = certify
        self._log = log or (lambda message: None)
        self.fault_journal = fault_journal

    # ------------------------------------------------------------------

    def run_job(self, job: Job, emit: EmitFn, failed: int) -> JobResult:
        """Drive one job to a terminal state (never raises ReproError).

        ``failed`` counts the job's attempts already journaled as failed;
        the escalation schedule resumes after them, and the result's
        ``attempts`` counts them too.
        """
        attempts = failed
        detail = "no attempts left"
        for attempt in range(failed + 1, self.retry.max_attempts + 1):
            max_conflicts, max_wall, max_memory = self.retry.budget_for(
                job, attempt
            )
            start_event: Dict[str, object] = {
                "event": "start",
                "job_id": job.job_id,
                "attempt": attempt,
                "method": job.method,
                "max_conflicts": max_conflicts,
            }
            # Guard budgets ride in the start record only when enforced,
            # so journals of unsupervised campaigns keep their old shape.
            if max_wall is not None:
                start_event["max_wall_seconds"] = max_wall
            if max_memory is not None:
                start_event["max_memory_mb"] = max_memory
            emit(start_event)
            attempts += 1
            # The attempt-scoped supervision deadline: derived from the
            # ambient one (inheriting a worker's heartbeat sink), capped
            # by its remaining allowance, and installed around *both* the
            # fault seam and the verify call, so injected hangs, bloat
            # and slowdowns compose with the budgets that should catch
            # them.  Unset budgets keep the ambient deadline untouched.
            guard_scope = nullcontext()
            if max_wall is not None or max_memory is not None:
                guard_scope = use_deadline(current_deadline().derive(
                    max_wall_seconds=max_wall,
                    memory=(
                        MemoryBudget.from_mb(max_memory)
                        if max_memory is not None else None
                    ),
                ))
            try:
                with guard_scope:
                    if self.fault_plan is not None:
                        self.fault_plan.fire(
                            job.job_id, attempt, self.fault_journal
                        )
                    # Only forward opt-in kwargs when they are on, so
                    # custom verify_fn overrides keep their narrower
                    # signature.
                    extra: Dict[str, object] = {}
                    if self.analyze:
                        extra["analyze"] = True
                    if self.certify:
                        extra["certify"] = True
                    result = self.verify_fn(
                        job.config(),
                        method=job.method,
                        bug=job.bug(),
                        criterion=job.criterion,
                        max_conflicts=max_conflicts,
                        **extra,
                    )
            except (MemoryError, ReproError, ValueError) as exc:
                detail = f"{type(exc).__name__}: {exc}"
                emit({
                    "event": "attempt_failed",
                    "job_id": job.job_id,
                    "attempt": attempt,
                    "method": job.method,
                    "error": type(exc).__name__,
                    "detail": str(exc),
                })
                if isinstance(exc, (BudgetExhausted, MemoryError)):
                    # Recoverable: the next attempt gets an escalated
                    # budget (the paper's protocol: rerun the 4 GB kills
                    # bigger).
                    self._log(
                        f"{job.job_id}: attempt {attempt}/"
                        f"{self.retry.max_attempts} failed — {detail}"
                    )
                    continue
                break  # structural: no bigger budget can help
            return JobResult.from_verification(job, attempts, result)
        return JobResult(
            job_id=job.job_id,
            status="INCONCLUSIVE",
            method=job.method,
            attempts=attempts,
            detail=detail,
        )
