"""One verification attempt, run the same way in-process and in a worker.

:func:`run_attempt` runs attempt ``attempt`` of a job under the budgets
the campaign runner picked for it and reports how it ended: a
:class:`~repro.campaign.jobs.JobResult` holding the verdict, or an
:class:`AttemptFailure`.  It schedules nothing and journals nothing —
whether a failed attempt is retried, and every journal record, is
decided by :class:`~repro.campaign.runner.CampaignRunner` — so the same
function serves

* the in-process path of the runner (``workers=1``), and
* a :mod:`multiprocessing` worker of :mod:`repro.campaign.parallel`.

The only journal-shaped dependency left is the ``journal-corrupt`` fault
seam: corrupting the journal's tail needs a file handle, so the optional
``fault_journal`` is forwarded to :meth:`FaultPlan.fire`.  Workers pass
``None`` — they hold no journal handle, which is precisely the
single-writer invariant — and the fault becomes a plain crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from ..errors import BudgetExhausted, ReproError
from ..guard.deadline import Deadline, use_deadline
from ..guard.memory import MemoryBudget
from ..obs.tracer import Tracer
from .faults import FaultPlan
from .jobs import Job, JobResult
from .journal import Journal

__all__ = ["AttemptFailure", "Budgets", "Ended", "run_attempt"]

#: ``(max_conflicts, max_wall_seconds, max_memory_mb)`` of one attempt,
#: as :meth:`repro.campaign.runner.RetryPolicy.budget_for` returns them.
Budgets = Tuple[Optional[int], Optional[float], Optional[float]]


@dataclass(frozen=True)
class AttemptFailure:
    """An attempt that ended without a verdict."""

    #: the exception's type name, or ``WorkerCrashed``/``WorkerHung`` for
    #: an attempt lost with its worker process.
    error: str
    detail: str
    #: True when a bigger budget, or another worker, may succeed: a
    #: budget or memory kill, or a lost worker.  A structural failure
    #: (:class:`~repro.errors.ReproError`, :class:`ValueError`) is not.
    recoverable: bool


#: One attempt that ended: the job, its attempt number, the outcome and
#: the campaign metrics it contributes — what the runner settles.
Ended = Tuple[Job, int, Union[JobResult, AttemptFailure], Dict[str, float]]


def run_attempt(
    job: Job,
    attempt: int,
    budgets: Budgets,
    verify_fn: Callable,
    *,
    certify: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    fault_journal: Optional[Journal] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[Union[JobResult, AttemptFailure], Dict[str, float]]:
    """Run one attempt of ``job``; never raises ReproError.

    Returns the outcome and the attempt's ``campaign.job_seconds`` and
    ``campaign.job_cpu_seconds``.  ``deadline`` is the attempt's ambient
    supervision deadline (a worker's heartbeat sink); a fresh one is
    installed without it, so each attempt starts on its own clock and
    its own injected stage delays.
    """
    max_conflicts, max_wall, max_memory = budgets
    # The attempt-scoped budgets derive from the ambient deadline
    # (inheriting a worker's heartbeat sink) and are installed around
    # *both* the fault seam and the verify call, so injected hangs, bloat
    # and slowdowns compose with the budgets that should catch them.
    scope = deadline or Deadline()
    if max_wall is not None or max_memory is not None:
        scope = scope.derive(
            max_wall_seconds=max_wall,
            memory=(
                MemoryBudget.from_mb(max_memory)
                if max_memory is not None else None
            ),
        )
    # Only forward ``certify`` when it is on, so custom verify_fn
    # overrides keep their narrower signature.
    extra = {"certify": True} if certify else {}
    tracer = Tracer()
    outcome: Union[JobResult, AttemptFailure]
    try:
        with use_deadline(scope), tracer.span("campaign.attempt"):
            if fault_plan is not None:
                fault_plan.fire(job.job_id, attempt, fault_journal)
            result = verify_fn(
                job.config(),
                method=job.method,
                bug=job.bug(),
                criterion=job.criterion,
                max_conflicts=max_conflicts,
                **extra,
            )
    except (MemoryError, ReproError, ValueError) as exc:
        outcome = AttemptFailure(
            type(exc).__name__, str(exc),
            # The paper's protocol: rerun the 4 GB kills bigger.
            recoverable=isinstance(exc, (BudgetExhausted, MemoryError)),
        )
    else:
        outcome = JobResult.from_verification(job, attempt, result)
    span = tracer.root
    return outcome, {
        "campaign.job_seconds": span.wall_seconds,
        "campaign.job_cpu_seconds": span.cpu_seconds,
    }
