"""Deterministic fault injection for campaign robustness testing.

The runner's recovery paths — retry with budget escalation, a
structured ``INCONCLUSIVE``, journal resume — only earn trust if they can
be exercised on demand.  A :class:`FaultPlan` maps ``(job_id, attempt)``
to a synthetic failure that fires exactly once, at the seam where the
runner hands a job to :func:`repro.core.verify`:

* ``solver-timeout`` — raises :class:`~repro.errors.BudgetExhausted`, the
  exact exception a real SAT budget blow-up produces;
* ``rewrite-failure`` — raises :class:`~repro.errors.RewriteFailed`, as
  when the diagram lacks the structure the rewriting rules assume; a
  structural failure, so the job ends ``INCONCLUSIVE`` without a retry;
* ``oom`` — raises :class:`MemoryError`, simulating the paper's 4 GB
  memory-limit kills;
* ``crash`` — raises :class:`InjectedCrash` (a ``BaseException``), which
  no recovery path may catch: it unwinds the whole campaign exactly like
  ``kill -9`` mid-run, leaving the journal with an in-flight job;
* ``journal-corrupt`` — garbles the tail of the journal *and then*
  crashes, simulating a torn write at the moment the machine died;
* ``hang`` — stops emitting heartbeats and sleeps (forever by default,
  or for ``amount`` seconds), the wedge a livelocked solver produces; in
  a parallel campaign the parent's hang detector must kill the worker;
* ``memory-bloat`` — allocates ``amount`` MiB in 1 MiB chunks, charging
  the ambient :class:`repro.guard.MemoryBudget` so a configured budget
  trips :class:`~repro.errors.MemoryBudgetExhausted`; without a budget
  it ends in a plain :class:`MemoryError`;
* ``slow`` — injects a per-check delay into one pipeline stage via
  :meth:`repro.guard.Deadline.add_stage_delay`, turning a fast job into
  a deadline-limited one without touching the pipeline.

Because injected failures use the same exception types as real ones, the
runner cannot distinguish drill from emergency — the recovery machinery
under test is the production machinery.

Parallel campaigns (``CampaignRunner(..., workers=N)``) partition a plan
deterministically by job id: each worker receives exactly the faults of
the job it is about to run (:meth:`FaultPlan.for_job`), so ``--workers N``
reproduces the same injected faults as a sequential run regardless of
which worker a job lands on.  Two kinds change scope in a worker:
``crash`` kills only that worker process (the parent journals a failed
attempt and retries the job), and ``journal-corrupt`` becomes a plain
crash — workers hold no journal handle, which is the single-writer
invariant itself, so there is no tail for them to tear.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import BudgetExhausted, CampaignError, RewriteFailed
from ..guard.deadline import current_deadline
from .journal import Journal

__all__ = ["FaultKind", "Fault", "FaultPlan", "InjectedCrash"]


class InjectedCrash(BaseException):
    """Simulated process death.

    Deliberately a ``BaseException``: the runner's ``except ReproError``
    recovery handlers must not (and cannot) swallow it, mirroring a real
    SIGKILL which no handler sees.
    """


class FaultKind:
    """Supported synthetic failure classes."""

    SOLVER_TIMEOUT = "solver-timeout"
    REWRITE_FAILURE = "rewrite-failure"
    OOM = "oom"
    CRASH = "crash"
    JOURNAL_CORRUPT = "journal-corrupt"
    HANG = "hang"
    MEMORY_BLOAT = "memory-bloat"
    SLOW = "slow"

    ALL = (
        SOLVER_TIMEOUT,
        REWRITE_FAILURE,
        OOM,
        CRASH,
        JOURNAL_CORRUPT,
        HANG,
        MEMORY_BLOAT,
        SLOW,
    )


@dataclass(frozen=True)
class Fault:
    """One planned failure.

    Attributes:
        kind: one of :class:`FaultKind`.
        job_id: the job the fault applies to.
        attempt: 1-based attempt number that triggers it, or ``0`` as a
            wildcard — the fault fires on *every* attempt of the job
            (the way to model a *permanent* hang that survives retries).
        detail: free-form text carried into the raised exception.
        stage: for ``slow``, the pipeline stage to delay (``"*"`` = all).
        amount: kind-specific magnitude — seconds for ``hang``/``slow``,
            MiB for ``memory-bloat``.
    """

    kind: str
    job_id: str
    attempt: int = 1
    detail: str = ""
    stage: Optional[str] = None
    amount: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise CampaignError(
                f"unknown fault kind {self.kind!r}; use one of {FaultKind.ALL}"
            )
        if self.attempt < 0:
            raise CampaignError(
                "fault attempt numbers are 1-based (0 = every attempt)"
            )
        if self.kind == FaultKind.SLOW and self.amount is None:
            raise CampaignError(
                "slow faults need a delay: slow[:STAGE]:SECONDS@JOB"
            )
        if self.kind == FaultKind.MEMORY_BLOAT and self.amount is None:
            raise CampaignError(
                "memory-bloat faults need a size: memory-bloat:MIB@JOB"
            )

    def to_dict(self) -> Dict[str, object]:
        """Picklable/JSON form (the shape worker task messages carry)."""
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "attempt": self.attempt,
            "detail": self.detail,
            "stage": self.stage,
            "amount": self.amount,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Fault":
        return cls(**data)

    @classmethod
    def parse(cls, text: str) -> "Fault":
        """Parse the CLI form ``KIND[:ARG[:ARG]]@JOB_ID[:ATTEMPT|*]``.

        Examples: ``solver-timeout@rw-N4-k2`` (attempt 1),
        ``oom@rw-N8-k2:2`` (attempt 2), ``hang@rw-N3-k1:*`` (a permanent
        hang firing on every attempt), ``hang:10@rw-N3-k1`` (hang for
        10 s), ``memory-bloat:64@rw-N4-k2`` (allocate 64 MiB), and
        ``slow:sat:0.5@rw-N4-k2`` (0.5 s delay at every SAT-stage
        deadline check; omit the stage — ``slow:0.5@...`` — to slow
        every stage).
        """
        if "@" not in text:
            raise CampaignError(
                f"bad fault spec {text!r}; expected "
                "KIND[:ARG[:ARG]]@JOB_ID[:ATTEMPT|*]"
            )
        head, _, target = text.partition("@")
        parts = [part.strip() for part in head.split(":")]
        kind, args = parts[0], parts[1:]
        stage: Optional[str] = None
        amount: Optional[float] = None

        def as_amount(word: str) -> float:
            try:
                return float(word)
            except ValueError:
                raise CampaignError(
                    f"bad fault spec {text!r}; {word!r} is not a number"
                )

        if kind == FaultKind.SLOW and len(args) == 2:
            stage, amount = args[0], as_amount(args[1])
        elif kind in (
            FaultKind.SLOW, FaultKind.HANG, FaultKind.MEMORY_BLOAT
        ) and len(args) == 1:
            amount = as_amount(args[0])
        elif args:
            raise CampaignError(
                f"bad fault spec {text!r}; unexpected argument(s) "
                f"{args} for fault kind {kind!r}"
            )
        job_id, _, attempt_text = target.rpartition(":")
        if not job_id:
            job_id, attempt_text = target, ""
        if attempt_text == "*":
            attempt = 0
        else:
            try:
                attempt = int(attempt_text) if attempt_text else 1
            except ValueError:
                raise CampaignError(
                    f"bad fault spec {text!r}; attempt {attempt_text!r} "
                    "is not an integer or '*'"
                )
        return cls(
            kind=kind, job_id=job_id, attempt=attempt,
            stage=stage, amount=amount,
        )


class FaultPlan:
    """A deterministic schedule of faults.

    Exact-attempt faults fire at most once.  Wildcard faults
    (``attempt=0``) fire on *every* attempt of their job — the shape a
    permanent wedge has, where retrying cannot help.  An exact fault
    shadows the wildcard on its attempt.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._by_key: Dict[Tuple[str, int], Fault] = {}
        for fault in faults:
            key = (fault.job_id, fault.attempt)
            if key in self._by_key:
                raise CampaignError(
                    f"duplicate fault for job {fault.job_id!r} "
                    f"attempt {fault.attempt}"
                )
            self._by_key[key] = fault
        self._fired: Set[Tuple[str, int]] = set()
        self._wildcard_fires = 0

    def __len__(self) -> int:
        return len(self._by_key)

    @property
    def fired(self) -> int:
        return len(self._fired) + self._wildcard_fires

    def for_job(self, job_id: str) -> Tuple[Fault, ...]:
        """This job's faults — the deterministic per-job partition that a
        parallel worker receives, ordered by attempt number."""
        return tuple(
            fault
            for (fid, _), fault in sorted(self._by_key.items())
            if fid == job_id
        )

    def fire(
        self, job_id: str, attempt: int, journal: Optional[Journal] = None
    ) -> None:
        """Raise the planned fault for this attempt, if any."""
        key = (job_id, attempt)
        fault = self._by_key.get(key)
        wildcard = False
        if fault is None or key in self._fired:
            fault, wildcard = self._by_key.get((job_id, 0)), True
            if fault is None:
                return
        if wildcard:
            self._wildcard_fires += 1
        else:
            self._fired.add(key)
        where = f"job {job_id!r} attempt {attempt}"
        detail = fault.detail or f"injected at {where}"
        if fault.kind == FaultKind.SOLVER_TIMEOUT:
            raise BudgetExhausted(
                f"injected solver timeout: {detail}",
                conflicts=0,
                seconds=0.0,
            )
        if fault.kind == FaultKind.REWRITE_FAILURE:
            raise RewriteFailed(
                f"injected rewrite failure: {detail}", stage="injected"
            )
        if fault.kind == FaultKind.OOM:
            raise MemoryError(f"injected out-of-memory: {detail}")
        if fault.kind == FaultKind.JOURNAL_CORRUPT:
            if journal is not None:
                journal.corrupt_tail()
            raise InjectedCrash(f"injected torn-write crash: {detail}")
        if fault.kind == FaultKind.HANG:
            _hang(fault.amount, detail)
        if fault.kind == FaultKind.MEMORY_BLOAT:
            _bloat_memory(float(fault.amount or 0.0), detail)
        if fault.kind == FaultKind.SLOW:
            current_deadline().add_stage_delay(
                fault.stage or "*", float(fault.amount or 0.0)
            )
            return
        raise InjectedCrash(f"injected crash: {detail}")


def _hang(seconds: Optional[float], detail: str) -> None:
    """Go silent: sleep without heartbeats, checks, or progress.

    Unbounded (``seconds=None``) hangs mimic a true livelock and only
    end when the parent's hang detector kills the worker.  Bounded hangs
    eventually raise :class:`~repro.errors.BudgetExhausted` — a
    sequential-safe wedge the executor treats as a recoverable failure.
    """
    if seconds is None:
        while True:  # pragma: no cover - only ends via SIGTERM/SIGKILL
            time.sleep(60.0)
    time.sleep(seconds)
    raise BudgetExhausted(
        f"injected hang expired: {detail}",
        budget_kind="wall",
        seconds=seconds,
        stage="injected-hang",
    )


def _bloat_memory(mib: float, detail: str) -> None:
    """Allocate ``mib`` MiB in 1 MiB chunks, charging the ambient budget.

    With a :class:`repro.guard.MemoryBudget` ambient, the charge trips
    :class:`~repro.errors.MemoryBudgetExhausted` deterministically
    before the allocation finishes; without one, the allocation
    completes and a plain :class:`MemoryError` is raised — recoverable
    through the executor's OOM path either way.
    """
    deadline = current_deadline()
    hoard: List[bytearray] = []
    chunk = 1 << 20
    for _ in range(max(1, int(mib))):
        hoard.append(bytearray(chunk))
        deadline.charge(bytes_=chunk)
        deadline.check("memory-bloat")
    del hoard
    raise MemoryError(f"injected memory bloat ({mib:g} MiB): {detail}")
