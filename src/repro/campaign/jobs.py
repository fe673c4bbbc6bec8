"""Job and outcome records for verification campaigns.

A :class:`Job` is a fully serializable description of one verification
run — processor configuration, method, optional planted bug, and the
*base* budgets of the first attempt (the runner escalates them on
retries).  A :class:`JobResult` is the terminal record the campaign
produces for every job; its ``status`` is always one of
:data:`TERMINAL_STATES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.results import VerificationResult
from ..core.verifier import budget_problem
from ..errors import CampaignError
from ..processor.bugs import Bug
from ..processor.params import ProcessorConfig

__all__ = ["TERMINAL_STATES", "BUDGET_FIELDS", "Job", "JobResult"]

#: Every job ends in exactly one of these states.  ``PROVED`` — the design
#: satisfies the Burch–Dill criterion; ``BUG_FOUND`` — verification
#: produced a counterexample or the rewriting rules flagged a slice;
#: ``INCONCLUSIVE`` — the job's method ran out of attempts, or failed
#: structurally, without a verdict (the campaign analogue of the paper's
#: out-of-memory entries).
TERMINAL_STATES = ("PROVED", "BUG_FOUND", "INCONCLUSIVE")

#: The JSON type of every job-spec field, and whether it may be null.
_SPEC_TYPES: Dict[str, Tuple[Tuple[type, ...], bool]] = {
    "job_id": ((str,), False),
    "n_rob": ((int,), False),
    "issue_width": ((int,), False),
    "retire_width": ((int,), True),
    "family": ((str,), False),
    "method": ((str,), False),
    "criterion": ((str,), False),
    "bug_kind": ((str,), True),
    "bug_entry": ((int,), False),
    "bug_operand": ((int,), False),
    "max_conflicts": ((int,), True),
    "max_wall_seconds": ((int, float), True),
    "max_memory_mb": ((int, float), True),
}

_TYPE_NAMES = {
    (str,): "a string", (int,): "an integer", (int, float): "a number",
}

#: The job fields holding a base budget of the first attempt.
BUDGET_FIELDS = ("max_conflicts", "max_wall_seconds", "max_memory_mb")


@dataclass(frozen=True)
class Job:
    """One verification job in a campaign."""

    job_id: str
    n_rob: int
    issue_width: int
    retire_width: Optional[int] = None
    #: workload family (see :mod:`repro.processor.families`).
    family: str = "reg-reg"
    method: str = "rewriting"
    criterion: str = "disjunction"
    bug_kind: Optional[str] = None
    bug_entry: int = 1
    bug_operand: int = 1
    #: base budgets of attempt 1 — SAT conflicts, the run's wall-clock
    #: deadline and its memory ceiling (see :mod:`repro.guard`); ``None``
    #: defers to the runner's policy, which may also leave them unset.
    max_conflicts: Optional[int] = None
    max_wall_seconds: Optional[float] = None
    max_memory_mb: Optional[float] = None

    def __post_init__(self) -> None:
        for name in BUDGET_FIELDS:
            value = getattr(self, name)
            problem = value is not None and budget_problem(name, value)
            if problem:
                raise CampaignError(
                    f"job spec {self.job_id!r}: {name} {problem}, "
                    f"got {value!r}"
                )

    def config(self) -> ProcessorConfig:
        return ProcessorConfig(
            n_rob=self.n_rob,
            issue_width=self.issue_width,
            retire_width=self.retire_width,
            family=self.family,
        )

    def bug(self) -> Optional[Bug]:
        if self.bug_kind is None:
            return None
        return Bug(self.bug_kind, entry=self.bug_entry, operand=self.bug_operand)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "n_rob": self.n_rob,
            "issue_width": self.issue_width,
            "retire_width": self.retire_width,
            "family": self.family,
            "method": self.method,
            "criterion": self.criterion,
            "bug_kind": self.bug_kind,
            "bug_entry": self.bug_entry,
            "bug_operand": self.bug_operand,
            "max_conflicts": self.max_conflicts,
            "max_wall_seconds": self.max_wall_seconds,
            "max_memory_mb": self.max_memory_mb,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Job":
        """The job a :meth:`to_dict` spec describes.

        Raises :class:`CampaignError` naming the field for a spec of the
        wrong JSON shape or a budget :func:`verify` refuses (a negative
        or non-finite one, or a memory budget of zero).  Value ranges
        stay with :class:`ProcessorConfig`, so a bad size still lands the
        job ``INCONCLUSIVE``.  Specs written while jobs had a SAT-only
        ``max_seconds`` budget carry ``"max_seconds": null``, which is
        dropped; a non-null one is refused.
        """
        if not isinstance(data, Mapping):
            raise CampaignError(f"job spec must be an object, got {data!r}")
        data = dict(data)
        if "job_id" not in data:
            raise CampaignError("job spec is missing 'job_id'")
        where = f"job spec {data['job_id']!r}"
        if data.pop("max_seconds", None) is not None:
            raise CampaignError(
                f"{where}: max_seconds is gone; use max_wall_seconds, "
                "the run's wall-clock deadline"
            )
        unknown = set(data) - set(_SPEC_TYPES)
        if unknown:
            raise CampaignError(
                f"{where} has unknown field(s): {sorted(unknown)}"
            )
        for name, value in data.items():
            types, nullable = _SPEC_TYPES[name]
            if value is None and nullable:
                continue
            if isinstance(value, bool) or not isinstance(value, types):
                expected = _TYPE_NAMES[types]
                if nullable:
                    expected += " or null"
                raise CampaignError(
                    f"{where}: {name} must be {expected}, got {value!r}"
                )
        return cls(**data)

    @classmethod
    def build(
        cls,
        n_rob: int,
        issue_width: int,
        *,
        job_id: Optional[str] = None,
        **kwargs: Any,
    ) -> "Job":
        """Construct a job, deriving a readable id when none is given."""
        if job_id is None:
            method = kwargs.get("method", "rewriting")
            abbrev = "rw" if method == "rewriting" else "pe"
            job_id = f"{abbrev}-N{n_rob}-k{issue_width}"
            retire = kwargs.get("retire_width")
            if retire is not None and retire != issue_width:
                job_id += f"-l{retire}"
            family = kwargs.get("family", "reg-reg")
            if family != "reg-reg":
                job_id += f"-{family}"
            bug_kind = kwargs.get("bug_kind")
            if bug_kind is not None:
                job_id += f"-{bug_kind}@{kwargs.get('bug_entry', 1)}"
        return cls(job_id=job_id, n_rob=n_rob, issue_width=issue_width, **kwargs)


@dataclass
class JobResult:
    """Terminal outcome of one campaign job."""

    job_id: str
    status: str  # one of TERMINAL_STATES
    #: the job's method (a replayed ``finish`` record of an older build
    #: may name ``positive_equality`` for a ``rewriting`` job: those
    #: builds re-ran an exhausted job under it).
    method: str
    #: verify attempts this run of the job made, failed ones included
    #: (a resumed or re-queued job does not count the attempts journaled
    #: as failed before it).
    attempts: int
    detail: str = ""
    suspected_entry: Optional[int] = None
    #: serialized soundness findings of the deciding run (dicts in the
    #: :meth:`repro.analysis.diagnostics.Diagnostic.to_dict` layout);
    #: populated when the campaign runs with ``analyze=True`` and
    #: journaled with the finish record so they survive crash-and-resume.
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    #: flat perf metrics of the deciding run, in the
    #: :func:`repro.obs.metrics.snapshot_from_result` layout (the names
    #: ``perf record`` uses: ``timings.*``, ``cpu.*``, ``encode.*``,
    #: ``sat.*``, ...); journaled with the finish record so they survive
    #: crash-and-resume.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: witness digest summary of the deciding run, in the
    #: :meth:`repro.witness.types.Witness.summary_dict` layout; populated
    #: when the campaign runs with ``certify=True`` and journaled with
    #: the finish record so the certification verdict (proof digest,
    #: minimized-counterexample size, validation status) survives
    #: crash-and-resume without re-running the checker.
    witness: Optional[Dict[str, Any]] = None
    #: id of the worker process that produced this result under
    #: ``CampaignRunner(..., workers=N)``; ``None`` for in-process runs.
    worker: Optional[int] = None
    #: True when this result was replayed from the journal, not re-run.
    from_journal: bool = False

    def __post_init__(self) -> None:
        if self.status not in TERMINAL_STATES:
            raise CampaignError(
                f"{self.status!r} is not a terminal state {TERMINAL_STATES}"
            )

    @classmethod
    def from_verification(
        cls, job: Job, attempts: int, result: VerificationResult
    ) -> "JobResult":
        if result.correct:
            status, detail = "PROVED", ""
        else:
            status = "BUG_FOUND"
            detail = result.failure_detail or "SAT counterexample"
        diagnostics = [
            diag.to_dict() if hasattr(diag, "to_dict") else dict(diag)
            for diag in getattr(result, "diagnostics", []) or []
        ]
        from ..obs.metrics import snapshot_from_result

        metrics = snapshot_from_result(result).metrics
        witness = (
            result.witness.summary_dict()
            if getattr(result, "witness", None) is not None
            else None
        )
        return cls(
            job_id=job.job_id,
            status=status,
            method=job.method,
            attempts=attempts,
            detail=detail,
            suspected_entry=result.suspected_entry,
            diagnostics=diagnostics,
            metrics=metrics,
            witness=witness,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "method": self.method,
            "attempts": self.attempts,
            "detail": self.detail,
            "suspected_entry": self.suspected_entry,
            "diagnostics": self.diagnostics,
            "metrics": self.metrics,
            "witness": self.witness,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        return cls(
            job_id=data["job_id"],
            status=data["status"],
            method=data.get("method", "rewriting"),
            attempts=int(data.get("attempts", 1)),
            detail=data.get("detail", ""),
            suspected_entry=data.get("suspected_entry"),
            diagnostics=list(data.get("diagnostics", [])),
            metrics=dict(data.get("metrics", {})),
            witness=data.get("witness"),
            worker=data.get("worker"),
        )
