"""Structured exception taxonomy for the verification stack.

Every failure a verification run can surface derives from
:class:`ReproError`, so callers (and in particular the campaign runner in
:mod:`repro.campaign`) can distinguish *recoverable* failures — a SAT
budget that ran out and can be escalated, a rewriting pass that did not
conform — from programming errors, without matching on bare
``TimeoutError``/``RuntimeError``.

:class:`BudgetExhausted` additionally subclasses :class:`TimeoutError` so
existing ``except TimeoutError`` call sites keep working; it carries the
partial statistics of the aborted run (conflicts spent, seconds, and the
phase ``timings`` accumulated before the budget ran out).
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "ReproError",
    "BudgetExhausted",
    "MemoryBudgetExhausted",
    "RewriteFailed",
    "EncodingError",
    "SolverError",
    "WitnessError",
    "CampaignError",
    "JournalError",
]


class ReproError(Exception):
    """Base class of all structured verification failures."""


class BudgetExhausted(ReproError, TimeoutError):
    """A conflict or wall-clock budget ran out before a verdict.

    Plays the role of the paper's 4 GB memory limit in the scaling
    experiments (Sect. 7.1): the run is *inconclusive*, not wrong, and may
    succeed when retried with a larger budget.

    Attributes:
        conflicts: SAT conflicts spent before the abort (if known).
        seconds: wall-clock seconds spent before the abort (if known):
            the elapsed deadline for a guard budget, the "sat" span's
            wall time for the SAT solver's own budget.
        budget_kind: ``"conflicts"``, ``"wall"``, ``"memory"`` or
            ``"splits"``.
        stage: pipeline stage that observed the exhaustion (``"tlsim"``,
            ``"rewrite"``, ``"encode.eij"``, ``"sat"``, ``"witness"``,
            ...) when a :class:`repro.guard.Deadline` raised it; ``None``
            for plain solver-budget exhaustion.
        timings: phase timings accumulated before the abort;
            :func:`repro.core.verify` fills this dict from its span tree
            as the exception propagates, so the caller still sees the
            simulate/rewrite/translate/sat splits.
    """

    def __init__(
        self,
        message: str,
        *,
        conflicts: Optional[int] = None,
        seconds: Optional[float] = None,
        budget_kind: str = "conflicts",
        stage: Optional[str] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(message)
        self.conflicts = conflicts
        self.seconds = seconds
        self.budget_kind = budget_kind
        self.stage = stage
        self.timings: Dict[str, float] = dict(timings or {})


class MemoryBudgetExhausted(BudgetExhausted, MemoryError):
    """A memory budget ran out before a verdict.

    Subclasses both :class:`BudgetExhausted` (a campaign attempt that
    fails with either ``BudgetExhausted`` or ``MemoryError`` is retried
    under an escalated budget, so either parent suffices) and
    :class:`MemoryError` (the exception a real allocator failure raises,
    which the paper's 4 GB kills correspond to).

    Attributes:
        bytes_used: estimated bytes attributed to the run at the abort.
        max_bytes: the budget that was exceeded.
    """

    def __init__(
        self,
        message: str,
        *,
        bytes_used: Optional[int] = None,
        max_bytes: Optional[int] = None,
        stage: Optional[str] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(
            message, budget_kind="memory", stage=stage, timings=timings
        )
        self.bytes_used = bytes_used
        self.max_bytes = max_bytes


class RewriteFailed(ReproError):
    """The rewriting engine could not process the update sequences.

    Distinct from a rewriting pass that *flags a bug* (which is a normal
    :class:`~repro.core.results.VerificationResult` outcome): this error
    means the diagram did not have the structural shape the rules assume,
    so the rewriting method itself is inapplicable.  It is structural: a
    campaign ends the job ``INCONCLUSIVE`` under its own method, since no
    bigger budget can help, and runs no other method in its place.
    """

    def __init__(self, message: str, *, entry: Optional[int] = None,
                 stage: Optional[str] = None) -> None:
        super().__init__(message)
        self.entry = entry
        self.stage = stage


class EncodingError(ReproError):
    """The EUFM-to-CNF translation produced an inconsistent artifact."""


class SolverError(ReproError):
    """A decision procedure was handed malformed input or lost an invariant."""


class WitnessError(ReproError):
    """A verdict witness could not be produced or failed validation.

    Raised by :mod:`repro.witness` when certification is requested but the
    run carries no certifiable artifact (e.g. ``verify()`` ran without
    ``certify=True`` so no DRUP proof was logged), or when a stored proof
    or counterexample is malformed.  A witness that was produced but does
    not validate is *returned* (``Witness.validated`` False), not raised —
    callers decide whether that is fatal.
    """


class CampaignError(ReproError):
    """A campaign was misconfigured (duplicate job ids, empty job list...)."""


class JournalError(CampaignError):
    """A campaign journal is unreadable beyond the tolerated corruption."""
