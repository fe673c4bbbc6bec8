"""Structured findings produced by the soundness analyzers.

Every checker in :mod:`repro.analysis` reports :class:`Diagnostic` records
rather than printing or raising: a diagnostic names the pipeline *stage*
it audits (``polarity``, ``rules``, ``cnf``, ``dag``, ``encode``,
``rewrite``), a machine-readable *check* identifier, the *subject* it
flagged (a node, rule name or clause index) and a human explanation.
Severities follow the ``repro lint`` exit-code contract:

* ``error`` — a soundness invariant is violated; the encoder or a rewrite
  rule cannot be trusted.  ``python -m repro lint`` exits non-zero.
* ``warning`` — sound but suspicious (lost precision, dead artifacts).
* ``info`` — statistics worth journaling (rule application tallies...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "AnalysisReport",
    "Diagnostic",
    "errors_in",
    "max_severity",
    "summarize",
    "sort_report",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: All severities, most severe first (the order used for sorting reports).
SEVERITIES = (ERROR, WARNING, INFO)

_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}


@dataclass
class Diagnostic:
    """One finding of a soundness analyzer."""

    severity: str
    #: pipeline stage audited: polarity | rules | cnf | dag | encode | rewrite.
    stage: str
    #: stable machine identifier, e.g. ``"polarity.p-var-in-general-position"``.
    check: str
    #: human-readable explanation of the finding.
    message: str
    #: what was flagged: a rule name, a variable/node rendering, a clause index.
    subject: str = ""
    #: structured payload (witness interpretations, counts, names).
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; use one of {SEVERITIES}"
            )

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> Dict[str, Any]:
        return {
            "severity": self.severity,
            "stage": self.stage,
            "check": self.check,
            "subject": self.subject,
            "message": self.message,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Diagnostic":
        return cls(
            severity=payload["severity"],
            stage=payload["stage"],
            check=payload["check"],
            message=payload.get("message", ""),
            subject=payload.get("subject", ""),
            data=dict(payload.get("data", {})),
        )

    def render(self) -> str:
        subject = f" [{self.subject}]" if self.subject else ""
        return f"{self.severity}: {self.stage}/{self.check}{subject}: {self.message}"


def errors_in(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """The error-level findings, in report order."""
    return [diag for diag in diagnostics if diag.is_error]


def max_severity(diagnostics: Iterable[Diagnostic]) -> str:
    """The most severe level present; ``"info"`` for an empty report."""
    best = INFO
    for diag in diagnostics:
        if _RANK[diag.severity] < _RANK[best]:
            best = diag.severity
    return best


def summarize(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    """Counts per severity (all severities present, possibly zero)."""
    counts = {severity: 0 for severity in SEVERITIES}
    for diag in diagnostics:
        counts[diag.severity] += 1
    return counts


def sort_report(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable sort: errors first, then warnings, then info."""
    return sorted(diagnostics, key=lambda diag: _RANK[diag.severity])


@dataclass
class AnalysisReport:
    """A set of findings plus the shared exit-code contract.

    Both diagnostic CLIs — ``python -m repro lint`` and ``python -m
    repro staticcheck`` — wrap their findings in this report, so they
    emit one JSON schema (``max_severity`` / ``summary`` /
    ``findings``) and exit non-zero exactly when error-level findings
    are present.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, findings: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    @property
    def errors(self) -> List[Diagnostic]:
        return errors_in(self.diagnostics)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def exit_code(self) -> int:
        return 1 if self.has_errors else 0

    def to_dict(self) -> Dict[str, Any]:
        ordered = sort_report(self.diagnostics)
        return {
            "max_severity": max_severity(ordered),
            "summary": summarize(ordered),
            "findings": [diag.to_dict() for diag in ordered],
        }

    def render(self, title: str = "Soundness findings") -> str:
        from ..core.reporting import render_diagnostics

        return render_diagnostics(self.diagnostics, title=title)
