"""Result dataclasses for the top-level verification API."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..encode.evc import EncodingStats, ValidityResult
from ..obs.tracer import Span
from ..processor.bugs import Bug
from ..processor.params import ProcessorConfig
from ..rewriting.engine import RewriteResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..witness.types import Witness

__all__ = ["VerificationResult"]


@dataclass
class VerificationResult:
    """Outcome of verifying one processor configuration."""

    config: ProcessorConfig
    method: str
    bug: Optional[Bug]
    #: the verdict: True when the design satisfies the Burch–Dill criterion.
    correct: bool
    #: the computation slice the rewriting rules flagged (buggy designs).
    suspected_entry: Optional[int] = None
    #: stage/detail of the rewriting failure, when one occurred.
    failure_detail: Optional[str] = None
    rewrite: Optional[RewriteResult] = None
    validity: Optional[ValidityResult] = None
    #: phase timings in seconds: simulate, rewrite, translate, sat, total.
    timings: Dict[str, float] = field(default_factory=dict)
    #: counterexample assignment for incorrect designs (named variables;
    #: ``None`` values are variables the SAT model never decided).
    counterexample: Optional[Dict[str, Optional[bool]]] = None
    #: independently checked verdict evidence from ``verify(certify=True)``
    #: (a :class:`~repro.witness.types.Witness`): a machine-checked DRUP
    #: proof for correct designs, a replayed + minimized term-level
    #: counterexample for buggy ones.
    witness: Optional["Witness"] = None
    #: the run's span tree, attached by every ``verify()`` call: the one
    #: source of its timings and counts.  ``timings`` is the flat
    #: per-phase view derived from it, and
    #: :func:`repro.obs.metrics.snapshot_from_result` flattens it.
    trace: Optional[Span] = None

    @property
    def encoding_stats(self) -> Optional[EncodingStats]:
        if self.validity is None:
            return None
        return self.validity.encoded.stats

    def summary(self) -> str:
        verdict = "correct" if self.correct else "INCORRECT"
        parts = [
            f"{self.config.describe()} — {verdict} "
            f"(method={self.method}, total {self.timings.get('total', 0.0):.2f}s)"
        ]
        if self.suspected_entry is not None:
            parts.append(
                f"  rewriting flagged computation slice {self.suspected_entry}: "
                f"{self.failure_detail}"
            )
        stats = self.encoding_stats
        if stats is not None:
            parts.append(
                f"  CNF: {stats.cnf_vars} vars, {stats.cnf_clauses} clauses, "
                f"{stats.eij_primary} e_ij + {stats.other_primary} other "
                "primary inputs"
            )
        return "\n".join(parts)
