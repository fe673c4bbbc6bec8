"""repro — reproduction of Velev's DATE 2002 paper.

"Using Rewriting Rules and Positive Equality to Formally Verify Wide-Issue
Out-Of-Order Microprocessors with a Reorder Buffer."

Public API highlights:

* :func:`repro.core.verify` — end-to-end verification of a parameterized
  abstract out-of-order processor against its ISA specification, by the
  paper's rewriting-rules method or by Positive Equality alone.
* :mod:`repro.eufm` — the EUFM logic (terms, formulas, memories).
* :mod:`repro.processor` — the processor models and the Burch-Dill
  correctness formula.
* :mod:`repro.rewriting` — the paper's rewriting-rule engine.
* :mod:`repro.encode` — the Positive-Equality EUFM-to-CNF translation.
* :mod:`repro.sat` — the CDCL SAT solver.
* :mod:`repro.campaign` — crash-safe batched verification campaigns with
  retries and budget escalation.
* :mod:`repro.service` — the long-lived verification-as-a-service job
  server (``python -m repro serve``) with a content-addressed result
  cache and persistent witness-artifact store.
* :mod:`repro.errors` — the structured exception taxonomy
  (:class:`~repro.errors.ReproError` and friends).
"""

__version__ = "1.2.0"

from .core import VerificationResult, verify
from .errors import (
    BudgetExhausted,
    CampaignError,
    EncodingError,
    JournalError,
    ReproError,
    RewriteFailed,
    SolverError,
)
from .processor import Bug, BugKind, ProcessorConfig, forwarding_bug

__all__ = [
    "VerificationResult",
    "verify",
    "Bug",
    "BugKind",
    "ProcessorConfig",
    "forwarding_bug",
    "ReproError",
    "BudgetExhausted",
    "RewriteFailed",
    "EncodingError",
    "SolverError",
    "CampaignError",
    "JournalError",
    "__version__",
]
