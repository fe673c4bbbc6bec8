"""Static soundness analysis of the verification pipeline.

The analyzers audit the EUFM DAG, the Positive-Equality classification,
the rewriting rules and the CNF output *independently* of the code that
produced them:

* :mod:`~repro.analysis.polarity_check` — re-derives the p/g
  classification with a different algorithm and cross-checks
  ``classify()``; audits every maximal-diversity decision of the
  ``e_ij`` encoder;
* :mod:`~repro.analysis.rules` — the rewrite-rule registry and its one
  checker: side conditions, soundness by exhaustive evaluation over
  small universes, critical-pair confluence and termination;
* :mod:`~repro.analysis.cnf_audit` — clause hygiene, var-map
  consistency and transitivity-triangle completeness;
* :mod:`~repro.analysis.dag_lint` — hash-consing and stage-residue
  invariants over the expression DAG;
* :mod:`~repro.analysis.pipeline` — orchestration over whole processor
  configurations (``python -m repro lint``, ``verify(analyze=True)``).

All findings are :class:`~repro.analysis.diagnostics.Diagnostic`
records; error-level findings drive the non-zero exit of ``repro lint``
and the :class:`~repro.errors.AnalysisError` raised by strict mode.
"""

from .diagnostics import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    AnalysisReport,
    Diagnostic,
    errors_in,
    max_severity,
    sort_report,
    summarize,
)
from .cnf_audit import audit_cnf, audit_eij_transitivity
from .dag_lint import (
    audit_hash_consing,
    audit_memory_free,
    audit_propositional,
)
from .pipeline import (
    analyze_config,
    analyze_encoding,
    build_report,
)
from .polarity_check import (
    IndependentClassification,
    audit_diversity,
    cross_check_polarity,
    derive_polarity,
)
from .rules import REGISTRY, RuleInstance, RuleSpec, analyze_rules

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "Diagnostic",
    "errors_in",
    "max_severity",
    "summarize",
    "sort_report",
    "AnalysisReport",
    "analyze_encoding",
    "analyze_config",
    "build_report",
    "IndependentClassification",
    "derive_polarity",
    "cross_check_polarity",
    "audit_diversity",
    "RuleInstance",
    "RuleSpec",
    "REGISTRY",
    "analyze_rules",
    "audit_cnf",
    "audit_eij_transitivity",
    "audit_hash_consing",
    "audit_memory_free",
    "audit_propositional",
]
