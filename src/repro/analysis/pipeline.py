"""Orchestration of the soundness analyzers over the verification flow.

:func:`analyze_encoding` audits the artifacts of one
:func:`repro.encode.evc.encode_validity` run — polarity cross-check,
maximal-diversity audit, transitivity completeness, propositional
residue, clause hygiene and DAG hygiene.  :func:`analyze_config` builds
the formula the verifier decides for a processor configuration with the
verifier's own step (:func:`repro.core.verifier.build_formula`), encodes
it and audits every stage, adding the rewrite-rule application tally.
:func:`build_report` / ``repro lint`` run :func:`analyze_config` over a
set of configurations plus the rule-registry analysis of
:mod:`repro.analysis.rules` (side conditions, soundness, confluence and
termination).

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` records; an
:class:`AnalysisReport` wraps a list of them with the exit-code contract
(non-zero exactly when error-level findings are present).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.verifier import METHODS, build_formula
from ..encode.evc import EncodedValidity, encode_validity
from ..eufm.ast import run_scope
from ..eufm.traversal import term_variables
from ..processor.bugs import Bug
from ..processor.params import ProcessorConfig
from .cnf_audit import audit_cnf, audit_eij_transitivity
from .dag_lint import audit_hash_consing, audit_memory_free, audit_propositional
from .diagnostics import (
    ERROR,
    INFO,
    AnalysisReport,
    Diagnostic,
)
from .polarity_check import audit_diversity, cross_check_polarity, derive_polarity
from .rules import analyze_rules

__all__ = [
    "AnalysisReport",
    "analyze_encoding",
    "analyze_config",
    "analyze_verification",
    "rewrite_tally_diagnostic",
    "build_report",
]


def analyze_encoding(
    encoded: EncodedValidity, subject: str = ""
) -> List[Diagnostic]:
    """Audit every artifact of one EUFM-to-CNF translation; findings that
    name no subject of their own get ``subject``."""
    diagnostics: List[Diagnostic] = []

    memory_free = encoded.memory_free
    clean_memory = False
    if memory_free is not None:
        residue = audit_memory_free(memory_free, stage="encode")
        diagnostics.extend(residue)
        clean_memory = not residue

    if memory_free is not None and clean_memory and encoded.polarity is not None:
        diagnostics.extend(cross_check_polarity(memory_free, encoded.polarity))

    if encoded.eij is not None and encoded.polarity is not None:
        independent_g = None
        known_vars = None
        encoding_g = None
        if encoded.uf_elim is not None:
            encoding_g = set(encoded.polarity.g_vars)
            encoding_g |= encoded.uf_elim.fresh_g_vars
            if memory_free is not None and clean_memory:
                # The justification for maximal diversity lives at the
                # pre-UF-elimination level: re-derive the g-set there and
                # extend it to the fresh variables whose symbol is
                # independently general (BGV inheritance).
                independent = derive_polarity(memory_free)
                independent_g = set(independent.g_vars)
                for fresh in encoded.uf_elim.fresh_term_vars:
                    symbol, _args = encoded.uf_elim.provenance[fresh]
                    if symbol in independent.g_symbols:
                        independent_g.add(fresh)
                known_vars = set(term_variables(memory_free))
                known_vars |= set(encoded.uf_elim.fresh_term_vars)
        diagnostics.extend(audit_diversity(
            encoded.eij,
            encoded.polarity,
            independent_g_vars=independent_g,
            known_vars=known_vars,
            encoding_g_vars=encoding_g,
        ))
        diagnostics.extend(
            audit_eij_transitivity(encoded.eij, encoded.transitivity)
        )

    diagnostics.extend(
        audit_propositional(encoded.propositional, stage="encode")
    )
    roots = [encoded.propositional]
    if memory_free is not None:
        roots.append(memory_free)
    diagnostics.extend(audit_hash_consing(*roots))

    if encoded.tseitin is not None:
        diagnostics.extend(audit_cnf(encoded.tseitin, expect_root_unit=True))
    elif encoded.constant_validity is None:
        diagnostics.append(Diagnostic(
            severity=ERROR,
            stage="cnf",
            check="cnf.translation-missing",
            message=(
                "the encoding produced neither a CNF translation nor a "
                "constant verdict"
            ),
        ))
    for diag in diagnostics:
        diag.subject = diag.subject or subject
    return diagnostics


def rewrite_tally_diagnostic(rewrite, subject: str) -> Diagnostic:
    """Info-level record of how many times each rewrite rule fired."""
    tally = getattr(rewrite, "rules_applied", {}) or {}
    if tally:
        message = "rule applications: " + ", ".join(
            f"{rule}={count}" for rule, count in sorted(tally.items())
        )
    else:
        message = "no rule applications recorded"
    return Diagnostic(
        severity=INFO,
        stage="rewrite",
        check="rewrite.rules-applied",
        subject=subject,
        message=message,
        data={"rules_applied": dict(tally)},
    )


def analyze_verification(result) -> List[Diagnostic]:
    """Audit the artifacts a finished :func:`repro.core.verify` run left.

    Unlike :func:`analyze_config`, a rewriting failure is *not* a finding
    here: the verification result already reports it as a (suspected)
    design bug, which is a verdict, not a soundness defect.
    """
    subject = f"{result.config.describe()} [{result.method}]"
    diagnostics: List[Diagnostic] = []
    if result.rewrite is not None and result.rewrite.succeeded:
        diagnostics.append(
            rewrite_tally_diagnostic(result.rewrite, subject)
        )
    if result.validity is not None:
        diagnostics.extend(analyze_encoding(result.validity.encoded, subject))
    return diagnostics


def analyze_config(
    config: ProcessorConfig,
    method: str = "rewriting",
    criterion: str = "disjunction",
    bug: Optional[Bug] = None,
) -> List[Diagnostic]:
    """Build the formula ``verify()`` decides for ``config`` and audit
    every stage, in a run of its own."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    subject = f"{config.describe()} [{method}]"
    diagnostics: List[Diagnostic] = []
    with run_scope():
        rewrite, formula, memory_mode = build_formula(
            config, method, bug, criterion
        )
        if formula is None:
            failure = rewrite.failure
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="rewrite",
                check="rewrite.slice-did-not-conform",
                subject=subject,
                message=failure.describe(),
                data={"entry": failure.entry, "stage": failure.stage},
            ))
            return diagnostics
        if rewrite is not None:
            diagnostics.append(rewrite_tally_diagnostic(rewrite, subject))
        encoded = encode_validity(formula, memory_mode=memory_mode)
        diagnostics.extend(analyze_encoding(encoded, subject))
    return diagnostics


def build_report(
    configs: Sequence[ProcessorConfig],
    methods: Sequence[str] = METHODS,
    criterion: str = "disjunction",
    check_rules: bool = True,
) -> AnalysisReport:
    """The full ``repro lint`` report: rule registry plus configurations."""
    report = AnalysisReport()
    if check_rules:
        report.extend(analyze_rules())
    for config in configs:
        for method in methods:
            report.extend(
                analyze_config(config, method=method, criterion=criterion)
            )
    return report
