"""Invariant auditing of the CNF translation and the ``e_ij`` graph.

The checks here run over the *artifacts* of :func:`repro.encode.evc.
encode_validity` — the Tseitin clause database and the ``e_ij``/
transitivity results — and verify the invariants the SAT handoff relies
on:

* clause hygiene: no tautological clauses, no duplicate clauses, no
  literals over unallocated variables, no stray empty clause;
* var-map consistency: every primary variable in the Tseitin ``var_map``
  is allocated, carries the matching name in the clause database, and
  every *named* CNF variable is conversely reachable from the var map
  (a named variable the map forgot cannot be decoded from a model);
* the root literal is asserted as a unit clause when the translation is
  used for satisfiability checking;
* ``e_ij`` naming discipline (``eij!<low>!<high>`` for the sorted pair);
* transitivity completeness: every triangle of the chordalized
  comparison graph (original ``e_ij`` edges plus fill edges) has its
  three implication constraints emitted.  A missing triangle means a
  propositional model may not correspond to any equivalence relation —
  the classic unsoundness of an incomplete ``e_ij`` encoding.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from ..encode.eij import EijResult
from ..encode.transitivity import TransitivityResult
from ..eufm.ast import BoolVar, TermVar
from ..sat.tseitin import TseitinResult
from .diagnostics import ERROR, INFO, WARNING, Diagnostic

__all__ = ["audit_cnf", "audit_eij_transitivity"]


def audit_cnf(
    result: TseitinResult, expect_root_unit: bool = True
) -> List[Diagnostic]:
    """All clause-database findings for one Tseitin translation."""
    diagnostics: List[Diagnostic] = []
    cnf = result.cnf

    seen_clauses: Dict[FrozenSet[int], int] = {}
    for index, clause in enumerate(cnf.clauses):
        literals = set(clause)
        if 0 in literals:
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="cnf",
                check="cnf.zero-literal",
                subject=f"clause {index}",
                message="clause contains the reserved literal 0",
            ))
        if any(-lit in literals for lit in literals):
            diagnostics.append(Diagnostic(
                severity=WARNING,
                stage="cnf",
                check="cnf.tautological-clause",
                subject=f"clause {index}",
                message=(
                    "clause contains a complementary literal pair and is "
                    "always satisfied; it should be dropped before the "
                    "solver handoff"
                ),
                data={"clause": list(clause)},
            ))
        if any(abs(lit) > cnf.num_vars for lit in literals):
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="cnf",
                check="cnf.unallocated-variable",
                subject=f"clause {index}",
                message="clause references a variable that was never allocated",
                data={"clause": list(clause)},
            ))
        if not clause and result.constant is None:
            diagnostics.append(Diagnostic(
                severity=WARNING,
                stage="cnf",
                check="cnf.unexpected-empty-clause",
                subject=f"clause {index}",
                message=(
                    "empty clause in a non-constant translation; the CNF is "
                    "trivially unsatisfiable regardless of the formula"
                ),
            ))
        key = frozenset(clause)
        if key in seen_clauses and clause:
            diagnostics.append(Diagnostic(
                severity=WARNING,
                stage="cnf",
                check="cnf.duplicate-clause",
                subject=f"clause {index}",
                message=(
                    f"clause duplicates clause {seen_clauses[key]}; "
                    "duplicates cost solver time without constraining models"
                ),
                data={"clause": list(clause), "first": seen_clauses[key]},
            ))
        else:
            seen_clauses.setdefault(key, index)

    for var, cnf_index in result.var_map.items():
        if not (1 <= cnf_index <= cnf.num_vars):
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="cnf",
                check="cnf.var-map-out-of-range",
                subject=var.name,
                message=(
                    f"var map sends {var.name!r} to CNF variable "
                    f"{cnf_index}, outside 1..{cnf.num_vars}"
                ),
            ))
            continue
        recorded = cnf.names.get(cnf_index)
        if recorded != var.name:
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="cnf",
                check="cnf.var-map-name-mismatch",
                subject=var.name,
                message=(
                    f"CNF variable {cnf_index} is named {recorded!r} in the "
                    f"clause database but maps from {var.name!r}"
                ),
            ))
    mapped_indices = set(result.var_map.values())
    for cnf_index, name in sorted(cnf.names.items()):
        if cnf_index not in mapped_indices:
            diagnostics.append(Diagnostic(
                severity=WARNING,
                stage="cnf",
                check="cnf.named-var-not-in-var-map",
                subject=name,
                message=(
                    f"CNF variable {cnf_index} carries the name {name!r} "
                    "but is absent from the var map; its model value cannot "
                    "be decoded back to the EUFM level"
                ),
            ))

    if expect_root_unit and result.root_literal is not None:
        if (result.root_literal,) not in cnf.clauses:
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="cnf",
                check="cnf.root-not-asserted",
                subject=str(result.root_literal),
                message=(
                    "the root literal is not asserted as a unit clause; "
                    "the CNF does not constrain the formula's value"
                ),
            ))

    if not diagnostics:
        diagnostics.append(Diagnostic(
            severity=INFO,
            stage="cnf",
            check="cnf.audit-clean",
            message=(
                f"{cnf.num_clauses} clause(s) over {cnf.num_vars} "
                "variable(s) audited"
            ),
        ))
    return diagnostics


def _expected_name(pair: FrozenSet[TermVar]) -> str:
    low, high = sorted(var.name for var in pair)
    return f"eij!{low}!{high}"


def audit_eij_transitivity(
    eij: EijResult, trans: Optional[TransitivityResult]
) -> List[Diagnostic]:
    """Check ``e_ij`` naming and transitivity-triangle completeness."""
    diagnostics: List[Diagnostic] = []
    edges: Dict[FrozenSet[TermVar], BoolVar] = dict(eij.eij_vars)
    if trans is not None:
        edges.update(trans.fill_vars)

    for pair, var in sorted(edges.items(), key=lambda item: item[1].name):
        expected = _expected_name(pair)
        if var.name != expected:
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="encode",
                check="eij.misnamed-variable",
                subject=var.name,
                message=(
                    f"e_ij variable for pair {expected[4:]!r} is named "
                    f"{var.name!r}; model decoding keys on the naming "
                    "convention"
                ),
            ))

    if trans is not None:
        adjacency: Dict[TermVar, Set[TermVar]] = {}
        for pair in edges:
            a, b = tuple(pair)
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        emitted = {frozenset(triangle) for triangle in trans.triangles}
        for triangle in trans.triangles:
            for first, second in (
                (triangle[0], triangle[1]),
                (triangle[0], triangle[2]),
                (triangle[1], triangle[2]),
            ):
                if frozenset((first, second)) not in edges:
                    diagnostics.append(Diagnostic(
                        severity=ERROR,
                        stage="encode",
                        check="eij.triangle-over-unknown-edge",
                        subject=_expected_name(frozenset((first, second))),
                        message=(
                            "a transitivity triangle references a pair with "
                            "no e_ij or fill variable"
                        ),
                    ))
        seen_missing: Set[FrozenSet[TermVar]] = set()
        for pair in edges:
            a, b = tuple(pair)
            for common in adjacency.get(a, set()) & adjacency.get(b, set()):
                triangle = frozenset((a, b, common))
                if triangle in emitted or triangle in seen_missing:
                    continue
                seen_missing.add(triangle)
                names = sorted(var.name for var in triangle)
                diagnostics.append(Diagnostic(
                    severity=ERROR,
                    stage="encode",
                    check="eij.missing-transitivity-triangle",
                    subject="/".join(names),
                    message=(
                        "triangle of the chordalized comparison graph has "
                        "no transitivity constraints; a SAT model may not "
                        "correspond to any equivalence relation"
                    ),
                ))

    if not diagnostics:
        triangles = len(trans.triangles) if trans is not None else 0
        diagnostics.append(Diagnostic(
            severity=INFO,
            stage="encode",
            check="eij.transitivity-clean",
            message=(
                f"{len(edges)} comparison edge(s) and {triangles} "
                "triangle(s) audited"
            ),
        ))
    return diagnostics
