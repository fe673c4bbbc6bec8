"""Independent re-derivation and cross-check of the p/g classification.

The ``e_ij`` encoding is only sound if the Positive-Equality
classification of :func:`repro.eufm.polarity.classify` is *conservative*:
every equation whose truth the adversary can constrain negatively must be
general, and every variable whose value can flow into such an equation
must be a g-variable — otherwise maximal diversity (encoding ``x = y`` as
``FALSE``) changes the validity of the formula.

:func:`derive_polarity` re-derives the classification from the BGV paper
definition with a deliberately different algorithm from
``eufm/polarity.py`` — chaotic iteration to a global fixpoint over the
node list instead of the production worklist-plus-staged-closure — so a
bug in one implementation is unlikely to hide in the other.
:func:`cross_check_polarity` compares the two and reports disagreements:

* a variable/symbol/equation that the *independent* derivation finds
  general but ``classify()`` treated as positive is **unsound** (a
  p-variable reaches a general equation, or a BOTH-polarity equation was
  treated as positive) — error;
* the converse (production more general than necessary) is sound but
  loses maximal diversity — warning.

:func:`audit_diversity` additionally checks every maximal-diversity
``FALSE`` decision of the ``e_ij`` encoder against the independent
classification, and flags encodes over variables never seen by
``classify()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..encode.eij import EijResult
from ..eufm.ast import Eq, Expr, Formula, Read, TermITE, TermVar, UFApp, Write
from ..eufm.polarity import BOTH, NEG, POS, PolarityInfo
from ..eufm.traversal import iter_dag
from .diagnostics import ERROR, INFO, WARNING, Diagnostic

__all__ = [
    "IndependentClassification",
    "derive_polarity",
    "cross_check_polarity",
    "audit_diversity",
]


@dataclass
class IndependentClassification:
    """The analyzer's own p/g classification of a formula."""

    equation_masks: Dict[Eq, int] = field(default_factory=dict)
    general_equations: Set[Eq] = field(default_factory=set)
    g_terms: Set[Expr] = field(default_factory=set)
    g_vars: Set[TermVar] = field(default_factory=set)
    g_symbols: Set[str] = field(default_factory=set)


def _edge_masks(node: Expr, mask: int):
    """(child, polarity mask contributed by this parent edge) pairs."""
    kind = node.kind
    if kind == "not":
        flipped = (POS if mask & NEG else 0) | (NEG if mask & POS else 0)
        yield node.arg, flipped
    elif kind in ("and", "or"):
        for arg in node.args:
            yield arg, mask
    elif kind == "fite":
        yield node.cond, BOTH
        yield node.then, mask
        yield node.els, mask
    elif kind == "tite":
        yield node.cond, BOTH


def derive_polarity(phi: Formula) -> IndependentClassification:
    """Re-derive the BGV classification by chaotic iteration to a fixpoint.

    Requires a memory-free formula, like the production classifier.
    """
    nodes = list(iter_dag(phi))
    for node in nodes:
        if isinstance(node, (Read, Write)):
            raise TypeError(
                "the polarity cross-check requires a memory-free formula"
            )

    masks: Dict[Expr, int] = {phi: POS}
    # Every term-ITE guard is a control position regardless of how the ITE
    # itself is reached (both branch values matter to the adversary).
    for node in nodes:
        if isinstance(node, TermITE):
            masks[node.cond] = masks.get(node.cond, 0) | BOTH

    changed = True
    while changed:
        changed = False
        for node in nodes:
            mask = masks.get(node, 0)
            if not mask:
                continue
            for child, child_mask in _edge_masks(node, mask):
                merged = masks.get(child, 0) | child_mask
                if merged != masks.get(child, 0):
                    masks[child] = merged
                    changed = True

    result = IndependentClassification()
    for node in nodes:
        if isinstance(node, Eq):
            mask = masks.get(node, 0)
            result.equation_masks[node] = mask
            if mask & NEG:
                result.general_equations.add(node)

    # Single combined closure of the g-term set: sides of general
    # equations seed it, term-ITE branches and same-symbol applications
    # extend it, iterated together until nothing moves.
    g_terms: Set[Expr] = set()
    for equation in result.general_equations:
        g_terms.add(equation.lhs)
        g_terms.add(equation.rhs)
    changed = True
    while changed:
        changed = False
        g_symbols = {n.symbol for n in g_terms if isinstance(n, UFApp)}
        for node in nodes:
            if node in g_terms:
                if isinstance(node, TermITE):
                    for branch in (node.then, node.els):
                        if branch not in g_terms:
                            g_terms.add(branch)
                            changed = True
            elif isinstance(node, UFApp) and node.symbol in g_symbols:
                g_terms.add(node)
                changed = True

    result.g_terms = g_terms
    result.g_vars = {n for n in g_terms if isinstance(n, TermVar)}
    result.g_symbols = {n.symbol for n in g_terms if isinstance(n, UFApp)}
    return result


def _name(node: Expr) -> str:
    return getattr(node, "name", None) or repr(node)


def cross_check_polarity(
    phi: Formula, info: PolarityInfo
) -> List[Diagnostic]:
    """Compare ``classify(phi)`` (``info``) against the re-derivation."""
    independent = derive_polarity(phi)
    diagnostics: List[Diagnostic] = []

    for equation, mask in independent.equation_masks.items():
        if mask & NEG and equation not in info.general_equations:
            kind = "BOTH-polarity" if mask == BOTH else "negative-polarity"
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="polarity",
                check="polarity.general-equation-treated-as-positive",
                subject=repr(equation),
                message=(
                    f"{kind} equation is not in the general set; encoding "
                    "it positively is unsound"
                ),
                data={"mask": mask},
            ))
    for equation in info.general_equations:
        if equation not in independent.general_equations:
            diagnostics.append(Diagnostic(
                severity=WARNING,
                stage="polarity",
                check="polarity.equation-generalized-unnecessarily",
                subject=repr(equation),
                message=(
                    "equation occurs only positively but was classified "
                    "general (sound, loses maximal diversity)"
                ),
            ))

    for var in sorted(independent.g_vars - info.g_vars, key=_name):
        diagnostics.append(Diagnostic(
            severity=ERROR,
            stage="polarity",
            check="polarity.p-var-in-general-position",
            subject=_name(var),
            message=(
                "variable reaches a general equation but was classified as "
                "a p-variable; maximal diversity over it is unsound"
            ),
        ))
    for var in sorted(info.g_vars - independent.g_vars, key=_name):
        diagnostics.append(Diagnostic(
            severity=WARNING,
            stage="polarity",
            check="polarity.var-generalized-unnecessarily",
            subject=_name(var),
            message=(
                "variable never reaches a general equation but was "
                "classified general (sound, costs an e_ij variable)"
            ),
        ))

    for symbol in sorted(independent.g_symbols - info.g_symbols):
        diagnostics.append(Diagnostic(
            severity=ERROR,
            stage="polarity",
            check="polarity.p-symbol-in-general-position",
            subject=symbol,
            message=(
                "an application of this UF reaches a general equation but "
                "the symbol was classified positive"
            ),
        ))
    for symbol in sorted(info.g_symbols - independent.g_symbols):
        diagnostics.append(Diagnostic(
            severity=WARNING,
            stage="polarity",
            check="polarity.symbol-generalized-unnecessarily",
            subject=symbol,
            message="UF symbol classified general without a general use",
        ))
    return diagnostics


def audit_diversity(
    eij: EijResult,
    info: PolarityInfo,
    independent_g_vars: Optional[Set[TermVar]] = None,
    known_vars: Optional[Set[TermVar]] = None,
    encoding_g_vars: Optional[Set[TermVar]] = None,
) -> List[Diagnostic]:
    """Audit the encoder's maximal-diversity and ``e_ij`` decisions.

    ``independent_g_vars`` is the analyzer's own general set over the
    encoded variables: the g-variables of the *pre-UF-elimination*
    formula under :func:`derive_polarity`, plus the fresh variables whose
    UF symbol is independently general (the BGV justification for
    maximal diversity lives at that level — the argument-match guards
    introduced by nested-ITE elimination do not count against it).
    ``known_vars`` is the set of term variables visible to the polarity
    classification (formula variables plus the fresh variables UF
    elimination introduced); ``encoding_g_vars`` is the general set the
    encoder was actually given.  Every pair decided ``FALSE`` must
    contain a variable that is positive under the independent
    classification too, and no encoded variable may be unknown to the
    classifier.
    """
    diagnostics: List[Diagnostic] = []
    g_for_encoding = encoding_g_vars if encoding_g_vars is not None \
        else info.g_vars

    def check_known(var: TermVar, role: str) -> None:
        if known_vars is not None and var not in known_vars:
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="encode",
                check="eij.variable-unknown-to-classifier",
                subject=var.name,
                message=(
                    f"{role} involves a variable never seen by the "
                    "polarity classification"
                ),
            ))

    for pair in sorted(eij.diverse_pairs,
                       key=lambda p: sorted(v.name for v in p)):
        names = sorted(var.name for var in pair)
        for var in pair:
            check_known(var, "a maximal-diversity decision")
        if independent_g_vars is not None and all(
            var in independent_g_vars for var in pair
        ):
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="encode",
                check="eij.diversity-not-justified",
                subject="=".join(names),
                message=(
                    "equality was encoded FALSE by maximal diversity but "
                    "both variables are general under the independent "
                    "classification"
                ),
            ))
        elif all(var in g_for_encoding for var in pair):
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="encode",
                check="eij.diversity-over-g-pair",
                subject="=".join(names),
                message=(
                    "equality between two g-variables was decided FALSE "
                    "instead of getting an e_ij variable"
                ),
            ))

    for pair in eij.eij_vars:
        for var in pair:
            check_known(var, "an e_ij variable")
            if var not in g_for_encoding:
                diagnostics.append(Diagnostic(
                    severity=WARNING,
                    stage="encode",
                    check="eij.eij-over-p-var",
                    subject=var.name,
                    message=(
                        "an e_ij variable ranges over a p-variable; the "
                        "encoding is sound but gives up diversity"
                    ),
                ))
    if not diagnostics:
        diagnostics.append(Diagnostic(
            severity=INFO,
            stage="encode",
            check="eij.audit-clean",
            message=(
                f"{len(eij.eij_vars)} e_ij variable(s) and "
                f"{len(eij.diverse_pairs)} diversity decision(s) audited"
            ),
        ))
    return diagnostics
