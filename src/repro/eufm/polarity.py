"""Positive-Equality polarity analysis (Bryant, German & Velev, TOCL 2001).

Given a formula ``phi`` whose *validity* is to be checked, an equation
occurrence is **positive** when it appears under an even number of negations
and not as (part of) the controlling formula of an ITE; otherwise it is
**general**.  Terms whose value can flow into a general equation are
*g-terms*; all others are *p-terms*.

The classification computed here drives the propositional encoding
(:mod:`repro.encode.eij`): equality between two distinct p-term variables is
encoded as ``FALSE`` (maximal diversity), while equality between g-term
variables is encoded with a fresh ``e_ij`` Boolean variable.

This analysis is meant to run *after* memory elimination, so the DAG
contains no ``read``/``write`` nodes; address comparisons introduced by
memory elimination sit in ITE guards and are classified general
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from .ast import Eq, Expr, Formula, Read, TermITE, TermVar, UFApp, Write
from .traversal import iter_dag
from ..guard.deadline import current_deadline

__all__ = ["PolarityInfo", "classify", "POS", "NEG", "BOTH"]

POS = 1
NEG = 2
BOTH = POS | NEG


@dataclass
class PolarityInfo:
    """Result of the positive-equality classification of a formula."""

    #: polarity mask (POS/NEG/BOTH) per formula node, w.r.t. validity.
    polarity: Dict[Expr, int]
    #: equations classified as general (compared under negative polarity
    #: or inside an ITE control).
    general_equations: Set[Eq]
    #: term variables classified as general.
    g_vars: Set[TermVar]
    #: UF symbols whose applications are general terms.
    g_symbols: Set[str]
    #: every term node reachable from a general position.
    g_terms: Set[Expr]

    def is_g_var(self, var: TermVar) -> bool:
        return var in self.g_vars

    def is_g_symbol(self, symbol: str) -> bool:
        return symbol in self.g_symbols

    def summary(self) -> Dict[str, int]:
        return {
            "general_equations": len(self.general_equations),
            "g_vars": len(self.g_vars),
            "g_symbols": len(self.g_symbols),
        }


def classify(phi: Formula) -> PolarityInfo:
    """Classify ``phi`` (checked for validity) for Positive Equality.

    Raises :class:`TypeError` if the DAG still contains memory operations;
    run memory elimination first.
    """
    nodes = list(iter_dag(phi))
    for node in nodes:
        if isinstance(node, (Read, Write)):
            raise TypeError(
                "polarity classification requires a memory-free formula; "
                "run memory elimination first"
            )

    polarity = _compute_polarity(phi)

    general_equations: Set[Eq] = set()
    for node, mask in polarity.items():
        if isinstance(node, Eq) and (mask & NEG):
            general_equations.add(node)

    g_terms = _propagate_general_terms(nodes, general_equations)

    g_vars = {node for node in g_terms if isinstance(node, TermVar)}
    g_symbols = {node.symbol for node in g_terms if isinstance(node, UFApp)}
    # Symbol classification must be consistent: once a symbol is general,
    # every application of it is a general term.
    deadline = current_deadline()
    changed = True
    while changed:
        deadline.tick("encode.polarity")
        changed = False
        for node in nodes:
            if (
                isinstance(node, UFApp)
                and node.symbol in g_symbols
                and node not in g_terms
            ):
                g_terms.add(node)
                changed = True
        extra = _propagate_down(nodes, g_terms)
        if extra:
            for term in extra:
                g_terms.add(term)
            new_vars = {t for t in extra if isinstance(t, TermVar)}
            new_syms = {t.symbol for t in extra if isinstance(t, UFApp)}
            if not new_vars <= g_vars or not new_syms <= g_symbols:
                changed = True
            g_vars |= new_vars
            g_symbols |= new_syms

    return PolarityInfo(
        polarity=polarity,
        general_equations=general_equations,
        g_vars=g_vars,
        g_symbols=g_symbols,
        g_terms=g_terms,
    )


def _compute_polarity(phi: Formula) -> Dict[Expr, int]:
    """Worklist propagation of polarity masks from the root down.

    Every term-ITE guard in the DAG is a control position, so it is seeded
    with BOTH polarity up front; the plain formula structure is then walked
    from the root.
    """
    polarity: Dict[Expr, int] = {phi: POS}
    worklist: List[Expr] = [phi]
    for node in iter_dag(phi):
        if isinstance(node, TermITE):
            old = polarity.get(node.cond, 0)
            polarity[node.cond] = old | BOTH
            worklist.append(node.cond)
    deadline = current_deadline()
    while worklist:
        deadline.tick("encode.polarity")
        node = worklist.pop()
        mask = polarity[node]
        for child, child_mask in _child_polarities(node, mask):
            old = polarity.get(child, 0)
            new = old | child_mask
            if new != old:
                polarity[child] = new
                if isinstance(child, Formula):
                    worklist.append(child)
    return polarity


def _child_polarities(node: Expr, mask: int):
    kind = node.kind
    if kind == "not":
        flipped = ((mask & POS) and NEG) | ((mask & NEG) and POS)
        yield node.arg, flipped
    elif kind in ("and", "or"):
        for arg in node.args:
            yield arg, mask
    elif kind == "fite":
        yield node.cond, BOTH
        yield node.then, mask
        yield node.els, mask
    elif kind == "tite":
        # Term ITE guards are control positions: both polarities.
        yield node.cond, BOTH
    elif kind == "eq":
        pass
    elif kind in ("up", "uf"):
        pass


def _propagate_general_terms(
    nodes: List[Expr], general_equations: Set[Eq]
) -> Set[Expr]:
    """Terms reachable (as values) from general equations or term-ITE guards.

    Term-ITE *guards* are formulas; equations inside them were already made
    general by the polarity pass (control positions get BOTH).  Here we seed
    with the sides of general equations and push downward through term ITEs.
    """
    g_terms: Set[Expr] = set()
    for equation in general_equations:
        g_terms.add(equation.lhs)
        g_terms.add(equation.rhs)
    for term in _propagate_down(nodes, g_terms):
        g_terms.add(term)
    return g_terms


def _propagate_down(nodes: List[Expr], g_terms: Set[Expr]) -> Set[Expr]:
    """Close ``g_terms`` downward through term-ITE branches."""
    deadline = current_deadline()
    added: Set[Expr] = set()
    changed = True
    while changed:
        deadline.tick("encode.polarity")
        changed = False
        for node in nodes:
            if isinstance(node, TermITE) and (node in g_terms or node in added):
                for branch in (node.then, node.els):
                    if branch not in g_terms and branch not in added:
                        added.add(branch)
                        changed = True
    return added
