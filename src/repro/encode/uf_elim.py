"""Elimination of uninterpreted functions and predicates via nested ITEs.

The scheme of Bryant, German & Velev (TOCL 2001): the first application of a
function ``f`` is replaced by a fresh term variable ``vc_f_1``; the ``i``-th
application (in a fixed topological order) becomes

    ITE(args_i = args_1, vc_f_1,
        ITE(args_i = args_2, vc_f_2, ... vc_f_i))

which enforces exactly functional consistency.  Predicates are eliminated
the same way with fresh Boolean variables.

Fresh term variables inherit the p/g classification of the function symbol
they replace (computed by :func:`repro.eufm.polarity.classify` *before*
elimination); the registry returned here feeds the ``e_ij`` leaf encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..eufm import builder
from ..eufm.ast import (
    BoolVar,
    Expr,
    Formula,
    Read,
    Term,
    TermVar,
    UFApp,
    UPApp,
    Write,
)
from ..eufm.polarity import PolarityInfo
from ..eufm.traversal import iter_dag, rebuild
from ..guard.deadline import current_deadline

__all__ = ["UFElimResult", "eliminate_uf"]


@dataclass
class UFElimResult:
    """Outcome of UF/UP elimination."""

    formula: Formula
    #: fresh term variables introduced, in introduction order.
    fresh_term_vars: List[TermVar] = field(default_factory=list)
    #: fresh Boolean variables introduced for predicate applications.
    fresh_bool_vars: List[BoolVar] = field(default_factory=list)
    #: fresh term variables that are general (their symbol was a g-symbol).
    fresh_g_vars: Set[TermVar] = field(default_factory=set)
    #: fresh variable -> (symbol, argument terms) provenance, for
    #: counterexample decoding.
    provenance: Dict[Expr, Tuple[str, Tuple[Term, ...]]] = field(
        default_factory=dict
    )


def eliminate_uf(
    phi: Formula, polarity_info: Optional[PolarityInfo] = None
) -> UFElimResult:
    """Replace every UF/UP application in ``phi`` with nested ITEs.

    ``polarity_info`` (from :func:`repro.eufm.polarity.classify` on ``phi``)
    determines which fresh term variables are classified general.  When
    omitted, every fresh variable is conservatively treated as general.
    """
    deadline = current_deadline()
    deadline.check("encode.uf_elim")
    for node in iter_dag(phi):
        if isinstance(node, (Read, Write)):
            raise TypeError("eliminate memories before eliminating UFs")

    result = UFElimResult(formula=phi)
    # Per symbol: list of (replaced argument tuples, fresh variable).
    uf_history: Dict[str, List[Tuple[Tuple[Term, ...], Term]]] = {}
    up_history: Dict[str, List[Tuple[Tuple[Term, ...], Formula]]] = {}

    def eliminate(node: Expr, rebuilt: Dict[Expr, Expr]) -> Optional[Expr]:
        deadline.tick("encode.uf_elim")
        if isinstance(node, UFApp):
            args = tuple(rebuilt[a] for a in node.args)
            return _eliminate_app(
                node.symbol, args, uf_history, result, polarity_info
            )
        if isinstance(node, UPApp):
            args = tuple(rebuilt[a] for a in node.args)
            return _eliminate_pred(node.symbol, args, up_history, result)
        return None

    result.formula = rebuild(phi, eliminate)
    return result


def _args_match(args_a: Tuple[Term, ...], args_b: Tuple[Term, ...]) -> Formula:
    return builder.and_(
        *[builder.eq(a, b) for a, b in zip(args_a, args_b)]
    )


def _eliminate_app(
    symbol: str,
    args: Tuple[Term, ...],
    history: Dict[str, List[Tuple[Tuple[Term, ...], Term]]],
    result: UFElimResult,
    polarity_info: Optional[PolarityInfo],
) -> Term:
    entries = history.setdefault(symbol, [])
    for seen_args, value in entries:
        if seen_args == args:
            return value
    fresh = builder.tvar(f"vc!{symbol}!{len(entries) + 1}")
    result.fresh_term_vars.append(fresh)
    result.provenance[fresh] = (symbol, args)
    if polarity_info is None or polarity_info.is_g_symbol(symbol):
        result.fresh_g_vars.add(fresh)
    replacement: Term = fresh
    # Nest newest-last: ITE(match_1, vc_1, ITE(match_2, vc_2, ... fresh)).
    for seen_args, value in reversed(entries):
        replacement = builder.ite_term(
            _args_match(args, seen_args), value, replacement
        )
    entries.append((args, fresh))
    return replacement


def _eliminate_pred(
    symbol: str,
    args: Tuple[Term, ...],
    history: Dict[str, List[Tuple[Tuple[Term, ...], Formula]]],
    result: UFElimResult,
) -> Formula:
    entries = history.setdefault(symbol, [])
    for seen_args, value in entries:
        if seen_args == args:
            return value
    fresh = builder.bvar(f"vp!{symbol}!{len(entries) + 1}")
    result.fresh_bool_vars.append(fresh)
    result.provenance[fresh] = (symbol, args)
    replacement: Formula = fresh
    for seen_args, value in reversed(entries):
        replacement = builder.ite_formula(
            _args_match(args, seen_args), value, replacement
        )
    entries.append((args, fresh))
    return replacement
