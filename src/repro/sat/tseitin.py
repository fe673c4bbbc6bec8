"""Tseitin translation of propositional EUFM formulas to CNF.

The input must be purely propositional: Boolean variables, negation,
conjunction, disjunction, formula-ITE and constants.  Equations, UPs and
terms must have been eliminated by the :mod:`repro.encode` pipeline first.

Two encodings are provided:

* **full** Tseitin — each connective gets a definition variable with
  clauses in both directions; equisatisfiable and model-preserving.
* **Plaisted–Greenbaum** (``polarity_aware=True``) — definition clauses
  are emitted only in the direction(s) each gate's polarity requires,
  roughly halving the clause count; equisatisfiable (the standard
  optimization in EVC-era tool flows).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..eufm.ast import (
    FALSE,
    TRUE,
    And,
    BoolConst,
    BoolVar,
    Expr,
    Formula,
    FormulaITE,
    Not,
    Or,
)
from ..eufm.traversal import iter_dag
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .cnf import Cnf

__all__ = ["TseitinResult", "tseitin", "cnf_for_satisfiability"]


class TseitinResult:
    """Outcome of a Tseitin translation.

    Attributes:
        cnf: the clause database (definition clauses only; no root unit).
        root_literal: literal equivalent to the input formula, or ``None``
            when the input collapsed to a constant.
        constant: the constant value when the input is ``TRUE``/``FALSE``.
        var_map: EUFM Boolean variable -> CNF variable index.
    """

    def __init__(
        self,
        cnf: Cnf,
        root_literal,
        constant,
        var_map: Dict[BoolVar, int],
    ) -> None:
        self.cnf = cnf
        self.root_literal = root_literal
        self.constant = constant
        self.var_map = var_map


_POS = 1
_NEG = 2
_BOTH = _POS | _NEG


def _gate_polarities(phi: Formula) -> Dict[Expr, int]:
    """Polarity masks of every formula node with respect to the root."""
    deadline = current_deadline()
    polarity: Dict[Expr, int] = {phi: _POS}
    worklist = [phi]
    while worklist:
        deadline.tick("encode.tseitin")
        node = worklist.pop()
        mask = polarity[node]
        children: Tuple[Tuple[Formula, int], ...]
        if isinstance(node, Not):
            flipped = ((mask & _POS) and _NEG) | ((mask & _NEG) and _POS)
            children = ((node.arg, flipped),)
        elif isinstance(node, (And, Or)):
            children = tuple((arg, mask) for arg in node.args)
        elif isinstance(node, FormulaITE):
            children = (
                (node.cond, _BOTH),
                (node.then, mask),
                (node.els, mask),
            )
        else:
            children = ()
        for child, child_mask in children:
            old = polarity.get(child, 0)
            new = old | child_mask
            if new != old:
                polarity[child] = new
                worklist.append(child)
    return polarity


def tseitin(phi: Formula, polarity_aware: bool = False) -> TseitinResult:
    """Translate ``phi`` into CNF definition clauses plus a root literal."""
    if phi is TRUE or phi is FALSE:
        return TseitinResult(Cnf(), None, phi is TRUE, {})

    cnf = Cnf()
    var_map: Dict[BoolVar, int] = {}
    literal: Dict[Expr, int] = {}
    deadline = current_deadline()
    deadline.check("encode.tseitin")
    polarity = _gate_polarities(phi) if polarity_aware else None

    def directions(node) -> Tuple[bool, bool]:
        if polarity is None:
            return True, True
        mask = polarity.get(node, _BOTH)
        return bool(mask & _POS), bool(mask & _NEG)

    for node in iter_dag(phi):
        deadline.tick("encode.tseitin")
        if isinstance(node, BoolConst):
            raise ValueError(
                "Boolean constants below the root should have been simplified away"
            )
        if isinstance(node, BoolVar):
            index = cnf.new_var(node.name)
            var_map[node] = index
            literal[node] = index
        elif isinstance(node, Not):
            literal[node] = -literal[node.arg]
        elif isinstance(node, And):
            forward, backward = directions(node)
            literal[node] = _define_and(
                cnf, [literal[a] for a in node.args], forward, backward
            )
        elif isinstance(node, Or):
            # g = OR(args) encoded as -g = AND(-args); the directions swap
            # because the gate literal is negated.
            forward, backward = directions(node)
            literal[node] = -_define_and(
                cnf, [-literal[a] for a in node.args], backward, forward
            )
        elif isinstance(node, FormulaITE):
            forward, backward = directions(node)
            literal[node] = _define_ite(
                cnf,
                literal[node.cond],
                literal[node.then],
                literal[node.els],
                forward,
                backward,
            )
        else:
            raise TypeError(
                f"non-propositional node {node.kind!r} reached the Tseitin "
                "translation; run the encoding pipeline first"
            )
    return TseitinResult(cnf, literal[phi], None, var_map)


def _define_and(cnf: Cnf, literals, forward: bool, backward: bool) -> int:
    """Fresh ``g`` with clauses for ``g -> AND`` and/or ``AND -> g``."""
    gate = cnf.new_var()
    if forward:
        for lit in literals:
            cnf.add_clause([-gate, lit])
    if backward:
        cnf.add_clause([gate] + [-lit for lit in literals])
    return gate


def _define_ite(
    cnf: Cnf, cond: int, then: int, els: int, forward: bool, backward: bool
) -> int:
    """Fresh ``g`` with directional clauses for ``g <-> (cond ? then : els)``."""
    gate = cnf.new_var()
    if forward:
        cnf.add_clause([-gate, -cond, then])
        cnf.add_clause([-gate, cond, els])
        cnf.add_clause([-gate, then, els])  # propagation-strengthening
    if backward:
        cnf.add_clause([gate, -cond, -then])
        cnf.add_clause([gate, cond, -els])
        cnf.add_clause([gate, -then, -els])  # propagation-strengthening
    return gate


def cnf_for_satisfiability(
    phi: Formula, polarity_aware: bool = False
) -> TseitinResult:
    """CNF whose satisfiability coincides with that of ``phi``.

    When ``phi`` is constant, ``cnf`` is empty (constant ``True``) or holds
    the empty clause (constant ``False``); otherwise the root literal is
    asserted as a unit clause.
    """
    result = tseitin(phi, polarity_aware=polarity_aware)
    if result.root_literal is None:
        if not result.constant:
            result.cnf.clauses.append(())
    else:
        result.cnf.add_clause([result.root_literal])
        # The solver should never see the same clause twice (shared gate
        # structure can reproduce a definition clause verbatim).
        result.cnf.dedupe()
    current_tracer().add(
        "tseitin.gate_vars", result.cnf.num_vars - len(result.var_map)
    )
    return result
