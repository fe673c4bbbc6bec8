"""A reference validity checker for memory-free EUFM formulas.

Decides satisfiability/validity by case splitting over the formula's atoms
with congruence-closure theory propagation (:mod:`.congruence`).  It is an
independent implementation path from the Positive-Equality encoding and is
used as an oracle in tests.

The split order resolves the guards of term-level ITEs first, so that
equations and predicate applications are only asserted over ITE-free terms
(where congruence closure is complete).  Exponential in the worst case;
intended for small formulas and for structured obligations where
simplification prunes aggressively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import BudgetExhausted, SolverError
from ..eufm import builder
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from ..eufm.ast import (
    FALSE,
    TRUE,
    BoolVar,
    Eq,
    Expr,
    Formula,
    Read,
    TermITE,
    UFApp,
    UPApp,
    Write,
)
from ..eufm.traversal import iter_dag, rebuild
from .congruence import Env

__all__ = ["DecisionBudget", "BudgetExceeded", "is_satisfiable", "is_valid"]


class BudgetExceeded(BudgetExhausted):
    """The split budget was exhausted before a decision was reached."""


@dataclass
class DecisionBudget:
    """Mutable budget shared across a decision run."""

    max_splits: int = 200_000
    splits: int = 0

    def charge(self) -> None:
        self.splits += 1
        if self.splits > self.max_splits:
            raise BudgetExceeded(
                f"exceeded {self.max_splits} case splits",
                budget_kind="splits",
            )


def is_valid(phi: Formula, budget: Optional[DecisionBudget] = None) -> bool:
    """True when ``phi`` holds under every interpretation."""
    return not is_satisfiable(builder.not_(phi), budget)


def is_satisfiable(phi: Formula, budget: Optional[DecisionBudget] = None) -> bool:
    """True when some interpretation makes ``phi`` true."""
    for node in iter_dag(phi):
        if isinstance(node, (Read, Write)):
            raise TypeError(
                "the reference decision procedure handles memory-free "
                "formulas; run memory elimination first"
            )
    universe = [node for node in iter_dag(phi) if isinstance(node, UFApp)]
    env = Env(universe)
    budget = budget or DecisionBudget()
    return _search(phi, env, budget)


def _search(phi: Formula, env: Env, budget: DecisionBudget) -> bool:
    phi = _simplify(phi, env)
    if phi is TRUE:
        return True
    if phi is FALSE:
        return False
    atom = _pick_atom(phi)
    if atom is None:
        raise SolverError(
            "non-constant formula without a splittable atom: "
            "this indicates a simplification gap"
        )
    budget.charge()
    # Cooperative supervision: the splitter is exponential in the worst
    # case, so honor the ambient pipeline deadline and surface the work
    # on the trace (tick() rate-limits the actual clock reads).
    current_deadline().tick("decision")
    current_tracer().add("decision.splits", 1)
    for value in (True, False):
        extended = env.assume(atom, value)
        if extended is not None and _search(phi, extended, budget):
            return True
    return False


def _simplify(phi: Formula, env: Env) -> Formula:
    """Rebuild ``phi`` bottom-up, folding atoms decided by ``env``."""

    def fold(node: Expr, rebuilt: Dict[Expr, Expr]) -> Optional[Expr]:
        if isinstance(node, Eq):
            atom = builder.eq(rebuilt[node.lhs], rebuilt[node.rhs])
        elif isinstance(node, UPApp):
            atom = builder.up(node.symbol, [rebuilt[a] for a in node.args])
        elif isinstance(node, BoolVar):
            atom = node
        else:
            return None
        if isinstance(atom, (Eq, BoolVar, UPApp)):
            value = env.query(atom)
            if value is not None:
                return TRUE if value else FALSE
        return atom

    result = rebuild(phi, fold)
    if not isinstance(result, Formula):
        raise TypeError("simplification changed the sort of the root")
    return result


def _pick_atom(phi: Formula) -> Optional[Formula]:
    """An undetermined atom whose terms contain no ITEs.

    Splitting only on ITE-free atoms keeps the congruence closure exact;
    inner ITE guards always provide such an atom (see module docstring).
    """
    has_ite: Dict[Expr, bool] = {}
    candidates: List[Formula] = []
    for node in iter_dag(phi):
        children_have = any(has_ite.get(child, False) for child in node.children)
        has_ite[node] = isinstance(node, TermITE) or children_have
        if isinstance(node, BoolVar):
            candidates.append(node)
        elif isinstance(node, (Eq, UPApp)) and not has_ite[node]:
            candidates.append(node)
    if not candidates:
        return None
    # Deterministic choice: the atom with the smallest uid tends to be a
    # leaf-level guard, which folds ITEs early.
    return min(candidates, key=lambda atom: atom.uid)

