"""Congruence-closure environments for the reference decision procedure.

An :class:`Env` tracks an assumption set: Boolean atom assignments,
asserted equalities (as a union-find with congruence closure over the
uninterpreted-function applications in a fixed term universe) and asserted
disequalities.  Environments are persistent in usage: ``assume`` returns a
new environment (copy-on-write of the small dictionaries), so the
case-splitting search can backtrack by simply dropping references.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..eufm.ast import BoolVar, Eq, Expr, Formula, Term, UFApp, UPApp
from ..guard.deadline import current_deadline

__all__ = ["Env", "Inconsistent"]


class Inconsistent(Exception):
    """An assumption contradicts the current environment."""


class Env:
    """An assumption environment with congruence closure.

    ``universe`` is the set of UF application terms over which congruence
    must be maintained; it is fixed at construction (collected from the
    formula under analysis).
    """

    def __init__(self, universe: Optional[List[UFApp]] = None) -> None:
        self._parent: Dict[Term, Term] = {}
        self._diseqs: Set[FrozenSet[Term]] = set()
        self._bools: Dict[Expr, bool] = {}
        self._up_entries: List[Tuple[str, Tuple[Term, ...], bool]] = []
        self._universe: List[UFApp] = list(universe or [])

    def copy(self) -> "Env":
        clone = Env.__new__(Env)
        clone._parent = dict(self._parent)
        clone._diseqs = set(self._diseqs)
        clone._bools = dict(self._bools)
        clone._up_entries = list(self._up_entries)
        clone._universe = self._universe  # immutable by convention
        return clone

    # ------------------------------------------------------------------
    # Union-find with congruence
    # ------------------------------------------------------------------

    def find(self, term: Term) -> Term:
        root = term
        while root in self._parent:
            root = self._parent[root]
        while term in self._parent:
            next_term = self._parent[term]
            if next_term is not root:
                self._parent[term] = root
            term = next_term
        return root

    def congruent(self, lhs: Term, rhs: Term) -> bool:
        return self.find(lhs) is self.find(rhs)

    def known_distinct(self, lhs: Term, rhs: Term) -> bool:
        pair = frozenset((self.find(lhs), self.find(rhs)))
        if len(pair) == 1:
            return False
        return pair in self._diseqs

    def _merge(self, lhs: Term, rhs: Term) -> None:
        root_l, root_r = self.find(lhs), self.find(rhs)
        if root_l is root_r:
            return
        if frozenset((root_l, root_r)) in self._diseqs:
            raise Inconsistent(f"{lhs!r} = {rhs!r} contradicts a disequality")
        # Union by uid for determinism.
        if root_r.uid < root_l.uid:
            root_l, root_r = root_r, root_l
        self._parent[root_r] = root_l
        self._diseqs = {
            frozenset(self.find(t) for t in pair) for pair in self._diseqs
        }
        if any(len(pair) == 1 for pair in self._diseqs):
            raise Inconsistent("merge collapsed a disequality")
        self._propagate_congruence()
        self._check_up_consistency()

    def _propagate_congruence(self) -> None:
        """Merge UF applications with pairwise-congruent arguments."""
        deadline = current_deadline()
        changed = True
        while changed:
            deadline.tick("decision")
            changed = False
            signatures: Dict[Tuple, Term] = {}
            for app in self._universe:
                signature = (
                    app.symbol,
                    tuple(self.find(arg) for arg in app.args),
                )
                other = signatures.get(signature)
                if other is None:
                    signatures[signature] = app
                elif self.find(other) is not self.find(app):
                    root_a, root_b = self.find(other), self.find(app)
                    if frozenset((root_a, root_b)) in self._diseqs:
                        raise Inconsistent("congruence contradicts disequality")
                    if root_b.uid < root_a.uid:
                        root_a, root_b = root_b, root_a
                    self._parent[root_b] = root_a
                    self._diseqs = {
                        frozenset(self.find(t) for t in pair)
                        for pair in self._diseqs
                    }
                    if any(len(pair) == 1 for pair in self._diseqs):
                        raise Inconsistent("congruence collapsed a disequality")
                    changed = True

    def _check_up_consistency(self) -> None:
        for i, (sym_a, args_a, val_a) in enumerate(self._up_entries):
            for sym_b, args_b, val_b in self._up_entries[i + 1 :]:
                if sym_a != sym_b or val_a == val_b:
                    continue
                if len(args_a) == len(args_b) and all(
                    self.congruent(x, y) for x, y in zip(args_a, args_b)
                ):
                    raise Inconsistent(
                        f"predicate {sym_a} inconsistent on congruent arguments"
                    )

    # ------------------------------------------------------------------
    # Assumptions and queries
    # ------------------------------------------------------------------

    def _extend_universe(self, atom: Formula) -> None:
        """Add every UF application inside ``atom`` to the congruence universe.

        Simplification can synthesize new applications (e.g. ``f(x)`` from
        ``f(ITE(p, x, y))`` once ``p`` is decided); congruence must cover
        them from the moment they are mentioned in an assumption.
        """
        from ..eufm.traversal import iter_dag

        known = set(self._universe)
        new_apps = [
            node
            for node in iter_dag(atom)
            if isinstance(node, UFApp) and node not in known
        ]
        if new_apps:
            self._universe = self._universe + new_apps
            self._propagate_congruence()

    def assume(self, atom: Formula, value: bool) -> Optional["Env"]:
        """Return a new environment with ``atom := value``; None on conflict."""
        clone = self.copy()
        try:
            clone._extend_universe(atom)
            if isinstance(atom, Eq):
                if value:
                    clone._merge(atom.lhs, atom.rhs)
                else:
                    if clone.congruent(atom.lhs, atom.rhs):
                        raise Inconsistent("disequality on congruent terms")
                    clone._diseqs.add(
                        frozenset((clone.find(atom.lhs), clone.find(atom.rhs)))
                    )
            elif isinstance(atom, BoolVar):
                existing = clone._bools.get(atom)
                if existing is not None and existing != value:
                    raise Inconsistent(f"{atom.name} assigned both ways")
                clone._bools[atom] = value
            elif isinstance(atom, UPApp):
                known = clone.query(atom)
                if known is not None and known != value:
                    raise Inconsistent(f"{atom.symbol} inconsistent assumption")
                clone._up_entries.append((atom.symbol, atom.args, value))
            else:
                raise TypeError(f"cannot assume on node kind {atom.kind!r}")
        except Inconsistent:
            return None
        return clone

    def query(self, atom: Formula) -> Optional[bool]:
        """Truth value of ``atom`` in this environment, if determined."""
        if isinstance(atom, Eq):
            if self.congruent(atom.lhs, atom.rhs):
                return True
            if self.known_distinct(atom.lhs, atom.rhs):
                return False
            return None
        if isinstance(atom, BoolVar):
            return self._bools.get(atom)
        if isinstance(atom, UPApp):
            for symbol, args, value in self._up_entries:
                if (
                    symbol == atom.symbol
                    and len(args) == len(atom.args)
                    and all(self.congruent(x, y) for x, y in zip(args, atom.args))
                ):
                    return value
            return None
        raise TypeError(f"cannot query node kind {atom.kind!r}")
