"""The ``e_ij`` propositional encoding of term equality (Goel et al.,
CAV'98) with the Positive-Equality refinement (Bryant, German & Velev).

Input: a memory-free, UF-free formula — terms are variables and ITEs only.
Every equation is pushed down to comparisons between term variables:

* ``x = x``                       encodes to ``TRUE``;
* ``x = y`` with ``x`` or ``y`` a **p-variable** encodes to ``FALSE``
  (maximal diversity: p-terms behave as distinct constants);
* ``x = y`` with both **g-variables** encodes to a fresh Boolean ``e_ij``
  variable (symmetric: one variable per unordered pair).

The output is purely propositional.  Completeness additionally requires the
transitivity constraints of :mod:`repro.encode.transitivity` over the
``e_ij`` variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import EncodingError
from ..eufm import builder
from ..eufm.ast import (
    FALSE,
    TRUE,
    BoolVar,
    Eq,
    Expr,
    Formula,
    Read,
    Term,
    TermITE,
    TermVar,
    UFApp,
    UPApp,
    Write,
)
from ..eufm.traversal import rebuild
from ..guard.deadline import current_deadline

__all__ = ["EijResult", "encode_equalities"]


@dataclass
class EijResult:
    """Outcome of the equality encoding."""

    formula: Formula
    #: unordered g-variable pair -> the e_ij Boolean variable encoding it.
    eij_vars: Dict[FrozenSet[TermVar], BoolVar] = field(default_factory=dict)
    #: comparisons that were decided FALSE by maximal diversity.
    diverse_pairs: Set[FrozenSet[TermVar]] = field(default_factory=set)

    @property
    def num_eij(self) -> int:
        return len(self.eij_vars)


def encode_equalities(
    phi: Formula,
    g_vars: Set[TermVar],
    known_vars: Optional[Set[TermVar]] = None,
) -> EijResult:
    """Encode every equation in ``phi`` propositionally.

    ``g_vars`` is the set of general term variables (original g-variables
    from the polarity classification plus the general fresh variables from
    UF elimination); every other term variable is treated as a p-variable
    under maximal diversity.

    ``known_vars``, when given, is the set of term variables the polarity
    classification actually saw.  Encoding an equality over a variable
    outside it raises :class:`~repro.errors.EncodingError`: such a
    variable was silently defaulted to a p-variable without the
    classification ever justifying maximal diversity over it.
    """
    result = EijResult(formula=phi)
    deadline = current_deadline()
    deadline.check("encode.eij")
    # Cache of pairwise term-equality formulas, keyed on unordered pairs.
    pair_cache: Dict[Tuple[Term, Term], Formula] = {}

    def var_equality(a: TermVar, b: TermVar) -> Formula:
        if a is b:
            return TRUE
        if known_vars is not None:
            for var in (a, b):
                if var not in known_vars:
                    raise EncodingError(
                        f"equality over variable {var.name!r} which the "
                        "polarity classification never saw; its implicit "
                        "p-variable default is unjustified"
                    )
        key = frozenset((a, b))
        if a not in g_vars or b not in g_vars:
            result.diverse_pairs.add(key)
            return FALSE
        if key not in result.eij_vars:
            low, high = sorted((a.name, b.name))
            result.eij_vars[key] = builder.bvar(f"eij!{low}!{high}")
        return result.eij_vars[key]

    def term_equality(t1: Term, t2: Term) -> Formula:
        """Push the equality of two ITE/variable terms down to the leaves.

        Iterative with an explicit stack; memoized on unordered pairs.
        """
        root_key = _pair_key(t1, t2)
        stack: List[Tuple[Term, Term]] = [root_key]
        while stack:
            deadline.tick("encode.eij")
            a, b = stack[-1]
            key = (a, b)
            if key in pair_cache:
                stack.pop()
                continue
            if a is b:
                pair_cache[key] = TRUE
                stack.pop()
                continue
            if isinstance(a, TermITE):
                left = _pair_key(a.then, b)
                right = _pair_key(a.els, b)
                missing = [k for k in (left, right) if k not in pair_cache]
                if missing:
                    stack.extend(missing)
                    continue
                pair_cache[key] = builder.ite_formula(
                    a.cond, pair_cache[left], pair_cache[right]
                )
                stack.pop()
                continue
            if isinstance(b, TermITE):
                left = _pair_key(a, b.then)
                right = _pair_key(a, b.els)
                missing = [k for k in (left, right) if k not in pair_cache]
                if missing:
                    stack.extend(missing)
                    continue
                pair_cache[key] = builder.ite_formula(
                    b.cond, pair_cache[left], pair_cache[right]
                )
                stack.pop()
                continue
            if isinstance(a, TermVar) and isinstance(b, TermVar):
                pair_cache[key] = var_equality(a, b)
                stack.pop()
                continue
            raise TypeError(
                f"equality over unsupported terms {a!r} / {b!r}; "
                "eliminate UFs and memories first"
            )
        return pair_cache[root_key]

    def encode(node: Expr, rebuilt: Dict[Expr, Expr]) -> Optional[Expr]:
        deadline.tick("encode.eij")
        if isinstance(node, (UFApp, UPApp, Read, Write)):
            raise TypeError(
                f"{node.kind!r} node reached the e_ij encoding; run the "
                "earlier pipeline stages first"
            )
        if isinstance(node, Eq):
            return term_equality(rebuilt[node.lhs], rebuilt[node.rhs])
        return None

    encoded = rebuild(phi, encode)
    if not isinstance(encoded, Formula):
        raise TypeError("input to encode_equalities must be a formula")
    result.formula = encoded
    return result


def _pair_key(a: Term, b: Term) -> Tuple[Term, Term]:
    """Unordered pair normal form (by interning uid)."""
    if b.uid < a.uid:
        return (b, a)
    return (a, b)
