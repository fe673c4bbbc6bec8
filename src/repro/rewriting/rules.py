"""The structural rewriting rules of Sect. 6.

All checks are *syntactic*, exploiting the regular structure of the
abstract out-of-order processor (all computation slices have identical
shape), exactly as the paper prescribes:

* :func:`conjuncts` / :func:`contexts_disjoint` — rule 1, reordering: an
  update moves over another when the two contexts are conjunctions sharing
  a literal in opposite polarity (the form guaranteed by in-order
  retirement).
* :func:`merge_contexts` — rule 2: the two updates of a retire-width
  instruction (``Valid_i AND retire_i`` / ``Valid_i AND NOT retire_i``)
  merge under context ``Valid_i``.
* :func:`split_on_guard` — views a formula as an ITE on a given guard,
  undoing the builder's connective normal forms.
* :func:`case_cone` — rule 3's case split: the nodes of an entry's data
  that a case can change, found without descending into a node that
  cannot reach a case variable or the seam.  Each case is one
  :func:`repro.eufm.traversal.substitute` walk that fixes the case's
  variables to constants, treats the preceding-state sub-DAGs as opaque
  stops and, given the cone's frontier as further stops, rebuilds the
  cone alone.
* :func:`prove_forwarding_matches_read` — rule 3, subcase 2.1: the
  synchronized walk of the forwarding chain and the availability chain
  against the updates of the specification-side write chain the operand
  is read from, taken from the prefix the engine decomposed once.
"""

from __future__ import annotations

import sys
from typing import Collection, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..errors import ReproError
from ..eufm import builder
from ..eufm.ast import (
    FALSE,
    TRUE,
    And,
    BoolVar,
    Eq,
    Expr,
    Formula,
    FormulaITE,
    Not,
    Or,
    Read,
    Term,
    TermITE,
)
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .updates import ChainItem, UpdateChain

__all__ = [
    "conjuncts",
    "contexts_disjoint",
    "merge_contexts",
    "split_on_guard",
    "case_cone",
    "is_write_guard",
    "prove_forwarding_matches_read",
    "RuleViolation",
]


class RuleViolation(ReproError):
    """A structural check failed; the message names the offending shape."""


def conjuncts(context: Formula) -> FrozenSet[Formula]:
    """The flattened conjunct set of a context formula."""
    if context is TRUE:
        return frozenset()
    if isinstance(context, And):
        return frozenset(context.args)
    return frozenset((context,))


def contexts_disjoint(ctx_a: Formula, ctx_b: Formula) -> bool:
    """Rule 1 side condition: the contexts cannot hold simultaneously.

    Detected structurally: the conjunction of the two flattened conjunct
    sets contains a complementary literal pair, where a negated conjunction
    ``NOT (x1 AND .. AND xn)`` also clashes with a set containing all of
    ``x1 .. xn`` (the in-order-retirement shape: ``NOT retire_i`` against a
    context that implies ``retire_i``).
    """
    set_a, set_b = conjuncts(ctx_a), conjuncts(ctx_b)
    if builder.and_(ctx_a, ctx_b) is FALSE:
        return True
    for one, other in ((set_a, set_b), (set_b, set_a)):
        for literal in one:
            if isinstance(literal, Not):
                body = literal.arg
                if body in other:
                    return True
                if isinstance(body, And) and set(body.args) <= other:
                    return True
    return False


def merge_contexts(
    ctx_first: Formula, ctx_second: Formula
) -> Optional[Tuple[Formula, Formula]]:
    """Rule 2: merge complementary sibling contexts.

    Expects ``ctx_first = C AND R`` and ``ctx_second = C AND NOT R`` (in
    flattened-set form, where ``R`` may stand for several conjuncts whose
    conjunction is negated in the second context).  Returns
    ``(merged_context, residual)`` — the merged context is ``C`` and the
    residual ``R`` selects between the two data expressions — or ``None``
    when the contexts do not have the complementary shape.
    """
    set_first, set_second = conjuncts(ctx_first), conjuncts(ctx_second)
    negated = [lit for lit in set_second if isinstance(lit, Not)]
    for literal in negated:
        body = literal.arg
        body_set = set(body.args) if isinstance(body, And) else {body}
        if not body_set <= set_first:
            continue
        common_first = set_first - body_set
        common_second = set_second - {literal}
        if common_first == common_second:
            merged = builder.and_(*sorted(common_first, key=lambda n: n.uid))
            return merged, body
    return None


def split_on_guard(
    formula: Formula, guard: Formula
) -> Optional[Tuple[Formula, Formula]]:
    """View ``formula`` as ``ITE(guard, then, els)``.

    Handles the normal forms the builder produces for formula ITEs:

    * ``ITE(guard, t, e)`` itself,
    * ``(NOT guard) OR t``      — an ITE whose else-branch is TRUE,
    * ``guard OR e``            — an ITE whose then-branch is TRUE,
    * ``guard AND t``           — an ITE whose else-branch is FALSE,
    * ``(NOT guard) AND e``     — an ITE whose then-branch is FALSE.

    Returns ``(then, els)`` or ``None`` when the shape does not match.
    """
    if isinstance(formula, FormulaITE) and formula.cond is guard:
        return formula.then, formula.els
    negated = builder.not_(guard)
    if isinstance(formula, Or):
        args = set(formula.args)
        if negated in args:
            rest = [a for a in formula.args if a is not negated]
            return builder.or_(*rest), TRUE
        if guard in args:
            rest = [a for a in formula.args if a is not guard]
            return TRUE, builder.or_(*rest)
    if isinstance(formula, And):
        args = set(formula.args)
        if guard in args:
            rest = [a for a in formula.args if a is not guard]
            return builder.and_(*rest), FALSE
        if negated in args:
            rest = [a for a in formula.args if a is not negated]
            return FALSE, builder.and_(*rest)
    return None


def case_cone(
    roots: Collection[Expr],
    keys: Collection[Expr],
    stops: Collection[Expr],
) -> Tuple[int, Dict[Expr, Expr]]:
    """The part of ``roots`` a rule-3 case walk can change.

    The cone is the set of nodes above ``stops`` from which a node of
    ``keys`` (the case variables and the seam) is reachable, the keys
    included; the walk descends into neither keys nor stops.  Returns the
    cone's size and its *frontier*: each child of a cone node that lies
    outside the cone, and each root outside it, mapped to itself.  No key
    is reachable from a frontier node, so
    :func:`~repro.eufm.traversal.substitute` rebuilds it to itself;
    added to a case's mapping as stops, the frontier confines the walk to
    the cone without changing its result.

    Nor does the walk descend into a node that cannot reach a key: one
    whose :attr:`~repro.eufm.ast.Expr.stamp` is below every
    :class:`~repro.eufm.ast.BoolVar` key's uid and whose own uid is below
    every other key's.  So it visits the cone and the nodes just outside
    it, not the older entries' chains beneath.  Adds the cone's size to
    ``rewrite.cone_nodes`` and the nodes visited to
    ``rewrite.cone_visits`` on the current span.
    """
    deadline = current_deadline()
    key_uids = {node.uid for node in keys}
    bounds = key_uids | {node.uid for node in stops}
    bool_floor = other_floor = sys.maxsize
    for key in keys:
        if isinstance(key, BoolVar):
            bool_floor = min(bool_floor, key.uid)
        else:
            other_floor = min(other_floor, key.uid)
    # Keyed by uid: an int hashes in C, an Expr through ``__hash__``.
    seen: Dict[int, Expr] = {}
    descended: List[int] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        uid = node.uid
        if uid in seen:
            continue
        deadline.tick("rewrite")
        seen[uid] = node
        if uid in bounds or (node.stamp < bool_floor and uid < other_floor):
            continue
        descended.append(uid)
        stack.extend(node.children)
    # A node is interned after its children, so ascending uids visit
    # every child before its parents.
    cone = key_uids.intersection(seen)
    inner: List[Expr] = []
    for uid in sorted(descended):
        node = seen[uid]
        for child in node.children:
            if child.uid in cone:
                cone.add(uid)
                inner.append(node)
                break
    frontier = {root: root for root in roots if root.uid not in cone}
    for node in inner:
        for child in node.children:
            if child.uid not in cone:
                frontier[child] = child
    tracer = current_tracer()
    tracer.add("rewrite.cone_nodes", len(cone))
    tracer.add("rewrite.cone_visits", len(seen))
    return len(cone), frontier


def is_write_guard(
    cond: Formula, context: Formula, addr: Term, src: Term
) -> bool:
    """Whether ``cond`` is ``builder.and_(context, builder.eq(addr, src))``.

    Decided without building on the usual shape: ``cond`` holds the
    context's conjuncts plus one ``Eq`` of the two addresses, in uid
    order (the ``Eq`` alone for context TRUE), or is the context itself
    when ``addr is src``.  An interned ``And`` holds sorted, distinct,
    non-constant conjuncts and no complementary pair, so that shape is
    the node ``and_`` returns.  Any other shape builds the guard and
    compares identity, which also interns what building always did.
    """
    if addr is src:
        if cond is context:
            return True
    else:
        lhs, rhs = (addr, src) if addr.uid < src.uid else (src, addr)
        if _adds_equation(cond, context, lhs, rhs):
            return True
    return cond is builder.and_(context, builder.eq(addr, src))


def _adds_equation(cond: Formula, context: Formula, lhs: Term, rhs: Term) -> bool:
    """Whether ``cond``'s conjuncts are ``context``'s with the equation
    ``lhs = rhs`` inserted, the order of the others kept."""
    if context is TRUE:
        parts: Tuple[Formula, ...] = ()
    elif isinstance(context, And):
        parts = context.args
    else:
        parts = (context,)
    args = cond.args if isinstance(cond, And) else (cond,)
    if len(args) != len(parts) + 1:
        return False
    at = len(parts)
    for index, part in enumerate(parts):
        if args[index] is not part:
            at = index
            break
    added = args[at]
    return (
        isinstance(added, Eq)
        and added.lhs is lhs
        and added.rhs is rhs
        and args[at + 1:] == parts[at:]
    )


def prove_forwarding_matches_read(
    forwarded: Term,
    spec_read: Term,
    availability: Formula,
    prefixes: Mapping[Term, UpdateChain],
) -> None:
    """Rule 3, subcase 2.1: the forwarded operand equals the spec-side read.

    ``forwarded`` is the implementation's forwarding chain
    ``ITE(match_j, Result_j, ...)`` falling through to a read of the
    initial Register File; ``spec_read`` is the specification-side
    ``read(state, src)`` of the same source register, taken as it is:
    ``state`` is the guarded write chain of the preceding updates (data
    ``SpecData_j``), which ``prefixes`` must hold already decomposed,
    keyed by its final state; ``availability`` mirrors the forwarding
    chain, yielding ``ValidResult_j`` on a match.

    The forwarding and availability chains are walked in lockstep with
    the updates of ``prefixes[state]``, newest first.  At each level the
    forwarding guard must be the update's write condition ``context AND
    addr = src``; the implementation leaf ``Result_j`` must be the update
    data's ``ValidResult_j``-branch, and availability must yield exactly
    ``ValidResult_j`` (so the operand is only consumed once the producer
    has a result).  Below the oldest update the forwarding chain must end
    in ``read(base, src)``.  A ``spec_read`` that is not a read has no
    levels: the forwarded term must be that very node.  Raises
    :class:`RuleViolation` with the offending level otherwise.
    """
    items: List[ChainItem] = []
    bottom = spec_read
    if isinstance(spec_read, Read):
        chain = prefixes.get(spec_read.mem)
        if chain is None:
            raise RuleViolation(
                "the specification-side read is not from a decomposed "
                "chain state"
            )
        items = chain.items
        bottom = builder.read(chain.base, spec_read.addr)
    fwd, avail = forwarded, availability
    level = -1
    try:
        for level, item in enumerate(reversed(items)):
            if not isinstance(fwd, TermITE):
                raise RuleViolation(
                    f"forwarding level {level}: chain shapes diverge "
                    f"({fwd.kind} vs tite)"
                )
            guard = fwd.cond
            if not is_write_guard(
                guard, item.context, item.addr, spec_read.addr
            ):
                raise RuleViolation(
                    f"forwarding level {level}: guards differ — the "
                    "comparator does not match the specification-side write "
                    "condition"
                )
            split = split_on_guard(avail, guard)
            if split is None:
                raise RuleViolation(
                    f"forwarding level {level}: availability does not test "
                    "the same producer"
                )
            avail_hit, avail_miss = split
            # On a match: the forwarded value must be the producer's Result
            # and the spec-side data must select exactly that value when the
            # producer's ValidResult (the availability condition) is true.
            spec_hit = item.data
            hit_ok = False
            if spec_hit is fwd.then:
                hit_ok = True
            elif (
                isinstance(spec_hit, TermITE)
                and spec_hit.cond is avail_hit
                and spec_hit.then is fwd.then
            ):
                hit_ok = True
            if not hit_ok:
                raise RuleViolation(
                    f"forwarding level {level}: forwarded value is not the "
                    "producer's Result under its ValidResult condition"
                )
            fwd, avail = fwd.els, avail_miss
    finally:
        # Every level compared, the one that failed included.
        current_tracer().add("rewrite.forwarding_levels", level + 1)
    if fwd is not bottom:
        raise RuleViolation(
            f"forwarding level {len(items)}: chain shapes diverge "
            f"({fwd.kind} vs {bottom.kind})"
        )
