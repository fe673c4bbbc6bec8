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
* :func:`prove_forwarding_matches_read` — rule 3, subcase 2.1: the
  synchronized walk of the forwarding chain and the availability chain
  against the updates of the specification-side write chain the operand
  is read from.

The case split on ``ValidResult_i`` (rule 3) itself needs no helper of
its own: each case is one :func:`repro.eufm.traversal.substitute` walk
that fixes the case's variables to constants and treats the
preceding-state sub-DAGs as opaque stops.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..errors import ReproError
from ..eufm import builder
from ..eufm.ast import (
    FALSE,
    TRUE,
    And,
    Formula,
    FormulaITE,
    Not,
    Or,
    Read,
    Term,
    TermITE,
)
from .updates import ChainItem, decompose_chain

__all__ = [
    "conjuncts",
    "contexts_disjoint",
    "merge_contexts",
    "split_on_guard",
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


def prove_forwarding_matches_read(
    forwarded: Term,
    spec_read: Term,
    availability: Formula,
) -> None:
    """Rule 3, subcase 2.1: the forwarded operand equals the spec-side read.

    ``forwarded`` is the implementation's forwarding chain
    ``ITE(match_j, Result_j, ...)`` falling through to a read of the
    initial Register File; ``spec_read`` is the specification-side
    ``read(state, src)`` of the same source register, taken as it is:
    ``state`` is the guarded write chain of the preceding updates (data
    ``SpecData_j``); ``availability`` mirrors the forwarding chain,
    yielding ``ValidResult_j`` on a match.

    The forwarding and availability chains are walked in lockstep with
    the updates of ``decompose_chain(state)``, newest first.  At each
    level the forwarding guard must be the update's write condition
    ``context AND addr = src``; the implementation leaf ``Result_j`` must
    be the update data's ``ValidResult_j``-branch, and availability must
    yield exactly ``ValidResult_j`` (so the operand is only consumed once
    the producer has a result).  Below the oldest update the forwarding
    chain must end in ``read(base, src)``.  A ``spec_read`` that is not a
    read has no levels: the forwarded term must be that very node.
    Raises :class:`RuleViolation` with the offending level otherwise.
    """
    items: List[ChainItem] = []
    bottom = spec_read
    if isinstance(spec_read, Read):
        chain = decompose_chain(spec_read.mem)
        items = chain.items
        bottom = builder.read(chain.base, spec_read.addr)
    fwd, avail = forwarded, availability
    for level, item in enumerate(reversed(items)):
        if not isinstance(fwd, TermITE):
            raise RuleViolation(
                f"forwarding level {level}: chain shapes diverge "
                f"({fwd.kind} vs tite)"
            )
        guard = builder.and_(
            item.context, builder.eq(item.addr, spec_read.addr)
        )
        if fwd.cond is not guard:
            raise RuleViolation(
                f"forwarding level {level}: guards differ — the comparator "
                "does not match the specification-side write condition"
            )
        split = split_on_guard(avail, guard)
        if split is None:
            raise RuleViolation(
                f"forwarding level {level}: availability does not test the "
                "same producer"
            )
        avail_hit, avail_miss = split
        # On a match: the forwarded value must be the producer's Result and
        # the spec-side data must select exactly that value when the
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
    if fwd is not bottom:
        raise RuleViolation(
            f"forwarding level {len(items)}: chain shapes diverge "
            f"({fwd.kind} vs {bottom.kind})"
        )
