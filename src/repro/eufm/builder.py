"""Smart constructors for EUFM expressions.

All construction of :mod:`repro.eufm.ast` nodes should go through these
functions.  They intern nodes (maximal DAG sharing) and apply inexpensive,
always-sound local simplifications:

* constant folding of the Boolean connectives and ITEs,
* ``x = x`` becomes ``TRUE``,
* double negation elimination,
* flattening, deduplication and complement detection in ``AND``/``OR``,
* ITE collapsing when both branches coincide.

These are the "conservative transformations" of the EVC tool in the sense
that they never change the set of satisfying interpretations.

The intern table is keyed on the kind tag and the children's uids, in one
flat tuple such as ``("tite", cond.uid, then.uid, els.uid)``: ints and
strings hash in C, where a tuple of nodes would hash each node through
the Python-level ``Expr.__hash__``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .ast import (
    FALSE,
    TRUE,
    And,
    BoolConst,
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
    TermVar,
    UFApp,
    UPApp,
    Write,
    intern_node,
)

__all__ = [
    "tvar",
    "bvar",
    "uf",
    "up",
    "ite_term",
    "ite_formula",
    "eq",
    "not_",
    "and_",
    "or_",
    "implies",
    "iff",
    "xor",
    "read",
    "write",
]


def tvar(name: str) -> TermVar:
    """A term variable named ``name``."""
    if not name:
        raise ValueError("term variable needs a non-empty name")
    return intern_node(TermVar, ("tvar", name), name)


def bvar(name: str) -> BoolVar:
    """A propositional variable named ``name``."""
    if not name:
        raise ValueError("Boolean variable needs a non-empty name")
    return intern_node(BoolVar, ("bvar", name), name)


def uf(symbol: str, args: Sequence[Term] = ()) -> UFApp:
    """Apply the uninterpreted function ``symbol`` to ``args``."""
    args = tuple(args)
    _check_terms(args, symbol)
    key = ("uf", symbol, *[arg.uid for arg in args])
    return intern_node(UFApp, key, symbol, args)


def up(symbol: str, args: Sequence[Term] = ()) -> UPApp:
    """Apply the uninterpreted predicate ``symbol`` to ``args``."""
    args = tuple(args)
    _check_terms(args, symbol)
    key = ("up", symbol, *[arg.uid for arg in args])
    return intern_node(UPApp, key, symbol, args)


def _check_terms(args: Tuple[Expr, ...], symbol: str) -> None:
    for arg in args:
        if not isinstance(arg, Term):
            raise TypeError(f"argument of {symbol!r} must be a term, got {arg!r}")


def ite_term(cond: Formula, then: Term, els: Term) -> Term:
    """Term-level ``ITE(cond, then, els)`` with local simplification."""
    if not isinstance(cond, Formula):
        raise TypeError("ITE condition must be a formula")
    if not (isinstance(then, Term) and isinstance(els, Term)):
        raise TypeError("term ITE branches must be terms")
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    # ITE(c, ITE(c, a, b), e) => ITE(c, a, e) and the dual.
    if isinstance(then, TermITE) and then.cond is cond:
        then = then.then
        if then is els:
            return then
    if isinstance(els, TermITE) and els.cond is cond:
        els = els.els
        if then is els:
            return then
    return intern_node(
        TermITE, ("tite", cond.uid, then.uid, els.uid), cond, then, els
    )


def ite_formula(cond: Formula, then: Formula, els: Formula) -> Formula:
    """Formula-level ``ITE(cond, then, els)`` with local simplification."""
    for part in (cond, then, els):
        if not isinstance(part, Formula):
            raise TypeError("formula ITE operands must be formulas")
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    if then is TRUE and els is FALSE:
        return cond
    if then is FALSE and els is TRUE:
        return not_(cond)
    if then is TRUE:
        return or_(cond, els)
    if then is FALSE:
        return and_(not_(cond), els)
    if els is TRUE:
        return or_(not_(cond), then)
    if els is FALSE:
        return and_(cond, then)
    return intern_node(
        FormulaITE, ("fite", cond.uid, then.uid, els.uid), cond, then, els
    )


def eq(lhs: Term, rhs: Term) -> Formula:
    """Equation ``lhs = rhs``; operands are stored in canonical order."""
    if not (isinstance(lhs, Term) and isinstance(rhs, Term)):
        raise TypeError("equation operands must be terms")
    if lhs is rhs:
        return TRUE
    if rhs.uid < lhs.uid:
        lhs, rhs = rhs, lhs
    return intern_node(Eq, ("eq", lhs.uid, rhs.uid), lhs, rhs)


def not_(arg: Formula) -> Formula:
    """Negation with double-negation and constant elimination."""
    if not isinstance(arg, Formula):
        raise TypeError("negation operand must be a formula")
    if arg is TRUE:
        return FALSE
    if arg is FALSE:
        return TRUE
    if isinstance(arg, Not):
        return arg.arg
    return intern_node(Not, ("not", arg.uid), arg)


def _connective(
    cls, absorbing: BoolConst, neutral: BoolConst, operands: Tuple[Formula, ...]
) -> Formula:
    """The body of :func:`and_` (``absorbing`` FALSE, ``neutral`` TRUE)
    and :func:`or_` (the reverse): flatten one level of ``cls``, drop
    duplicates and ``neutral``, fold to ``absorbing`` on it or on a
    complementary pair, and order the rest by uid."""
    by_uid: Dict[int, Formula] = {}
    for operand in operands:
        if isinstance(operand, cls):
            for arg in operand.args:
                by_uid[arg.uid] = arg
        elif isinstance(operand, Formula):
            by_uid[operand.uid] = operand
        else:
            raise TypeError("connective operands must be formulas")
    if absorbing.uid in by_uid:
        return absorbing
    by_uid.pop(neutral.uid, None)
    for operand in by_uid.values():
        if isinstance(operand, Not) and operand.arg.uid in by_uid:
            return absorbing
    if len(by_uid) < 2:
        return next(iter(by_uid.values()), neutral)
    uids = sorted(by_uid)
    args = tuple(map(by_uid.__getitem__, uids))
    return intern_node(cls, (cls.kind, *uids), args)


def and_(*operands: Formula) -> Formula:
    """N-ary conjunction (flattening, dedup, complements, constants)."""
    return _connective(And, FALSE, TRUE, operands)


def or_(*operands: Formula) -> Formula:
    """N-ary disjunction (flattening, dedup, complements, constants)."""
    return _connective(Or, TRUE, FALSE, operands)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """``antecedent -> consequent`` desugared to ``!antecedent | consequent``."""
    return or_(not_(antecedent), consequent)


def iff(lhs: Formula, rhs: Formula) -> Formula:
    """Bi-implication, desugared through a formula ITE."""
    return ite_formula(lhs, rhs, not_(rhs))


def xor(lhs: Formula, rhs: Formula) -> Formula:
    """Exclusive or, desugared through a formula ITE."""
    return ite_formula(lhs, not_(rhs), rhs)


def read(mem: Term, addr: Term) -> Term:
    """``read(mem, addr)``; reads through a same-address write are folded."""
    if not (isinstance(mem, Term) and isinstance(addr, Term)):
        raise TypeError("read operands must be terms")
    if isinstance(mem, Write) and mem.addr is addr:
        # Forwarding property, exact-address special case.
        return mem.data
    return intern_node(Read, ("read", mem.uid, addr.uid), mem, addr)


def write(mem: Term, addr: Term, data: Term) -> Term:
    """``write(mem, addr, data)``."""
    if not (
        isinstance(mem, Term) and isinstance(addr, Term) and isinstance(data, Term)
    ):
        raise TypeError("write operands must be terms")
    return intern_node(
        Write, ("write", mem.uid, addr.uid, data.uid), mem, addr, data
    )
