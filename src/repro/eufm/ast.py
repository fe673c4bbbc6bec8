"""Hash-consed expression DAG for the logic of Equality with Uninterpreted
Functions and Memories (EUFM).

The syntax follows Burch & Dill (CAV'94) as used by Velev (DATE 2002):

* *Terms* abstract word-level values: term variables, applications of
  uninterpreted functions (UFs), term-level ITE, and memory operations
  ``read``/``write``.
* *Formulas* model control: propositional variables, applications of
  uninterpreted predicates (UPs), formula-level ITE, equations between
  terms, negation, conjunction and disjunction, and the constants
  ``TRUE``/``FALSE``.

Every node is interned: structurally identical expressions are the same
Python object, so equality tests are identity tests and DAG sharing is
maximal.  Nodes are immutable; construct them through :mod:`repro.eufm.builder`
which also applies local simplification.  One verification run at a time
owns the intern table (:func:`run_scope`).
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

__all__ = [
    "Expr",
    "Term",
    "Formula",
    "TermVar",
    "UFApp",
    "TermITE",
    "Read",
    "Write",
    "BoolVar",
    "UPApp",
    "FormulaITE",
    "Eq",
    "Not",
    "And",
    "Or",
    "BoolConst",
    "TRUE",
    "FALSE",
    "intern_node",
    "interned_count",
    "clear_intern_cache",
    "run_scope",
]


_intern_table: dict = {}
_uid_counter = itertools.count(1)


def intern_node(cls, key: Tuple, *args) -> "Expr":
    """Return the canonical node for ``key``, creating it if necessary."""
    node = _intern_table.get(key)
    if node is None:
        node = object.__new__(cls)
        node._init(*args)
        node.uid = next(_uid_counter)
        _intern_table[key] = node
    return node


def interned_count() -> int:
    """Number of distinct live expression nodes."""
    return len(_intern_table)


def clear_intern_cache() -> None:
    """Drop all interned nodes except the Boolean constants.

    Existing expression objects stay valid, but newly constructed
    structurally-equal expressions will be fresh objects; only call this
    between independent verification runs (:func:`run_scope` does).
    """
    _intern_table.clear()
    _intern_table[("const", True)] = TRUE
    _intern_table[("const", False)] = FALSE


_run_lock = threading.Lock()


def _new_run_lock() -> None:
    # A child forked while another thread held the lock inherits it held,
    # with no thread left to release it.
    global _run_lock
    _run_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_run_lock)


@contextmanager
def run_scope() -> Iterator[None]:
    """Run one verification on an empty intern table, holding a lock that
    is not re-entrant, so runs in other threads wait (enter it before the
    run's budgets start).  The run's nodes stay interned after it, until
    the next run starts."""
    with _run_lock:
        clear_intern_cache()
        yield


class Expr:
    """Base class of all EUFM expressions (terms and formulas)."""

    __slots__ = ("uid",)

    #: short tag identifying the node kind; set by each subclass.
    kind: str = "expr"

    def _init(self) -> None:
        raise NotImplementedError

    @property
    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions, in a fixed order."""
        return ()

    def is_term(self) -> bool:
        return isinstance(self, Term)

    def is_formula(self) -> bool:
        return isinstance(self, Formula)

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # Depth-clipped: the full S-expression of a processor-sized term
        # is exponentially large (the DAG is rendered as a tree), so it
        # must never be materialized just to display a one-liner.
        from .printer import clip_sexpr

        text = clip_sexpr(self, max_depth=4)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<{type(self).__name__} {text}>"


class Term(Expr):
    """A word-level value."""

    __slots__ = ()


class Formula(Expr):
    """A truth value."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class TermVar(Term):
    """A term variable abstracting an arbitrary word-level value."""

    __slots__ = ("name",)
    kind = "tvar"

    def _init(self, name: str) -> None:
        self.name = name


class UFApp(Term):
    """Application of an uninterpreted function to argument terms.

    A 0-ary application is allowed and behaves like a term variable that is
    shared by name.
    """

    __slots__ = ("symbol", "args")
    kind = "uf"

    def _init(self, symbol: str, args: Tuple[Expr, ...]) -> None:
        self.symbol = symbol
        self.args = args

    @property
    def children(self) -> Tuple[Expr, ...]:
        return self.args


class TermITE(Term):
    """``ITE(cond, then, else)`` selecting between two terms."""

    __slots__ = ("cond", "then", "els")
    kind = "tite"

    def _init(self, cond: Formula, then: Term, els: Term) -> None:
        self.cond = cond
        self.then = then
        self.els = els

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.els)


class Read(Term):
    """``read(mem, addr)`` — the data stored at ``addr`` in ``mem``."""

    __slots__ = ("mem", "addr")
    kind = "read"

    def _init(self, mem: Term, addr: Term) -> None:
        self.mem = mem
        self.addr = addr

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.mem, self.addr)


class Write(Term):
    """``write(mem, addr, data)`` — the memory after storing ``data``."""

    __slots__ = ("mem", "addr", "data")
    kind = "write"

    def _init(self, mem: Term, addr: Term, data: Term) -> None:
        self.mem = mem
        self.addr = addr
        self.data = data

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.mem, self.addr, self.data)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class BoolConst(Formula):
    """The constants ``TRUE`` and ``FALSE``."""

    __slots__ = ("value",)
    kind = "const"

    def _init(self, value: bool) -> None:
        self.value = value

    def __bool__(self) -> bool:
        return self.value


class BoolVar(Formula):
    """A propositional variable (the paper models these as 0-ary UPs)."""

    __slots__ = ("name",)
    kind = "bvar"

    def _init(self, name: str) -> None:
        self.name = name


class UPApp(Formula):
    """Application of an uninterpreted predicate to argument terms."""

    __slots__ = ("symbol", "args")
    kind = "up"

    def _init(self, symbol: str, args: Tuple[Expr, ...]) -> None:
        self.symbol = symbol
        self.args = args

    @property
    def children(self) -> Tuple[Expr, ...]:
        return self.args


class FormulaITE(Formula):
    """``ITE(cond, then, else)`` selecting between two formulas."""

    __slots__ = ("cond", "then", "els")
    kind = "fite"

    def _init(self, cond: Formula, then: Formula, els: Formula) -> None:
        self.cond = cond
        self.then = then
        self.els = els

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.els)


class Eq(Formula):
    """Equation between two terms; operands are kept in canonical order."""

    __slots__ = ("lhs", "rhs")
    kind = "eq"

    def _init(self, lhs: Term, rhs: Term) -> None:
        self.lhs = lhs
        self.rhs = rhs

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.lhs, self.rhs)


class Not(Formula):
    """Negation."""

    __slots__ = ("arg",)
    kind = "not"

    def _init(self, arg: Formula) -> None:
        self.arg = arg

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)


class And(Formula):
    """N-ary conjunction; arguments are deduplicated and canonically ordered."""

    __slots__ = ("args",)
    kind = "and"

    def _init(self, args: Tuple[Formula, ...]) -> None:
        self.args = args

    @property
    def children(self) -> Tuple[Expr, ...]:
        return self.args


class Or(Formula):
    """N-ary disjunction; arguments are deduplicated and canonically ordered."""

    __slots__ = ("args",)
    kind = "or"

    def _init(self, args: Tuple[Formula, ...]) -> None:
        self.args = args

    @property
    def children(self) -> Tuple[Expr, ...]:
        return self.args


def _make_const(value: bool) -> BoolConst:
    node = object.__new__(BoolConst)
    node._init(value)
    node.uid = next(_uid_counter)
    _intern_table[("const", value)] = node
    return node


TRUE: BoolConst = _make_const(True)
FALSE: BoolConst = _make_const(False)
