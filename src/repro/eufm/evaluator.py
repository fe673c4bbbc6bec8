"""Concrete-model evaluation of EUFM expressions.

This module is the semantic ground truth for the whole repository: every
transformation (builder simplification, memory elimination, uninterpreted
function elimination, rewriting rules) is tested by checking that it
preserves the value of expressions under randomly drawn interpretations.

An :class:`Interpretation` maps

* term variables to elements of a finite domain ``{0, .., domain_size-1}``,
* Boolean variables to truth values,
* each UF symbol to a deterministic (lazily tabulated) function over the
  domain, and each UP symbol to a deterministic predicate,
* memory-sorted term variables to memory values: a base name plus an
  explicit overlay of address/data pairs, with unwritten addresses filled by
  a deterministic per-base default function.

Memory values compare extensionally, and ``read``/``write`` satisfy the
forwarding property, so the evaluator models exactly the EUFM memory axioms
used by Burch & Dill.

Evaluation has two halves.  An :class:`EvaluationPlan` is the part that
does not depend on the interpretation: the roots' DAG in post-order and
its memory-sorted nodes, computed once.  :meth:`EvaluationPlan.run` is
one pass over that list under one interpretation.  :func:`evaluate` and
:func:`evaluate_nodes` build a plan and run it once; a caller that
evaluates one formula under many interpretations (counterexample
minimization, the rule checker) builds the plan once and runs it per
interpretation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple, Union

from .ast import Expr, Read, TermITE, Write
from .traversal import iter_dag
from ..guard.deadline import current_deadline

__all__ = [
    "EvaluationPlan", "Interpretation", "MemVal", "evaluate",
    "evaluate_nodes", "infer_memory_sorts", "SortError",
]


class SortError(TypeError):
    """A term variable is used both as a plain value and as a memory."""


@dataclass(frozen=True)
class MemVal:
    """A concrete memory state: a base identity plus an overlay of writes.

    Two memory values are equal iff they have the same base and the same
    *normalized* overlay (entries equal to the base default are dropped), so
    equality is extensional given that distinct bases are assumed to differ.
    """

    base: str
    entries: Tuple[Tuple[int, int], ...]

    def lookup(self, addr: int, interp: "Interpretation") -> int:
        for entry_addr, entry_data in self.entries:
            if entry_addr == addr:
                return entry_data
        return interp.default_mem(self.base, addr)

    def store(self, addr: int, data: int, interp: "Interpretation") -> "MemVal":
        overlay = dict(self.entries)
        overlay[addr] = data
        normalized = tuple(
            sorted(
                (a, d)
                for a, d in overlay.items()
                if d != interp.default_mem(self.base, a)
            )
        )
        return MemVal(self.base, normalized)


Value = Union[int, bool, MemVal]


def _digest(*parts) -> int:
    """Deterministic (process-independent) hash of a tuple of printables."""
    text = "\x1f".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class Interpretation:
    """A concrete interpretation of variables, UFs, UPs and memories.

    Values not provided explicitly are drawn deterministically from
    ``seed``, so two evaluations under the same interpretation always agree
    (functional consistency holds by construction).
    """

    def __init__(
        self,
        domain_size: int = 5,
        seed: int = 0,
        term_values: Optional[Dict[str, int]] = None,
        bool_values: Optional[Dict[str, bool]] = None,
    ) -> None:
        if domain_size < 1:
            raise ValueError("domain must have at least one element")
        self.domain_size = domain_size
        self.seed = seed
        self._terms: Dict[str, int] = dict(term_values or {})
        self._bools: Dict[str, bool] = dict(bool_values or {})
        self._uf_tables: Dict[Tuple[str, Tuple], int] = {}
        self._up_tables: Dict[Tuple[str, Tuple], bool] = {}

    def term_value(self, name: str) -> int:
        if name not in self._terms:
            self._terms[name] = _digest(self.seed, "tvar", name) % self.domain_size
        return self._terms[name]

    def bool_value(self, name: str) -> bool:
        if name not in self._bools:
            self._bools[name] = bool(_digest(self.seed, "bvar", name) & 1)
        return self._bools[name]

    def uf_value(self, symbol: str, args: Tuple[Value, ...]) -> int:
        key = (symbol, args)
        if key not in self._uf_tables:
            self._uf_tables[key] = (
                _digest(self.seed, "uf", symbol, args) % self.domain_size
            )
        return self._uf_tables[key]

    def up_value(self, symbol: str, args: Tuple[Value, ...]) -> bool:
        key = (symbol, args)
        if key not in self._up_tables:
            self._up_tables[key] = bool(_digest(self.seed, "up", symbol, args) & 1)
        return self._up_tables[key]

    def default_mem(self, base: str, addr: int) -> int:
        return _digest(self.seed, "mem", base, addr) % self.domain_size

    def set_term(self, name: str, value: int) -> None:
        self._terms[name] = value % self.domain_size

    def set_bool(self, name: str, value: bool) -> None:
        self._bools[name] = bool(value)

    def set_uf(self, symbol: str, args: Tuple[Value, ...], value: int) -> None:
        """Pin one entry of ``symbol``'s function table.

        Argument tuples not pinned explicitly keep their deterministic
        seed-drawn defaults, so the result is still a *total* function —
        exactly what counterexample reconstruction needs: the entries the
        SAT model determined are fixed, the rest are don't-cares.
        """
        self._uf_tables[(symbol, tuple(args))] = value % self.domain_size

    def set_up(self, symbol: str, args: Tuple[Value, ...], value: bool) -> None:
        """Pin one entry of ``symbol``'s predicate table (see set_uf)."""
        self._up_tables[(symbol, tuple(args))] = bool(value)

    def uf_table(self, symbol: str) -> Dict[Tuple[Value, ...], int]:
        """The explicitly pinned entries of ``symbol``'s function table."""
        return {
            args: value
            for (sym, args), value in self._uf_tables.items()
            if sym == symbol
        }

    def up_table(self, symbol: str) -> Dict[Tuple[Value, ...], bool]:
        """The explicitly pinned entries of ``symbol``'s predicate table."""
        return {
            args: value
            for (sym, args), value in self._up_tables.items()
            if sym == symbol
        }


def infer_memory_sorts(*roots: Expr) -> Set[Expr]:
    """The set of term nodes that denote memory states.

    A node is memory-sorted when it occurs in the memory position of a
    ``read`` or ``write``, or is a ``write`` itself, or is a branch of a
    memory-sorted ITE.  Raises :class:`SortError` on ill-sorted use (the
    same node needed both as a plain value and, say, compared with a UF
    result used at value sort is fine — only value/memory conflicts at
    variables and applications are rejected during evaluation).
    """
    deadline = current_deadline()
    memory: Set[Expr] = set()
    nodes = list(iter_dag(*roots))
    changed = True
    while changed:
        deadline.tick("encode.memory")
        changed = False
        for node in nodes:
            if isinstance(node, Write):
                if node not in memory:
                    memory.add(node)
                    changed = True
                if node.mem not in memory:
                    memory.add(node.mem)
                    changed = True
            elif isinstance(node, Read):
                if node.mem not in memory:
                    memory.add(node.mem)
                    changed = True
            elif isinstance(node, TermITE):
                # Memory-ness flows both ways through an ITE: a memory ITE
                # has memory branches, and an ITE with a memory branch is
                # itself a memory (e.g. a guarded write chain).
                ite_family = (node, node.then, node.els)
                if any(member in memory for member in ite_family):
                    for member in ite_family:
                        if member not in memory:
                            memory.add(member)
                            changed = True
    return memory


class EvaluationPlan:
    """The interpretation-independent half of evaluating ``roots``.

    ``nodes`` is every node of the roots' DAG in post-order and
    ``memory_sorted`` the ones that denote memory states.  A plan keeps
    no interpretation state: each :meth:`run` starts from an empty value
    table, so one plan serves any number of interpretations.
    """

    __slots__ = ("nodes", "memory_sorted")

    def __init__(self, *roots: Expr) -> None:
        self.nodes: Tuple[Expr, ...] = tuple(iter_dag(*roots))
        self.memory_sorted: Set[Expr] = infer_memory_sorts(*roots)

    def run(self, interp: Interpretation) -> Dict[Expr, Value]:
        """The value under ``interp`` of every node of the plan."""
        memory_sorted = self.memory_sorted
        values: Dict[Expr, Value] = {}
        for node in self.nodes:
            values[node] = _eval_node(node, values, interp, memory_sorted)
        return values


def evaluate(root: Expr, interp: Interpretation) -> Value:
    """Evaluate ``root`` (and its whole DAG) under ``interp``."""
    return evaluate_nodes(root, interp)[root]


def evaluate_nodes(root: Expr, interp: Interpretation) -> Dict[Expr, Value]:
    """The value under ``interp`` of every node of ``root``'s DAG."""
    return EvaluationPlan(root).run(interp)


def _eval_node(
    node: Expr,
    values: Dict[Expr, Value],
    interp: Interpretation,
    memory_sorted: Set[Expr],
) -> Value:
    kind = node.kind
    if kind == "const":
        return node.value
    if kind == "tvar":
        if node in memory_sorted:
            return MemVal(node.name, ())
        return interp.term_value(node.name)
    if kind == "bvar":
        return interp.bool_value(node.name)
    if kind == "uf":
        if node in memory_sorted:
            raise SortError(f"UF application {node!r} used as a memory")
        return interp.uf_value(node.symbol, tuple(values[a] for a in node.args))
    if kind == "up":
        return interp.up_value(node.symbol, tuple(values[a] for a in node.args))
    if kind in ("tite", "fite"):
        return values[node.then] if values[node.cond] else values[node.els]
    if kind == "read":
        mem = values[node.mem]
        if not isinstance(mem, MemVal):
            raise SortError(f"read applied to non-memory {node.mem!r}")
        return mem.lookup(values[node.addr], interp)
    if kind == "write":
        mem = values[node.mem]
        if not isinstance(mem, MemVal):
            raise SortError(f"write applied to non-memory {node.mem!r}")
        return mem.store(values[node.addr], values[node.data], interp)
    if kind == "eq":
        return values[node.lhs] == values[node.rhs]
    if kind == "not":
        return not values[node.arg]
    if kind == "and":
        return all(values[a] for a in node.args)
    if kind == "or":
        return any(values[a] for a in node.args)
    raise TypeError(f"unknown node kind {kind!r}")
