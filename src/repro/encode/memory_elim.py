"""Elimination and abstraction of EUFM memories.

Two strategies, both used in the paper's tool flow:

1. :func:`eliminate_memories` — the *precise* elimination.  Equations
   between memory states are reduced by extensionality to equations between
   reads at a fresh address variable; every ``read`` is then pushed through
   the write chain beneath it (the forwarding property), and reads of the
   initial (variable) memory states are abstracted as applications of a
   fresh uninterpreted function per base memory.  The result contains no
   ``read``/``write`` nodes.

   The reduction of a memory equation to a pointwise comparison at a fresh
   address is exact for *positively* occurring memory equations (the shape
   of the Burch–Dill correctness formula) and conservative otherwise: a
   reported "valid" is always trustworthy; a negative answer may need the
   precise check.  Negative occurrences are reported via
   ``MemoryElimResult.negative_memory_equations``.

2. :func:`abstract_memories_conservative` — the conservative abstraction of
   Sect. 7.2 / Velev TACAS'01: ``read`` and ``write`` become completely
   general uninterpreted functions that do *not* satisfy the forwarding
   property.  On formulas where both sides of the diagram perform identical
   in-order access sequences (the situation after the rewriting rules have
   removed the out-of-order updates), congruence alone suffices, no address
   comparisons are introduced, and the propositional encoding contains no
   ``e_ij`` variables — Table 5's headline property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..eufm import builder
from ..eufm.ast import Eq, Expr, Formula, Read, Term, TermITE, TermVar, Write
from ..eufm.evaluator import infer_memory_sorts
from ..guard.deadline import current_deadline
from ..eufm.polarity import NEG, POS, _compute_polarity
from ..eufm.traversal import iter_dag, rebuild

__all__ = [
    "MemoryElimResult",
    "eliminate_memories",
    "abstract_memories_conservative",
]

#: Rounds of :func:`eliminate_memories` before it gives up on a fixpoint;
#: ordinary correctness formulas converge in one.
MAX_ROUNDS = 10

#: UF symbol prefix for abstracted initial-memory reads (precise mode).
READ_SYMBOL_PREFIX = "read$"
#: UF symbols for the conservative (forwarding-free) abstraction.
CONSERVATIVE_READ = "mem_read$"
CONSERVATIVE_WRITE = "mem_write$"


@dataclass
class MemoryElimResult:
    """Outcome of the precise memory elimination."""

    formula: Formula
    #: fresh address variables introduced per eliminated memory equation.
    fresh_addresses: List[TermVar] = field(default_factory=list)
    #: base memory variable -> UF symbol abstracting its initial contents.
    base_read_symbols: Dict[TermVar, str] = field(default_factory=dict)
    #: memory equations that occurred negatively (reduction is conservative).
    negative_memory_equations: List[Eq] = field(default_factory=list)


def eliminate_memories(phi: Formula) -> MemoryElimResult:
    """Produce an equivalid memory-free formula (see module docstring).

    The three steps (extensionality, read pushing, base-read abstraction)
    are iterated to a fixpoint so memory equations nested inside the guards
    of other memory terms are handled as well; ordinary correctness
    formulas converge in a single round.
    """
    result = MemoryElimResult(formula=phi)
    deadline = current_deadline()
    for _ in range(MAX_ROUNDS):
        deadline.check("encode.memory")
        memory_sorted = infer_memory_sorts(phi)
        if not memory_sorted:
            result.formula = phi
            return result
        polarity = _compute_polarity(phi)

        # Step 1: extensionality — memory equations become pointwise reads.
        def replace_memory_eq(node: Expr, _rebuilt):
            if isinstance(node, Eq) and (
                node.lhs in memory_sorted or node.rhs in memory_sorted
            ):
                index = len(result.fresh_addresses) + 1
                fresh = builder.tvar(f"addr*{index}")
                result.fresh_addresses.append(fresh)
                if polarity.get(node, POS) & NEG:
                    result.negative_memory_equations.append(node)
                return builder.eq(
                    builder.read(node.lhs, fresh), builder.read(node.rhs, fresh)
                )
            return None

        phi = rebuild(phi, replace_memory_eq)

        # Step 2: push reads through write chains and memory ITEs.
        phi = _push_all_reads(phi)

        # Step 3: abstract reads of base memory variables as UFs.
        def abstract_base_read(node: Expr, _rebuilt):
            if isinstance(node, Read) and isinstance(node.mem, TermVar):
                symbol = result.base_read_symbols.setdefault(
                    node.mem, READ_SYMBOL_PREFIX + node.mem.name
                )
                return builder.uf(symbol, [node.addr])
            return None

        phi = rebuild(phi, abstract_base_read)

    for node in iter_dag(phi):
        deadline.tick("encode.memory")
        if isinstance(node, (Read, Write)):
            raise ValueError(f"memory node survived elimination: {node!r}")
    result.formula = phi
    return result


def _push_all_reads(phi: Formula) -> Formula:
    """Rewrite every read so it applies directly to a base memory variable.

    ``read(write(m, a, d), b)`` becomes ``ITE(a = b, d, read(m, b))`` and
    ``read(ITE(c, m1, m2), b)`` becomes ``ITE(c, read(m1, b), read(m2, b))``.
    Implemented with an explicit stack and a cache keyed on
    ``(memory, address)`` so shared chains are expanded once and deep chains
    do not overflow the interpreter stack.
    """
    cache: Dict[Tuple[Term, Term], Term] = {}
    deadline = current_deadline()

    def pushed_read(mem: Term, addr: Term) -> Term:
        stack: List[Tuple[Term, Term]] = [(mem, addr)]
        while stack:
            deadline.tick("encode.memory")
            cur_mem, cur_addr = stack[-1]
            key = (cur_mem, cur_addr)
            if key in cache:
                stack.pop()
                continue
            if isinstance(cur_mem, Write):
                inner = (cur_mem.mem, cur_addr)
                if inner not in cache:
                    stack.append(inner)
                    continue
                hit = builder.eq(cur_mem.addr, cur_addr)
                cache[key] = builder.ite_term(hit, cur_mem.data, cache[inner])
                stack.pop()
                continue
            if isinstance(cur_mem, TermITE):
                left = (cur_mem.then, cur_addr)
                right = (cur_mem.els, cur_addr)
                missing = [k for k in (left, right) if k not in cache]
                if missing:
                    stack.extend(missing)
                    continue
                cache[key] = builder.ite_term(
                    cur_mem.cond, cache[left], cache[right]
                )
                stack.pop()
                continue
            cache[key] = builder.read(cur_mem, cur_addr)
            stack.pop()
        return cache[(mem, addr)]

    def replace(node: Expr, _rebuilt):
        if isinstance(node, Read) and not isinstance(node.mem, TermVar):
            return pushed_read(node.mem, node.addr)
        return None

    # Reads can nest (the address of a read may itself contain reads).
    # `replace` pushes a read through its *original* memory and address,
    # so the reads nested in them come out of a pass unpushed; passes
    # repeat until nothing changes.
    previous = None
    current = phi
    while previous is not current:
        deadline.tick("encode.memory")
        previous = current
        current = rebuild(current, replace)
    return current


def abstract_memories_conservative(phi: Formula) -> Formula:
    """Replace ``read``/``write`` by general UFs without forwarding.

    Sound for validity checking (every real memory is one interpretation of
    the uninterpreted ``mem_read$``/``mem_write$``); complete only when the
    formula does not rely on the forwarding property — e.g. the rewritten
    correctness formulas, where both diagram sides perform identical
    in-order memory accesses.
    """
    current_deadline().check("encode.memory")

    def replace(node: Expr, rebuilt: Dict[Expr, Expr]):
        if isinstance(node, Read):
            return builder.uf(
                CONSERVATIVE_READ, [rebuilt[node.mem], rebuilt[node.addr]]
            )
        if isinstance(node, Write):
            return builder.uf(
                CONSERVATIVE_WRITE,
                [rebuilt[node.mem], rebuilt[node.addr], rebuilt[node.data]],
            )
        return None

    return rebuild(phi, replace)
