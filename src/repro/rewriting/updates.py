"""Decomposition of memory states into update sequences.

A memory state in the correctness formulas is always a *guarded write
chain*: the initial state (a term variable) followed by conditional writes
``ITE(context, write(prev, addr, data), prev)``.  The rewriting rules of
Sect. 6 operate on its ``<context, address, data>`` update triples
(Fig. 2).  The decomposition also records the memory-state *node*
preceding each update — the rules need those seams: data expressions of
later updates read from them, proven-equal prefixes are replaced through
them, and the forwarding walk of rule 3 checks a forwarded operand
against the updates beneath the state it is read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..eufm import builder
from ..eufm.ast import Formula, Term, TermITE, Write, TRUE
from ..guard.deadline import current_deadline

__all__ = ["ChainItem", "UpdateChain", "decompose_chain"]


@dataclass(frozen=True)
class ChainItem:
    """One update plus the chain states around it."""

    context: Formula
    addr: Term
    data: Term
    #: memory state the update applies to (reads of this update's data
    #: expression refer to it).
    prev_state: Term
    #: memory state after the update (the guarded-write node itself).
    post_state: Term


@dataclass
class UpdateChain:
    """A guarded write chain in update-list form (oldest first)."""

    base: Term
    items: List[ChainItem]

    @property
    def final_state(self) -> Term:
        return self.items[-1].post_state if self.items else self.base

    def state_after(self, count: int) -> Term:
        """The chain state after the first ``count`` updates."""
        if count == 0:
            return self.base
        return self.items[count - 1].post_state

    def prefix(self, count: int) -> "UpdateChain":
        """The chain of the first ``count`` updates, ending at
        :meth:`state_after` ``(count)``."""
        return UpdateChain(base=self.base, items=self.items[:count])


def decompose_chain(mem: Term) -> UpdateChain:
    """Decompose a guarded write chain, keeping the intermediate states.

    Raises :class:`ValueError` when ``mem`` is not in chain form.
    """
    deadline = current_deadline()
    items_reversed: List[ChainItem] = []
    node = mem
    while True:
        deadline.tick("rewrite")
        if isinstance(node, Write):
            items_reversed.append(
                ChainItem(
                    context=TRUE,
                    addr=node.addr,
                    data=node.data,
                    prev_state=node.mem,
                    post_state=node,
                )
            )
            node = node.mem
            continue
        if isinstance(node, TermITE):
            then, els = node.then, node.els
            if isinstance(then, Write) and then.mem is els:
                items_reversed.append(
                    ChainItem(
                        context=node.cond,
                        addr=then.addr,
                        data=then.data,
                        prev_state=els,
                        post_state=node,
                    )
                )
                node = els
                continue
            if isinstance(els, Write) and els.mem is then:
                items_reversed.append(
                    ChainItem(
                        context=builder.not_(node.cond),
                        addr=els.addr,
                        data=els.data,
                        prev_state=then,
                        post_state=node,
                    )
                )
                node = then
                continue
            raise ValueError("memory term is not a guarded write chain")
        break
    items_reversed.reverse()
    return UpdateChain(base=node, items=items_reversed)
