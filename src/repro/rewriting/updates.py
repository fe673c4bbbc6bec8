"""Decomposition of memory states into update sequences.

A memory state in the correctness formulas is always a *guarded write
chain*: the initial state (a term variable) followed by conditional writes
``ITE(context, write(prev, addr, data), prev)``.  The rewriting rules of
Sect. 6 operate on its ``<context, address, data>`` update triples
(Fig. 2).  The decomposition also records the memory-state *node*
preceding each update — the rules need those seams: data expressions of
later updates read from them, and proven-equal prefixes are replaced
through them.  Read-over-write pushing (the forwarding property of the
memory semantics) is built on the same decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..eufm import builder
from ..eufm.ast import Formula, Read, Term, TermITE, Write, TRUE
from ..guard.deadline import current_deadline

__all__ = [
    "ChainItem",
    "UpdateChain",
    "chain_read",
    "decompose_chain",
    "push_read",
]


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


def chain_read(chain: UpdateChain, addr: Term) -> Term:
    """``read(chain.final_state, addr)`` as a linear ITE chain.

    The value is the data of the most recent update whose context holds
    and whose address equals ``addr``, and otherwise the read from the
    base state.
    """
    result = builder.read(chain.base, addr)
    for item in chain.items:
        hit = builder.and_(item.context, builder.eq(item.addr, addr))
        result = builder.ite_term(hit, item.data, result)
    return result


def push_read(node: Term) -> Term:
    """Push a single ``read`` through the write chain beneath it.

    ``read(write(m, a, d), b)`` becomes ``ITE(a = b, d, read(m, b))``;
    guarded writes produce the corresponding guarded ITEs.  If ``node`` is
    not a read over a chain, it is returned unchanged.
    """
    if not isinstance(node, Read):
        return node
    try:
        chain = decompose_chain(node.mem)
    except ValueError:
        return node
    return chain_read(chain, node.addr)
