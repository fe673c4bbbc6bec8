"""Tests for guarded-write-chain utilities (Fig. 2 update triples)."""

import pytest

from repro.eufm import TRUE, and_, bvar, ite_term, not_, tvar, write
from repro.rewriting import decompose_chain


def _apply(base, updates):
    """The guarded write chain of ``(context, addr, data)`` updates."""
    mem = base
    for context, addr, data in updates:
        mem = ite_term(context, write(mem, addr, data), mem)
    return mem


def _triples(chain):
    return [(item.context, item.addr, item.data) for item in chain.items]


def _chain():
    base = tvar("RF")
    updates = [
        (bvar("c1"), tvar("a1"), tvar("d1")),
        (TRUE, tvar("a2"), tvar("d2")),
        (and_(bvar("c3"), bvar("c4")), tvar("a3"), tvar("d3")),
    ]
    return base, updates


class TestCollectApply:
    def test_round_trip(self):
        base, updates = _chain()
        mem = _apply(base, updates)
        chain = decompose_chain(mem)
        assert chain.base is base
        assert _triples(chain) == updates
        assert _apply(chain.base, _triples(chain)) is mem

    def test_plain_write_has_true_context(self):
        base = tvar("RF")
        mem = write(base, tvar("a"), tvar("d"))
        chain = decompose_chain(mem)
        assert chain.base is base
        assert _triples(chain) == [(TRUE, tvar("a"), tvar("d"))]

    def test_non_chain_rejected(self):
        base = tvar("RF")
        other = tvar("RF2")
        mem = ite_term(bvar("p"), write(base, tvar("a"), tvar("d")), other)
        with pytest.raises(ValueError):
            decompose_chain(mem)

    def test_negated_guard_chain(self):
        base = tvar("RF")
        mem = ite_term(
            bvar("p"), base, write(base, tvar("a"), tvar("d"))
        )
        chain = decompose_chain(mem)
        assert chain.base is base
        assert _triples(chain) == [(not_(bvar("p")), tvar("a"), tvar("d"))]

    def test_empty_chain(self):
        base = tvar("RF")
        chain = decompose_chain(base)
        assert chain.base is base
        assert chain.items == []
