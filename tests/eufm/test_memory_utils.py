"""Tests for guarded-write-chain utilities (Fig. 2 update triples)."""

import pytest

from repro.eufm import (
    TRUE,
    Interpretation,
    and_,
    bvar,
    eq,
    evaluate,
    ite_term,
    not_,
    read,
    tvar,
    write,
)
from repro.rewriting import chain_read, decompose_chain, push_read


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


class TestChainRead:
    def _assert_equivalent(self, lhs, rhs, seeds=range(40)):
        for seed in seeds:
            interp = Interpretation(domain_size=3, seed=seed)
            assert evaluate(lhs, interp) == evaluate(rhs, interp), f"seed={seed}"

    def test_chain_read_matches_memory_semantics(self):
        base, updates = _chain()
        mem = _apply(base, updates)
        addr = tvar("probe")
        direct = read(mem, addr)
        chained = chain_read(decompose_chain(mem), addr)
        self._assert_equivalent(direct, chained)

    def test_chain_read_has_no_memory_left_when_base_read(self):
        base, updates = _chain()
        chained = chain_read(decompose_chain(_apply(base, updates)), tvar("probe"))
        # only the base read remains
        from repro.eufm import memory_nodes

        mems = memory_nodes(chained)
        assert len(mems) == 1
        assert mems[0].kind == "read"

    def test_push_read_equivalence(self):
        base, updates = _chain()
        node = read(_apply(base, updates), tvar("probe"))
        pushed = push_read(node)
        assert pushed is not node
        self._assert_equivalent(node, pushed)

    def test_push_read_of_non_read_is_identity(self):
        x = tvar("x")
        assert push_read(x) is x

    def test_push_read_of_unstructured_memory_is_identity(self):
        mem = ite_term(bvar("p"), tvar("M1"), tvar("M2"))
        node = read(mem, tvar("a"))
        assert push_read(node) is node
