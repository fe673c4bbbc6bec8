"""Tests for memory elimination and the conservative abstraction."""

import pytest

from repro.encode import (
    abstract_memories_conservative,
    eliminate_memories,
)
from repro.eufm import (
    TRUE,
    and_,
    bvar,
    eq,
    implies,
    ite_term,
    iter_dag,
    not_,
    or_,
    read,
    tvar,
    uf,
    write,
)
from repro.decision import is_valid


def _memory_nodes(formula):
    return [node for node in iter_dag(formula)
            if node.kind in ("read", "write")]


class TestEliminateMemories:
    def test_memory_free_formula_unchanged(self):
        phi = eq(uf("f", [tvar("x")]), tvar("y"))
        result = eliminate_memories(phi)
        assert result.formula is phi
        assert not result.fresh_addresses

    def test_output_has_no_memory_nodes(self):
        m, a, b, d = tvar("RF"), tvar("a"), tvar("b"), tvar("d")
        phi = eq(read(write(m, a, d), b), tvar("v"))
        result = eliminate_memories(phi)
        assert not _memory_nodes(result.formula)

    def test_read_over_write_forwarding(self):
        """read(write(m,a,d), b) = ITE(a=b, d, read(m,b)): validity of the
        forwarding property itself after elimination."""
        m, a, b, d = tvar("RF"), tvar("a"), tvar("b"), tvar("d")
        lhs = read(write(m, a, d), b)
        phi = and_(
            implies(eq(a, b), eq(lhs, d)),
            implies(not_(eq(a, b)), eq(lhs, read(m, b))),
        )
        result = eliminate_memories(phi)
        assert is_valid(result.formula)

    def test_last_write_wins_is_valid(self):
        m, a = tvar("RF"), tvar("a")
        d1, d2 = tvar("d1"), tvar("d2")
        phi = eq(read(write(write(m, a, d1), a, d2), a), d2)
        result = eliminate_memories(phi)
        assert is_valid(result.formula)

    def test_overwritten_data_not_returned(self):
        m, a = tvar("RF"), tvar("a")
        d1, d2 = tvar("d1"), tvar("d2")
        phi = eq(read(write(write(m, a, d1), a, d2), a), d1)
        result = eliminate_memories(phi)
        assert not is_valid(result.formula)

    def test_memory_state_equation_write_noop(self):
        """write(m, a, read(m, a)) = m is valid under extensionality."""
        m, a = tvar("RF"), tvar("a")
        phi = eq(write(m, a, read(m, a)), m)
        result = eliminate_memories(phi)
        assert len(result.fresh_addresses) == 1
        assert is_valid(result.formula)

    def test_distinct_writes_not_equal(self):
        m, a, d = tvar("RF"), tvar("a"), tvar("d")
        phi = eq(write(m, a, d), m)
        result = eliminate_memories(phi)
        assert not is_valid(result.formula)

    def test_commuting_writes_different_addresses(self):
        """Writes to provably different addresses commute."""
        m = tvar("RF")
        a, b, d1, d2 = tvar("a"), tvar("b"), tvar("d1"), tvar("d2")
        lhs = write(write(m, a, d1), b, d2)
        rhs = write(write(m, b, d2), a, d1)
        phi = implies(not_(eq(a, b)), eq(lhs, rhs))
        result = eliminate_memories(phi)
        assert is_valid(result.formula)

    def test_commuting_writes_not_valid_unconditionally(self):
        m = tvar("RF")
        a, b, d1, d2 = tvar("a"), tvar("b"), tvar("d1"), tvar("d2")
        lhs = write(write(m, a, d1), b, d2)
        rhs = write(write(m, b, d2), a, d1)
        result = eliminate_memories(eq(lhs, rhs))
        assert not is_valid(result.formula)

    def test_guarded_chain(self):
        m = tvar("RF")
        c = bvar("c")
        a, d, b = tvar("a"), tvar("d"), tvar("b")
        mem = ite_term(c, write(m, a, d), m)
        phi = implies(and_(c, eq(a, b)), eq(read(mem, b), d))
        result = eliminate_memories(phi)
        assert is_valid(result.formula)

    def test_negative_memory_equation_reported(self):
        m1, m2 = tvar("M1"), tvar("M2")
        # Force memory sorts by using both as memories elsewhere.
        phi = and_(
            not_(eq(m1, m2)),
            eq(read(m1, tvar("a")), tvar("x")),
            eq(read(m2, tvar("a")), tvar("y")),
        )
        result = eliminate_memories(phi)
        assert len(result.negative_memory_equations) == 1

    def test_base_reads_become_ufs(self):
        m, a = tvar("RF"), tvar("a")
        phi = eq(read(m, a), read(m, a))
        assert phi is TRUE  # interning makes identical reads identical

        phi2 = eq(read(m, a), read(m, tvar("b")))
        result = eliminate_memories(phi2)
        assert m in result.base_read_symbols


class TestConservativeAbstraction:
    def test_no_memory_nodes_remain(self):
        m, a, d = tvar("RF"), tvar("a"), tvar("d")
        phi = eq(read(write(m, a, d), tvar("b")), tvar("v"))
        out = abstract_memories_conservative(phi)
        assert not _memory_nodes(out)

    def test_identical_access_sequences_provable(self):
        """Both sides writing/reading identically is provable by congruence
        alone — the rewritten-formula situation (Table 5)."""
        m, a, d, b = tvar("RF"), tvar("a"), tvar("d"), tvar("b")
        lhs = read(write(m, a, d), b)
        rhs = read(write(m, a, d), b)
        out = abstract_memories_conservative(eq(lhs, rhs))
        assert out is TRUE

    def test_forwarding_property_lost(self):
        """The conservative abstraction cannot prove forwarding — that is
        exactly what makes it conservative."""
        m, a, b, d = tvar("RF"), tvar("a"), tvar("b"), tvar("d")
        phi = implies(eq(a, b), eq(read(write(m, a, d), b), d))
        precise = eliminate_memories(phi).formula
        assert is_valid(precise)
        out = abstract_memories_conservative(phi)
        assert not is_valid(out)

    def test_validity_preserving_direction(self):
        """Anything valid conservatively is valid precisely."""
        m, a, b, d = tvar("RF"), tvar("a"), tvar("b"), tvar("d")
        phi = implies(
            eq(a, b),
            eq(read(write(m, a, d), tvar("c")), read(write(m, b, d), tvar("c"))),
        )
        conservative = abstract_memories_conservative(phi)
        if is_valid(conservative):
            precise = eliminate_memories(phi).formula
            assert is_valid(precise)
