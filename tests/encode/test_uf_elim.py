"""Tests for nested-ITE elimination of UFs and UPs."""

import pytest

from repro.decision import is_valid
from repro.encode import eliminate_uf
from repro.eufm import (
    and_,
    bvar,
    classify,
    eq,
    implies,
    ite_term,
    iter_dag,
    not_,
    or_,
    read,
    tvar,
    uf,
    up,
    write,
)


class TestBasicElimination:
    def test_output_has_no_applications(self):
        phi = and_(
            eq(uf("f", [tvar("x")]), uf("f", [tvar("y")])),
            up("p", [uf("g", [tvar("x")])]),
        )
        result = eliminate_uf(phi)
        assert not [node for node in iter_dag(result.formula)
                    if node.kind in ("uf", "up")]

    def test_single_application_becomes_variable(self):
        phi = eq(uf("f", [tvar("x")]), tvar("z"))
        result = eliminate_uf(phi)
        assert len(result.fresh_term_vars) == 1
        fresh = result.fresh_term_vars[0]
        assert result.provenance[fresh][0] == "f"

    def test_identical_applications_share_one_variable(self):
        fx = uf("f", [tvar("x")])
        phi = and_(eq(fx, tvar("a")), eq(fx, tvar("b")))
        result = eliminate_uf(phi)
        assert len(result.fresh_term_vars) == 1

    def test_functional_consistency_preserved(self):
        """f(x) = f(y) must still follow from x = y after elimination."""
        x, y = tvar("x"), tvar("y")
        phi = implies(eq(x, y), eq(uf("f", [x]), uf("f", [y])))
        result = eliminate_uf(phi)
        assert is_valid(result.formula)

    def test_no_spurious_equality(self):
        """f(x) = f(y) must not hold unconditionally."""
        x, y = tvar("x"), tvar("y")
        phi = eq(uf("f", [x]), uf("f", [y]))
        result = eliminate_uf(phi)
        assert not is_valid(result.formula)

    def test_transitive_chain_still_valid(self):
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        phi = implies(
            and_(eq(x, y), eq(y, z)),
            eq(uf("f", [x]), uf("f", [z])),
        )
        result = eliminate_uf(phi)
        assert len(result.fresh_term_vars) == 2
        assert is_valid(result.formula)

    def test_three_distinct_applications(self):
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        phi = implies(
            and_(eq(x, y), eq(y, z)),
            and_(
                eq(uf("f", [x]), uf("f", [y])),
                eq(uf("f", [y]), uf("f", [z])),
            ),
        )
        result = eliminate_uf(phi)
        assert len(result.fresh_term_vars) == 3
        assert is_valid(result.formula)

    def test_nested_applications(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(
            eq(x, y),
            eq(uf("f", [uf("g", [x])]), uf("f", [uf("g", [y])])),
        )
        result = eliminate_uf(phi)
        assert is_valid(result.formula)

    def test_predicate_consistency_preserved(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(and_(eq(x, y), up("p", [x])), up("p", [y]))
        result = eliminate_uf(phi)
        assert is_valid(result.formula)
        assert len(result.fresh_bool_vars) == 2

    def test_memory_nodes_rejected(self):
        phi = eq(read(tvar("m"), tvar("a")), tvar("d"))
        with pytest.raises(TypeError):
            eliminate_uf(phi)


class TestPolarityInheritance:
    def test_g_symbol_fresh_vars_are_general(self):
        x = tvar("x")
        phi = not_(eq(uf("f", [x]), tvar("z")))
        info = classify(phi)
        result = eliminate_uf(phi, info)
        assert result.fresh_term_vars
        assert set(result.fresh_term_vars) == result.fresh_g_vars

    def test_p_symbol_fresh_vars_are_positive(self):
        x = tvar("x")
        phi = eq(uf("alu", [x]), tvar("z"))
        info = classify(phi)
        result = eliminate_uf(phi, info)
        assert result.fresh_term_vars
        assert not result.fresh_g_vars

    def test_without_info_everything_general(self):
        phi = eq(uf("alu", [tvar("x")]), tvar("z"))
        result = eliminate_uf(phi)
        assert set(result.fresh_term_vars) == result.fresh_g_vars


class TestValidityPreservation:
    """UF elimination preserves validity exactly (both directions)."""

    CASES = [
        # (formula builder, expected validity)
        (lambda: implies(eq(tvar("x"), tvar("y")),
                         eq(uf("f", [tvar("x")]), uf("f", [tvar("y")]))), True),
        (lambda: eq(uf("f", [tvar("x")]), uf("f", [tvar("x")])), True),
        (lambda: eq(uf("f", [tvar("x")]), uf("g", [tvar("x")])), False),
        (lambda: implies(
            and_(eq(tvar("a"), tvar("c")), eq(tvar("b"), tvar("d"))),
            eq(uf("h", [tvar("a"), tvar("b")]), uf("h", [tvar("c"), tvar("d")]))),
         True),
        (lambda: or_(up("p", [tvar("x")]), not_(up("p", [tvar("x")]))), True),
        (lambda: implies(
            eq(tvar("x"), ite_term(bvar("c"), tvar("x"), tvar("x"))),
            up("p", [tvar("x")])), False),
    ]

    @pytest.mark.parametrize("case_index", range(len(CASES)))
    def test_validity_agrees_with_oracle(self, case_index):
        build, expected = self.CASES[case_index]
        phi = build()
        assert is_valid(phi) is expected
        result = eliminate_uf(phi)
        assert is_valid(result.formula) is expected
