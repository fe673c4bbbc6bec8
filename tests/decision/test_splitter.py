"""Tests for the reference EUF decision procedure."""

import pytest

from repro.decision import (
    BudgetExceeded,
    DecisionBudget,
    is_satisfiable,
    is_valid,
)
from repro.eufm import (
    FALSE,
    TRUE,
    and_,
    bvar,
    eq,
    iff,
    implies,
    ite_formula,
    ite_term,
    not_,
    or_,
    read,
    tvar,
    uf,
    up,
)


class TestPropositional:
    def test_true_is_valid(self):
        assert is_valid(TRUE)

    def test_false_is_unsat(self):
        assert not is_satisfiable(FALSE)

    def test_variable_is_satisfiable_not_valid(self):
        p = bvar("p")
        assert is_satisfiable(p)
        assert not is_valid(p)

    def test_excluded_middle(self):
        p = bvar("p")
        assert is_valid(or_(p, not_(p)))

    def test_contradiction(self):
        p = bvar("p")
        assert not is_satisfiable(and_(p, not_(p)))

    def test_de_morgan(self):
        p, q = bvar("p"), bvar("q")
        assert is_valid(iff(not_(and_(p, q)), or_(not_(p), not_(q))))

    def test_ite_expansion(self):
        p, q, r = bvar("p"), bvar("q"), bvar("r")
        lhs = ite_formula(p, q, r)
        rhs = or_(and_(p, q), and_(not_(p), r))
        assert is_valid(iff(lhs, rhs))


class TestEqualityTheory:
    def test_reflexivity(self):
        assert is_valid(eq(tvar("x"), tvar("x")))

    def test_distinct_vars_satisfiable_both_ways(self):
        e = eq(tvar("x"), tvar("y"))
        assert is_satisfiable(e)
        assert is_satisfiable(not_(e))
        assert not is_valid(e)

    def test_transitivity(self):
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        phi = implies(and_(eq(x, y), eq(y, z)), eq(x, z))
        assert is_valid(phi)

    def test_transitivity_chain(self):
        names = [tvar(f"t{i}") for i in range(5)]
        premise = and_(*[eq(a, b) for a, b in zip(names, names[1:])])
        assert is_valid(implies(premise, eq(names[0], names[-1])))

    def test_negative_transitivity_instance(self):
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        phi = and_(eq(x, y), eq(y, z), not_(eq(x, z)))
        assert not is_satisfiable(phi)


class TestCongruence:
    def test_function_congruence(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(eq(x, y), eq(uf("f", [x]), uf("f", [y])))
        assert is_valid(phi)

    def test_congruence_not_injective(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(eq(uf("f", [x]), uf("f", [y])), eq(x, y))
        assert not is_valid(phi)

    def test_binary_congruence(self):
        a, b, c, d = tvar("a"), tvar("b"), tvar("c"), tvar("d")
        phi = implies(
            and_(eq(a, c), eq(b, d)),
            eq(uf("g", [a, b]), uf("g", [c, d])),
        )
        assert is_valid(phi)

    def test_nested_congruence(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(
            eq(x, y),
            eq(uf("f", [uf("g", [x])]), uf("f", [uf("g", [y])])),
        )
        assert is_valid(phi)

    def test_congruence_through_folded_ite(self):
        """ITE folding creates new applications; congruence must cover them."""
        p = bvar("p")
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        app = uf("f", [ite_term(p, x, y)])
        phi = implies(and_(p, eq(x, z)), eq(app, uf("f", [z])))
        assert is_valid(phi)

    def test_predicate_congruence(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(and_(eq(x, y), up("pr", [x])), up("pr", [y]))
        assert is_valid(phi)

    def test_predicate_free_otherwise(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(up("pr", [x]), up("pr", [y]))
        assert not is_valid(phi)


class TestIteTheory:
    def test_ite_selects_branch(self):
        p = bvar("p")
        x, y = tvar("x"), tvar("y")
        phi = implies(p, eq(ite_term(p, x, y), x))
        assert is_valid(phi)

    def test_ite_range(self):
        p = bvar("p")
        x, y = tvar("x"), tvar("y")
        node = ite_term(p, x, y)
        phi = or_(eq(node, x), eq(node, y))
        assert is_valid(phi)

    def test_equation_guard_drives_ite(self):
        a, b = tvar("a"), tvar("b")
        x, y = tvar("x"), tvar("y")
        node = ite_term(eq(a, b), x, y)
        phi = implies(eq(a, b), eq(node, x))
        assert is_valid(phi)

    def test_forwarding_shape(self):
        """The paper's forwarding-vs-register-file read shape."""
        dest, src = tvar("Dest"), tvar("Src")
        result, rf_data = tvar("Result"), tvar("rf_data")
        forwarded = ite_term(eq(dest, src), result, rf_data)
        spec_read = ite_term(eq(dest, src), result, rf_data)
        assert is_valid(eq(forwarded, spec_read))


class TestBudget:
    def test_budget_exceeded_raises(self):
        # A formula with many independent atoms forces many splits.
        parts = [
            or_(eq(tvar(f"a{i}"), tvar(f"b{i}")), bvar(f"p{i}")) for i in range(12)
        ]
        phi = and_(*parts)
        with pytest.raises(BudgetExceeded):
            is_satisfiable(not_(phi), DecisionBudget(max_splits=3))

    def test_memory_rejected(self):
        phi = eq(read(tvar("m"), tvar("a")), tvar("d"))
        with pytest.raises(TypeError):
            is_valid(phi)
