"""Unit tests for the EUFM smart constructors."""

import pytest

from repro.eufm import (
    FALSE,
    TRUE,
    And,
    Eq,
    FormulaITE,
    Not,
    Or,
    TermITE,
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
    write,
    xor,
)


class TestInterning:
    def test_term_vars_are_interned(self):
        assert tvar("x") is tvar("x")

    def test_distinct_names_distinct_nodes(self):
        assert tvar("x") is not tvar("y")

    def test_bool_vars_are_interned(self):
        assert bvar("p") is bvar("p")

    def test_term_and_bool_namespaces_are_separate(self):
        assert tvar("v") is not bvar("v")

    def test_uf_applications_are_interned(self):
        a = uf("f", [tvar("x"), tvar("y")])
        b = uf("f", [tvar("x"), tvar("y")])
        assert a is b

    def test_uf_differs_by_symbol(self):
        assert uf("f", [tvar("x")]) is not uf("g", [tvar("x")])

    def test_kinds_over_the_same_children_stay_distinct(self):
        # The intern key holds the children's uids, so the kind tag alone
        # tells these apart.
        x, y = tvar("x"), tvar("y")
        p, q = bvar("p"), bvar("q")
        pairs = [
            (uf("f", [x, y]), up("f", [x, y])),
            (and_(p, q), or_(p, q)),
            (eq(x, y), read(x, y)),
        ]
        for one, other in pairs:
            assert one is not other
            assert one.kind != other.kind
            assert one.children == other.children

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            tvar("")
        with pytest.raises(ValueError):
            bvar("")


class TestEq:
    def test_reflexive_equation_is_true(self):
        assert eq(tvar("x"), tvar("x")) is TRUE

    def test_equation_is_symmetric_by_canonical_order(self):
        assert eq(tvar("x"), tvar("y")) is eq(tvar("y"), tvar("x"))

    def test_equation_on_non_term_rejected(self):
        with pytest.raises(TypeError):
            eq(bvar("p"), tvar("x"))


class TestNot:
    def test_double_negation(self):
        p = bvar("p")
        assert not_(not_(p)) is p

    def test_constants(self):
        assert not_(TRUE) is FALSE
        assert not_(FALSE) is TRUE


class TestAndOr:
    def test_and_identity(self):
        p = bvar("p")
        assert and_(p, TRUE) is p

    def test_and_domination(self):
        assert and_(bvar("p"), FALSE) is FALSE

    def test_and_empty_is_true(self):
        assert and_() is TRUE

    def test_and_dedup(self):
        p = bvar("p")
        assert and_(p, p) is p

    def test_and_complement(self):
        p = bvar("p")
        assert and_(p, not_(p)) is FALSE

    def test_and_flattens(self):
        p, q, r = bvar("p"), bvar("q"), bvar("r")
        assert and_(and_(p, q), r) is and_(p, q, r)

    def test_and_commutative_by_canonical_order(self):
        p, q = bvar("p"), bvar("q")
        assert and_(p, q) is and_(q, p)

    def test_or_identity(self):
        p = bvar("p")
        assert or_(p, FALSE) is p

    def test_or_domination(self):
        assert or_(bvar("p"), TRUE) is TRUE

    def test_or_empty_is_false(self):
        assert or_() is FALSE

    def test_or_complement(self):
        p = bvar("p")
        assert or_(p, not_(p)) is TRUE

    def test_or_flattens_and_dedups(self):
        p, q = bvar("p"), bvar("q")
        assert or_(or_(p, q), q, p) is or_(p, q)


class TestIte:
    def test_term_ite_constant_condition(self):
        x, y = tvar("x"), tvar("y")
        assert ite_term(TRUE, x, y) is x
        assert ite_term(FALSE, x, y) is y

    def test_term_ite_same_branches(self):
        x = tvar("x")
        assert ite_term(bvar("p"), x, x) is x

    def test_term_ite_nested_same_condition_then(self):
        p = bvar("p")
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        inner = ite_term(p, x, y)
        outer = ite_term(p, inner, z)
        assert outer is ite_term(p, x, z)

    def test_term_ite_nested_same_condition_else(self):
        p = bvar("p")
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        inner = ite_term(p, x, y)
        outer = ite_term(p, z, inner)
        assert outer is ite_term(p, z, y)

    def test_formula_ite_to_connectives(self):
        p, q = bvar("p"), bvar("q")
        assert ite_formula(p, TRUE, FALSE) is p
        assert ite_formula(p, FALSE, TRUE) is not_(p)
        assert ite_formula(p, q, FALSE) is and_(p, q)
        assert ite_formula(p, TRUE, q) is or_(p, q)

    def test_formula_ite_remains_when_no_simplification(self):
        p, q, r = bvar("p"), bvar("q"), bvar("r")
        node = ite_formula(p, q, r)
        assert isinstance(node, FormulaITE)

    def test_mixed_sorts_rejected(self):
        with pytest.raises(TypeError):
            ite_term(bvar("p"), tvar("x"), bvar("q"))


class TestDerivedConnectives:
    def test_implies(self):
        p, q = bvar("p"), bvar("q")
        assert implies(p, q) is or_(not_(p), q)

    def test_implies_true_antecedent(self):
        q = bvar("q")
        assert implies(TRUE, q) is q

    def test_iff_with_constants(self):
        p = bvar("p")
        assert iff(p, TRUE) is p
        assert iff(p, FALSE) is not_(p)

    def test_xor_with_constants(self):
        p = bvar("p")
        assert xor(p, FALSE) is p
        assert xor(p, TRUE) is not_(p)


class TestMemoryConstructors:
    def test_read_of_same_address_write_forwards(self):
        m, a, d = tvar("m"), tvar("a"), tvar("d")
        assert read(write(m, a, d), a) is d

    def test_read_of_different_address_stays(self):
        m, a, b, d = tvar("m"), tvar("a"), tvar("b"), tvar("d")
        node = read(write(m, a, d), b)
        assert node.kind == "read"

    def test_write_requires_terms(self):
        with pytest.raises(TypeError):
            write(tvar("m"), bvar("p"), tvar("d"))


class TestSortChecks:
    """The builders are the one place an ill-sorted expression is refused:
    every operand of the wrong sort raises ``TypeError``."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: uf("f", [bvar("p")]), "argument of 'f' must be a term"),
            (lambda: up("pr", [bvar("p")]), "argument of 'pr' must be a term"),
            (lambda: ite_term(tvar("x"), tvar("y"), tvar("z")),
             "ITE condition must be a formula"),
            (lambda: ite_formula(bvar("p"), bvar("q"), tvar("x")),
             "formula ITE operands must be formulas"),
            (lambda: eq(tvar("x"), bvar("p")),
             "equation operands must be terms"),
            (lambda: not_(tvar("x")), "negation operand must be a formula"),
            (lambda: and_(tvar("x"), bvar("p")),
             "connective operands must be formulas"),
            (lambda: or_(bvar("p"), tvar("x")),
             "connective operands must be formulas"),
            (lambda: read(tvar("m"), bvar("p")), "read operands must be terms"),
            (lambda: write(tvar("m"), tvar("a"), bvar("p")),
             "write operands must be terms"),
        ],
        ids=["(f $p)", "($pr $p)", "(ite x y z)", "(ite $p $q x)",
             "(= x $p)", "(not x)", "(and x $p)", "(or $p x)",
             "(read m $p)", "(write m a $p)"],
    )
    def test_ill_sorted_operand_is_refused(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()
