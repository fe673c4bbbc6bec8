"""Tests for DAG traversal, collection, node counts and substitution."""

import pytest

from repro.eufm import (
    FALSE,
    TRUE,
    and_,
    bool_variables,
    bvar,
    eq,
    equations,
    interned_count,
    ite_term,
    iter_dag,
    node_count,
    not_,
    or_,
    rebuild,
    substitute,
    term_variables,
    tvar,
    uf,
    up,
)


def _sample_formula():
    x, y = tvar("x"), tvar("y")
    p = bvar("p")
    return and_(or_(p, eq(uf("f", [x]), y)), not_(up("q", [x, y])))


class TestIteration:
    def test_postorder_children_before_parents(self):
        root = _sample_formula()
        seen = set()
        for node in iter_dag(root):
            for child in node.children:
                assert child in seen
            seen.add(node)

    def test_each_node_once(self):
        root = _sample_formula()
        nodes = list(iter_dag(root))
        assert len(nodes) == len(set(nodes))

    def test_shared_subdag_counted_once(self):
        x = tvar("x")
        f1 = uf("f", [x])
        root = eq(uf("g", [f1, f1]), x)
        nodes = list(iter_dag(root))
        assert sum(1 for n in nodes if n is f1) == 1

    def test_multiple_roots(self):
        x, y = tvar("x"), tvar("y")
        nodes = list(iter_dag(x, y, x))
        assert set(nodes) == {x, y}


class TestCollectors:
    def test_term_variables(self):
        root = _sample_formula()
        names = {v.name for v in term_variables(root)}
        assert names == {"x", "y"}

    def test_bool_variables(self):
        root = _sample_formula()
        assert {v.name for v in bool_variables(root)} == {"p"}

    def test_equations(self):
        root = _sample_formula()
        assert len(equations(root)) == 1


class TestMetrics:
    def test_node_count_leaf(self):
        assert node_count(tvar("lonely")) == 1

    def test_node_count_chain(self):
        node = tvar("base")
        for _ in range(10):
            node = uf("f", [node])
        assert node_count(node) == 11

    def test_node_count_counts_shared_nodes_once(self):
        x = tvar("x")
        f1 = uf("f", [x])
        assert node_count(eq(uf("g", [f1, f1]), x)) == 4
        assert node_count(_sample_formula()) == 9


class TestSubstitution:
    def test_simple_var_replacement(self):
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        root = eq(uf("f", [x]), y)
        result = substitute(root, {x: z})
        assert result is eq(uf("f", [z]), y)

    def test_substitution_is_simultaneous(self):
        x, y = tvar("x"), tvar("y")
        root = uf("f", [x, y])
        result = substitute(root, {x: y, y: x})
        assert result is uf("f", [y, x])

    def test_substitution_triggers_simplification(self):
        x, y = tvar("x"), tvar("y")
        root = eq(x, y)
        assert substitute(root, {y: x}) is TRUE

    def test_formula_substitution(self):
        p, q = bvar("p"), bvar("q")
        root = and_(p, not_(q))
        assert substitute(root, {q: p}) is and_(p, not_(p))  # = FALSE
        assert substitute(root, {q: p}) is FALSE

    def test_sort_mismatch_rejected(self):
        with pytest.raises(TypeError):
            substitute(eq(tvar("x"), tvar("y")), {tvar("x"): bvar("p")})

    def test_deep_chain_no_recursion_error(self):
        node = tvar("base")
        for _ in range(5000):
            node = uf("f", [node])
        replaced = substitute(node, {tvar("base"): tvar("other")})
        assert node_count(replaced) == node_count(node)

    def test_cofactor(self):
        p = bvar("p")
        x, y = tvar("x"), tvar("y")
        node = ite_term(p, x, y)
        assert substitute(node, {p: TRUE}) is x
        assert substitute(node, {p: FALSE}) is y

    def test_nested_folding(self):
        p, q = bvar("p"), bvar("q")
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        node = ite_term(p, ite_term(q, x, y), z)
        assert substitute(node, {p: TRUE, q: FALSE}) is y

    def test_self_mapped_node_is_opaque(self):
        p = bvar("p")
        frozen = ite_term(p, tvar("x"), tvar("y"))
        node = uf("f", [frozen])
        reduced = substitute(node, {p: TRUE, frozen: frozen})
        assert reduced is node  # untouched because the ITE is opaque

    def test_root_replacement(self):
        x = tvar("x")
        assert substitute(x, {x: tvar("y")}) is tvar("y")

    def test_no_descent_into_mapped_node(self):
        deep = uf("f", [uf("f", [tvar("x")])])
        replacement = tvar("fresh")
        node = uf("g", [deep, tvar("y")])
        out = substitute(node, {deep: replacement})
        assert out is uf("g", [replacement, tvar("y")])

    def test_mapped_node_interns_nothing_beneath_it(self):
        x, y = tvar("x"), tvar("y")
        stop = uf("g", [uf("h", [x])])
        root = uf("f", [stop, x])
        expected = uf("f", [stop, y])
        before = interned_count()
        assert substitute(root, {stop: stop, x: y}) is expected
        assert interned_count() == before


class TestRebuild:
    def test_none_rebuilds_the_same_dag(self):
        root = _sample_formula()
        assert rebuild(root, lambda node, rebuilt: None) is root

    def test_visitor_sees_rebuilt_children(self):
        x, y = tvar("x"), tvar("y")
        root = eq(uf("f", [uf("g", [x])]), y)

        def visit(node, rebuilt):
            if node is x:
                return y
            if getattr(node, "symbol", None) == "g":
                return uf("h", [rebuilt[a] for a in node.args])
            return None

        assert rebuild(root, visit) is eq(uf("f", [uf("h", [y])]), y)

    def test_replacement_is_simplified_above(self):
        x, y = tvar("x"), tvar("y")
        root = and_(bvar("p"), eq(x, y))
        folded = rebuild(root, lambda node, _: x if node is y else None)
        assert folded is bvar("p")
