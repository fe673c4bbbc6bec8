"""Format tests for the S-expression printer: ``to_sexpr`` and the
depth-clipped ``clip_sexpr`` behind ``repr``."""

import pytest

from repro.eufm import (
    FALSE,
    TRUE,
    and_,
    bvar,
    eq,
    ite_formula,
    ite_term,
    not_,
    or_,
    read,
    run_scope,
    to_sexpr,
    tvar,
    uf,
    up,
    write,
)
from repro.eufm.printer import clip_sexpr


def _examples():
    x, y, m, a, d = tvar("x"), tvar("y"), tvar("m"), tvar("a"), tvar("d")
    p, q = bvar("p"), bvar("q")
    return [
        x,
        p,
        TRUE,
        FALSE,
        uf("f", [x, y]),
        uf("nullary", []),
        up("pred", [x]),
        ite_term(p, x, y),
        ite_formula(p, q, eq(x, y)),
        eq(uf("f", [x]), y),
        not_(p),
        and_(p, q, eq(x, y)),
        or_(p, not_(q)),
        read(write(m, a, d), tvar("b")),
        eq(write(m, a, d), m),
    ]


#: The text of each of ``_examples()``, built on an empty intern table so
#: that equation and connective operands fall in creation order.
_TEXTS = [
    "x",
    "$p",
    "true",
    "false",
    "(f x y)",
    "(nullary)",
    "($pred x)",
    "(ite $p x y)",
    "(ite $p $q (= x y))",
    "(= y (f x))",
    "(not $p)",
    "(and $p $q (= x y))",
    "(or $p (not $q))",
    "(read (write m a d) b)",
    "(= m (write m a d))",
]


def _height(node):
    """Applications on the longest root-to-leaf path: the least
    ``max_depth`` at which ``clip_sexpr`` elides nothing."""
    if node.kind in ("const", "tvar", "bvar"):
        return 0
    return 1 + max((_height(child) for child in node.children), default=0)


def _chain(depth):
    node = tvar("base")
    for _ in range(depth):
        node = uf("f", [node])
    return node


class TestPrinter:
    def test_simple_forms(self):
        assert to_sexpr(tvar("x")) == "x"
        assert to_sexpr(bvar("p")) == "$p"
        assert to_sexpr(TRUE) == "true"
        assert to_sexpr(eq(tvar("x"), tvar("y"))) in ("(= x y)", "(= y x)")

    def test_uf_form(self):
        assert to_sexpr(uf("f", [tvar("x")])) == "(f x)"

    def test_up_form(self):
        assert to_sexpr(up("pr", [tvar("x")])) == "($pr x)"

    def test_memory_form(self):
        m, a, d = tvar("m"), tvar("a"), tvar("d")
        assert to_sexpr(write(m, a, d)) == "(write m a d)"

    @pytest.mark.parametrize("index", range(len(_TEXTS)), ids=_TEXTS)
    def test_prints_the_exact_text(self, index):
        with run_scope():
            assert to_sexpr(_examples()[index]) == _TEXTS[index]

    def test_sorts_print_apart(self):
        x = tvar("x")
        assert to_sexpr(tvar("p")) != to_sexpr(bvar("p"))
        assert to_sexpr(uf("f", [x])) != to_sexpr(up("f", [x]))

    def test_deep_chain(self):
        assert to_sexpr(_chain(2000)) == "(f " * 2000 + "base" + ")" * 2000


class TestClip:
    # Each example is built inside the test: a node built at collection
    # time is stale once another test clears the intern table.
    @pytest.mark.parametrize(
        "index", range(len(_examples())),
        ids=[to_sexpr(node)[:40] for node in _examples()],
    )
    def test_deep_enough_clip_is_the_whole_expression(self, index):
        node = _examples()[index]
        for depth in range(_height(node), _height(node) + 3):
            assert clip_sexpr(node, depth) == to_sexpr(node)
        if _height(node):
            assert clip_sexpr(node, _height(node) - 1) != to_sexpr(node)

    def test_subexpressions_below_the_depth_print_as_dots(self):
        x = tvar("x")
        node = up("p", [uf("g", [x]), x, ite_term(bvar("q"), x, uf("h", []))])
        assert clip_sexpr(node, 0) == "..."
        assert clip_sexpr(node, 1) == "($p ... x ...)"
        assert clip_sexpr(node, 2) == "($p (g x) x (ite $q x ...))"
        assert clip_sexpr(node, 3) == "($p (g x) x (ite $q x (h)))"
        assert clip_sexpr(uf("nullary", []), 0) == "..."
        assert clip_sexpr(TRUE, 0) == "true"

    def test_repr_of_a_deep_chain_is_one_short_line(self):
        assert repr(_chain(2000)) == "<UFApp (f (f (f (f ...))))>"
