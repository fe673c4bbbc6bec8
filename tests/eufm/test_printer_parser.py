"""Round-trip and format tests for the S-expression printer and parser."""

import pytest

from repro.eufm import (
    FALSE,
    TRUE,
    ParseError,
    and_,
    bvar,
    eq,
    ite_formula,
    ite_term,
    not_,
    or_,
    parse,
    pretty,
    read,
    to_sexpr,
    tvar,
    uf,
    up,
    write,
)


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

    def test_pretty_fits_on_one_line_when_short(self):
        node = eq(tvar("x"), tvar("y"))
        assert "\n" not in pretty(node)

    def test_pretty_wraps_long_expressions(self):
        node = and_(*[eq(tvar(f"a{i}"), tvar(f"b{i}")) for i in range(20)])
        assert "\n" in pretty(node, max_width=40)


class TestRoundTrip:
    # Each example is built inside the test: a node built at collection
    # time is stale once another test clears the intern table.
    @pytest.mark.parametrize(
        "index", range(len(_examples())),
        ids=[to_sexpr(node)[:40] for node in _examples()],
    )
    def test_parse_inverts_print(self, index):
        node = _examples()[index]
        assert parse(to_sexpr(node)) is node

    def test_whitespace_insensitive(self):
        assert parse("(=   x\n  y)") is eq(tvar("x"), tvar("y"))

    def test_deep_expression_round_trip(self):
        node = tvar("base")
        for _ in range(2000):
            node = uf("f", [node])
        assert parse(to_sexpr(node)) is node


class TestParserErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(",
            ")",
            "(= x)",
            "(ite $p x $q)",
            "(not x)",
            "(and x $p)",
            "($ x)",
            "(= x y) extra",
            "()",
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_ite_requires_formula_condition(self):
        with pytest.raises(ParseError):
            parse("(ite x y z)")
