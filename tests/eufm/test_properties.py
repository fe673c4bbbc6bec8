"""Property-based tests for the EUFM substrate (hypothesis).

A random-expression strategy drives three core invariants:

1. builder simplifications are sound (same value under every interpretation
   as a non-simplifying reference evaluation),
2. printing is injective: two interned nodes print alike exactly when
   they are the same node,
3. interning is canonical: structurally equal construction sequences yield
   the identical object,
4. ``and_``/``or_`` normalise exactly as the reference body below, and
   rule 3's build-free guard check agrees with building the guard,
5. every node's stamp is the uid of the newest Boolean variable beneath
   it, or 0 when there is none.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.eufm import (
    FALSE,
    TRUE,
    And,
    BoolVar,
    Formula,
    Interpretation,
    Not,
    Or,
    and_,
    bvar,
    eq,
    evaluate,
    ite_formula,
    ite_term,
    iter_dag,
    node_count,
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
from repro.eufm.evaluator import EvaluationPlan, evaluate_nodes
from repro.rewriting.rules import is_write_guard

TERM_NAMES = ["x", "y", "z", "w"]
BOOL_NAMES = ["p", "q", "r"]
MEM_NAMES = ["M0", "M1"]
UF_NAMES = ["f", "g"]
UP_NAMES = ["pr"]


def terms(draw, depth):
    return draw(term_strategy(depth))


@st.composite
def term_strategy(draw, depth=3):
    if depth == 0:
        return tvar(draw(st.sampled_from(TERM_NAMES)))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return tvar(draw(st.sampled_from(TERM_NAMES)))
    if choice == 1:
        symbol = draw(st.sampled_from(UF_NAMES))
        arity = draw(st.integers(1, 2))
        args = [draw(term_strategy(depth - 1)) for _ in range(arity)]
        return uf(symbol, args)
    if choice == 2:
        cond = draw(formula_strategy(depth - 1))
        return ite_term(
            cond, draw(term_strategy(depth - 1)), draw(term_strategy(depth - 1))
        )
    mem = draw(memory_strategy(depth - 1))
    return read(mem, draw(term_strategy(depth - 1)))


@st.composite
def memory_strategy(draw, depth=2):
    base = tvar(draw(st.sampled_from(MEM_NAMES)))
    mem = base
    for _ in range(draw(st.integers(0, depth))):
        mem = write(
            mem,
            draw(term_strategy(0)),
            draw(term_strategy(min(depth, 1))),
        )
    return mem


@st.composite
def formula_strategy(draw, depth=3):
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return bvar(draw(st.sampled_from(BOOL_NAMES)))
        if choice == 1:
            return draw(st.sampled_from([TRUE, FALSE]))
        return eq(draw(term_strategy(0)), draw(term_strategy(0)))
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return bvar(draw(st.sampled_from(BOOL_NAMES)))
    if choice == 1:
        return eq(draw(term_strategy(depth - 1)), draw(term_strategy(depth - 1)))
    if choice == 2:
        return not_(draw(formula_strategy(depth - 1)))
    if choice == 3:
        args = [
            draw(formula_strategy(depth - 1))
            for _ in range(draw(st.integers(1, 3)))
        ]
        return and_(*args)
    if choice == 4:
        args = [
            draw(formula_strategy(depth - 1))
            for _ in range(draw(st.integers(1, 3)))
        ]
        return or_(*args)
    return ite_formula(
        draw(formula_strategy(depth - 1)),
        draw(formula_strategy(depth - 1)),
        draw(formula_strategy(depth - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(formula_strategy(), formula_strategy())
def test_printing_is_injective(phi, psi):
    nodes = list(iter_dag(phi, psi))
    assert len({to_sexpr(node) for node in nodes}) == len(nodes)
    assert (to_sexpr(phi) == to_sexpr(psi)) == (phi is psi)


@st.composite
def built_dags(draw):
    """Nodes built one at a time, each of a drawn kind over earlier nodes
    of the right sort, so that any kind can sit over any other and new
    Boolean variables appear between composite nodes.  Children are
    drawn by age, newest first, so the newest stamp lands in every
    position."""
    formulas = [TRUE, FALSE, bvar(draw(st.sampled_from(BOOL_NAMES)))]
    terms = [tvar(name) for name in TERM_NAMES[:2]]

    def pick(pool):
        return pool[-1 - draw(st.integers(0, len(pool) - 1))]

    def picks(pool, max_size):
        return [pick(pool) for _ in range(draw(st.integers(0, max_size)))]

    for step in range(draw(st.integers(4, 24))):
        kind = draw(st.sampled_from([
            "bvar", "tvar", "uf", "up", "tite", "tite", "read", "write",
            "fite", "eq", "not", "and", "or",
        ]))
        if kind == "bvar":
            formulas.append(bvar(f"b{step}"))
        elif kind == "tvar":
            terms.append(tvar(f"t{step}"))
        elif kind == "uf":
            terms.append(uf(UF_NAMES[0], picks(terms, 3)))
        elif kind == "up":
            formulas.append(up(UP_NAMES[0], picks(terms, 3)))
        elif kind == "tite":
            terms.append(ite_term(pick(formulas), pick(terms), pick(terms)))
        elif kind == "read":
            terms.append(read(pick(terms), pick(terms)))
        elif kind == "write":
            terms.append(write(pick(terms), pick(terms), pick(terms)))
        elif kind == "fite":
            formulas.append(ite_formula(
                pick(formulas), pick(formulas), pick(formulas)))
        elif kind == "eq":
            formulas.append(eq(pick(terms), pick(terms)))
        elif kind == "not":
            formulas.append(not_(pick(formulas)))
        else:
            build = and_ if kind == "and" else or_
            formulas.append(build(*picks(formulas, 4)))
    return formulas + terms


@settings(max_examples=300, deadline=None)
@given(built_dags())
def test_stamp_is_the_newest_boolean_variable_beneath(nodes):
    for node in nodes:
        newest = max(
            (sub.uid for sub in iter_dag(node) if isinstance(sub, BoolVar)),
            default=0,
        )
        assert node.stamp == newest


@settings(max_examples=150, deadline=None)
@given(formula_strategy(), st.integers(0, 7))
def test_evaluation_is_deterministic(phi, seed):
    interp1 = Interpretation(domain_size=3, seed=seed)
    interp2 = Interpretation(domain_size=3, seed=seed)
    assert evaluate(phi, interp1) == evaluate(phi, interp2)


@settings(max_examples=100, deadline=None)
@given(formula_strategy(depth=2), formula_strategy(depth=2), st.integers(0, 5))
def test_and_or_semantics(phi, psi, seed):
    interp = Interpretation(domain_size=3, seed=seed)
    a, b = evaluate(phi, interp), evaluate(psi, interp)
    assert evaluate(and_(phi, psi), interp) == (a and b)
    assert evaluate(or_(phi, psi), interp) == (a or b)
    assert evaluate(not_(phi), interp) == (not a)


@settings(max_examples=100, deadline=None)
@given(formula_strategy(depth=2), st.integers(0, 5))
def test_excluded_middle_holds_after_simplification(phi, seed):
    interp = Interpretation(domain_size=3, seed=seed)
    assert evaluate(or_(phi, not_(phi)), interp) is True
    assert evaluate(and_(phi, not_(phi)), interp) is False


@settings(max_examples=100, deadline=None)
@given(term_strategy(), term_strategy(), st.integers(0, 5))
def test_equality_symmetry(t1, t2, seed):
    interp = Interpretation(domain_size=3, seed=seed)
    try:
        lhs = evaluate(eq(t1, t2), interp)
        rhs = evaluate(eq(t2, t1), interp)
    except Exception:
        # Ill-sorted random mixes (memory vs value) are allowed to fail,
        # but must fail consistently; an actual SortError is acceptable.
        return
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(memory_strategy(), st.integers(0, 5))
def test_collect_apply_round_trip_preserves_value(mem, seed):
    from repro.rewriting import decompose_chain

    chain = decompose_chain(mem)
    rebuilt = chain.base
    for item in chain.items:
        rebuilt = ite_term(
            item.context, write(rebuilt, item.addr, item.data), rebuilt
        )
    interp = Interpretation(domain_size=3, seed=seed)
    probe = tvar("probe_addr")
    assert evaluate(eq(read(mem, probe), read(rebuilt, probe)), interp) is True


@st.composite
def shared_dag_strategy(draw):
    """A formula whose DAG shares sub-DAGs: one drawn term and one
    read/write chain built over it each sit under several parents."""
    shared = draw(term_strategy(depth=2))
    chain = write(draw(memory_strategy()), shared, draw(term_strategy(1)))
    parts = [
        eq(read(chain, shared), shared),
        eq(read(write(chain, draw(term_strategy(1)), shared), shared),
           uf("f", [shared])),
        draw(formula_strategy(depth=2)),
    ]
    return ite_formula(draw(formula_strategy(1)), and_(*parts), or_(*parts))


@settings(max_examples=100, deadline=None)
@given(
    shared_dag_strategy(),
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 20)),
             min_size=5, max_size=5),
)
def test_one_plan_serves_every_interpretation(phi, draws):
    # The plan keeps no interpretation state: its passes, in any order,
    # equal a fresh evaluation under each interpretation.
    plan = EvaluationPlan(phi)
    for domain, seed in draws + draws[::-1]:
        fresh = evaluate_nodes(phi, Interpretation(domain, seed))
        assert plan.run(Interpretation(domain, seed)) == fresh


def reference_connective(cls, absorbing, neutral, operands):
    """The flatten/dedupe/sort body ``and_``/``or_`` had before they
    shared one uid-keyed body, stopped before interning: a node it
    returns as is, or ``(cls, args)`` for a node still to intern."""
    flat = []
    for operand in operands:
        if not isinstance(operand, Formula):
            raise TypeError("connective operands must be formulas")
        if isinstance(operand, cls):
            flat.extend(operand.args)
        else:
            flat.append(operand)
    unique = []
    seen = set()
    for operand in flat:
        if operand is absorbing:
            return absorbing
        if operand is neutral or operand in seen:
            continue
        seen.add(operand)
        unique.append(operand)
    for operand in unique:
        complement = operand.arg if isinstance(operand, Not) else None
        if complement is not None and complement in seen:
            return absorbing
    if not unique:
        return neutral
    if len(unique) == 1:
        return unique[0]
    unique.sort(key=lambda node: node.uid)
    return cls, tuple(unique)


@st.composite
def connective_operands(draw):
    """Operands drawn with replacement from a pool holding formulas,
    their negations, nested conjunctions and disjunctions of them and
    both constants; sometimes a term follows a FALSE."""
    pool = draw(st.lists(formula_strategy(depth=2), min_size=1, max_size=4))
    pool += [not_(phi) for phi in pool]
    pool += [and_(*pool[:3]), or_(*pool[-3:]), TRUE, FALSE]
    operands = draw(st.lists(st.sampled_from(pool), max_size=7))
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(operands)))
        operands[at:at] = [FALSE, tvar(draw(st.sampled_from(TERM_NAMES)))]
    return operands


@settings(max_examples=300, deadline=None)
@given(connective_operands())
def test_and_or_match_the_reference_body(operands):
    for build, cls, absorbing, neutral in (
        (and_, And, FALSE, TRUE),
        (or_, Or, TRUE, FALSE),
    ):
        try:
            expected = reference_connective(cls, absorbing, neutral, operands)
        except TypeError:
            with pytest.raises(TypeError, match="must be formulas"):
                build(*operands)
            continue
        result = build(*operands)
        if isinstance(expected, tuple):
            kind, args = expected
            assert type(result) is kind
            assert result.args == args
        else:
            assert result is expected


@st.composite
def guard_cases(draw):
    """``(cond, context, addr, src)``: a context (TRUE, one literal or a
    conjunction), two addresses that may be one node, and a condition
    that is the write guard or a near miss of it."""
    addr = tvar(draw(st.sampled_from(TERM_NAMES)))
    src = tvar(draw(st.sampled_from(TERM_NAMES)))
    literals = [bvar(name) for name in BOOL_NAMES] + [
        not_(bvar("p")), eq(tvar("x"), tvar("y")), eq(tvar("y"), tvar("z")),
    ]
    chosen = draw(st.lists(st.sampled_from(literals), max_size=3))
    context = draw(st.sampled_from([TRUE, *literals, and_(*chosen)]))
    match = eq(addr, src)
    other = eq(addr, tvar(draw(st.sampled_from(TERM_NAMES))))
    extra = draw(st.sampled_from(literals))
    fewer = [lit for lit in chosen if lit is not extra]
    cond = draw(st.sampled_from([
        and_(context, match),
        and_(context, other),
        and_(context, match, extra),
        and_(*fewer, match),
        and_(*fewer, draw(st.sampled_from(literals)), match),
        match,
        context,
        and_(context, not_(match)),
    ]))
    return cond, context, addr, src


@settings(max_examples=300, deadline=None)
@given(guard_cases())
def test_guard_check_agrees_with_building_the_guard(case):
    cond, context, addr, src = case
    expected = cond is and_(context, eq(addr, src))
    assert is_write_guard(cond, context, addr, src) is expected


def test_guard_check_on_the_named_shapes():
    # A fresh table fixes the uid order: p < q < x < y < Eq(x, y) < r.
    with run_scope():
        p, q, x, y = bvar("p"), bvar("q"), tvar("x"), tvar("y")
        equation = eq(x, y)
        r, z = bvar("r"), tvar("z")
        guards = [
            (and_(p, q), and_(p, q), x, x),        # addr is src: the context
            (and_(p, equation), p, x, y),          # one-literal context
            (equation, TRUE, y, x),                # context TRUE: the Eq alone
            (and_(p, q, equation), and_(p, q), x, y),
        ]
        for cond, context, addr, src in guards:
            assert is_write_guard(cond, context, addr, src)
            assert not is_write_guard(cond, context, addr, z)
        # The Eq sits where the context's q should be, and r follows it.
        assert not is_write_guard(and_(p, equation, r), and_(p, q), x, y)
