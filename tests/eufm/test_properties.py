"""Property-based tests for the EUFM substrate (hypothesis).

A random-expression strategy drives three core invariants:

1. builder simplifications are sound (same value under every interpretation
   as a non-simplifying reference evaluation),
2. the printer/parser round-trip is the identity on interned nodes,
3. interning is canonical: structurally equal construction sequences yield
   the identical object.
"""

from hypothesis import given, settings, strategies as st

from repro.eufm import (
    FALSE,
    TRUE,
    Interpretation,
    and_,
    bvar,
    eq,
    evaluate,
    ite_formula,
    ite_term,
    node_count,
    not_,
    or_,
    parse,
    read,
    to_sexpr,
    tvar,
    uf,
    up,
    write,
)
from repro.eufm.evaluator import EvaluationPlan, evaluate_nodes

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
@given(formula_strategy(), st.integers(0, 10))
def test_round_trip_is_identity(phi, _seed):
    assert parse(to_sexpr(phi)) is phi


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
