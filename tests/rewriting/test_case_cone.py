"""Property tests of the rule-3 cone (``repro.rewriting.rules.case_cone``).

A case walk of rule 3 substitutes constants for the case variables and the
specification-side state for the seam, treating the preceding states as
opaque stops.  The engine adds the cone's frontier to that mapping as
further stops, so that each walk rebuilds only the nodes a key can reach.
On random DAGs over a few Boolean and term variables and guarded write
chains, with random keys and stops, the pruned walk must return the very
node the unpruned one does, and no frontier node may reach a key.
"""

from hypothesis import given, settings, strategies as st

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
    substitute,
    tvar,
    uf,
    write,
)
from repro.rewriting.rules import case_cone

# Leaves are interned as they are drawn: a node built at import would
# outlive a test that clears the intern table.
BOOLS = st.sampled_from(("p", "q", "r", "s")).map(bvar)
TERMS = st.sampled_from(("x", "y", "z")).map(tvar)


@st.composite
def terms(draw, states, depth):
    choice = draw(st.integers(0, 3 if depth else 0))
    if choice == 0:
        return draw(TERMS)
    if choice == 1:
        return uf("f", [draw(terms(states, depth - 1))])
    if choice == 2:
        return ite_term(
            draw(formulas(states, depth - 1)),
            draw(terms(states, depth - 1)),
            draw(terms(states, depth - 1)),
        )
    return read(draw(st.sampled_from(states)), draw(terms(states, depth - 1)))


@st.composite
def formulas(draw, states, depth):
    choice = draw(st.integers(0, 5 if depth else 1))
    if choice == 0:
        return draw(BOOLS)
    if choice == 1:
        return eq(draw(TERMS), draw(terms(states, depth)))
    if choice == 2:
        return not_(draw(formulas(states, depth - 1)))
    if choice == 3:
        return and_(*draw(st.lists(formulas(states, depth - 1),
                                   min_size=1, max_size=3)))
    if choice == 4:
        return or_(*draw(st.lists(formulas(states, depth - 1),
                                  min_size=1, max_size=3)))
    return ite_formula(
        draw(formulas(states, depth - 1)),
        draw(formulas(states, depth - 1)),
        draw(formulas(states, depth - 1)),
    )


@st.composite
def case_splits(draw):
    """Roots over a guarded write chain, a case mapping and its keys."""
    states = [tvar("M")]
    for _ in range(draw(st.integers(1, 4))):
        prev = states[-1]
        guard = draw(formulas(states, 1))
        update = write(prev, draw(TERMS),
                       draw(terms(states, 2)))
        states.append(ite_term(guard, update, prev))
    roots = draw(st.lists(
        st.one_of(terms(states, 3), formulas(states, 3)),
        min_size=1, max_size=3,
    ))
    case = {
        var: draw(st.sampled_from([TRUE, FALSE]))
        for var in draw(st.sets(BOOLS, max_size=3))
    }
    # A seam: one chain state moves to another, like the implementation's
    # reads moving to the specification-side state.
    seam = {}
    if draw(st.booleans()):
        old, new = draw(st.permutations(states))[:2]
        seam = {old: new}
    stops = {
        state: state
        for state in draw(st.sets(st.sampled_from(states)))
        if state not in seam
    }
    return roots, {**stops, **seam, **case}, [*case, *seam], list(stops)


def _reaches(node, keys, stops, memo):
    """Reference: a key is reachable from ``node`` without passing a stop."""
    if node in keys:
        return True
    if node in stops:
        return False
    if node not in memo:
        memo[node] = any(
            _reaches(child, keys, stops, memo) for child in node.children
        )
    return memo[node]


def _cone(roots, keys, stops):
    """Reference: every node above the stops that reaches a key."""
    memo, cone, stack = {}, set(), list(roots)
    while stack:
        node = stack.pop()
        if node in cone or not _reaches(node, keys, stops, memo):
            continue
        cone.add(node)
        if node not in keys:
            stack.extend(node.children)
    return cone


@settings(max_examples=150, deadline=None)
@given(case_splits())
def test_pruned_case_walk_returns_the_unpruned_node(split):
    roots, mapping, keys, stops = split
    _, frontier = case_cone(roots, keys, stops)
    pruned = {**frontier, **mapping}
    for root in roots:
        assert substitute(root, pruned) is substitute(root, mapping)


@settings(max_examples=150, deadline=None)
@given(case_splits())
def test_no_node_that_reaches_a_key_is_a_stop(split):
    roots, _, keys, stops = split
    size, frontier = case_cone(roots, keys, stops)
    memo = {}
    for node, image in frontier.items():
        assert image is node
        assert not _reaches(node, set(keys), set(stops), memo)
    assert size == len(_cone(roots, set(keys), set(stops)))
