"""Property tests of the rule-3 cone (``repro.rewriting.rules.case_cone``).

A case walk of rule 3 substitutes constants for the case variables and the
specification-side state for the seam, treating the preceding states as
opaque stops.  The engine adds the cone's frontier to that mapping as
further stops, so that each walk rebuilds only the nodes a key can reach.
On random DAGs over a few Boolean and term variables and guarded write
chains, with random keys and stops, the pruned walk must return the very
node the unpruned one does, and no frontier node may reach a key.

The cone walk itself skips every node whose stamp and uid show that it
cannot reach a key.  It must find the same cone and the same frontier, in
the same order, as the walk that descends everywhere (kept below as a
reference), on random DAGs and on every entry of small designs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.eufm import (
    FALSE,
    TRUE,
    and_,
    bvar,
    eq,
    ite_formula,
    ite_term,
    iter_dag,
    not_,
    or_,
    read,
    substitute,
    tvar,
    uf,
    write,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.processor import Bug, ProcessorConfig, run_diagram
from repro.processor.families import FAMILIES
from repro.rewriting import engine, rewrite_diagram
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


def unpruned_case_cone(roots, keys, stops):
    """``case_cone`` as it was before the walk pruned by stamp: it
    descends into every node but the keys and the stops.  Returns the
    cone's size, its frontier and the nodes visited."""
    key_uids = {node.uid for node in keys}
    bounds = key_uids | {node.uid for node in stops}
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen[node.uid] = node
        if node.uid not in bounds:
            stack.extend(node.children)
    cone = key_uids.intersection(seen)
    inner = []
    for uid in sorted(seen):
        if uid in bounds:
            continue
        node = seen[uid]
        for child in node.children:
            if child.uid in cone:
                cone.add(uid)
                inner.append(node)
                break
    frontier = {root: root for root in roots if root.uid not in cone}
    for node in inner:
        for child in node.children:
            if child.uid not in cone:
                frontier[child] = child
    return len(cone), frontier, len(seen)


@st.composite
def cone_walks(draw):
    """A case split's roots, keys and stops, plus keys and stops drawn
    from anywhere in the roots' DAG: Boolean variables, inner nodes of
    either sort and leaves."""
    roots, _, keys, stops = draw(case_splits())
    nodes = sorted(iter_dag(*roots), key=lambda node: node.uid)
    keys = keys + draw(st.lists(st.sampled_from(nodes), max_size=3))
    stops = stops + draw(st.lists(st.sampled_from(nodes), max_size=2))
    return roots, keys, stops


def _counted_cone(roots, keys, stops):
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("rewrite"):
        size, frontier = case_cone(roots, keys, stops)
    counters = tracer.root.counters
    assert counters["rewrite.cone_nodes"] == size
    return size, frontier, counters["rewrite.cone_visits"]


@settings(max_examples=300, deadline=None)
@given(cone_walks())
def test_pruned_walk_finds_the_unpruned_cone_and_frontier(walk):
    roots, keys, stops = walk
    size, frontier, visits = _counted_cone(roots, keys, stops)
    ref_size, ref_frontier, ref_visits = unpruned_case_cone(
        roots, keys, stops
    )
    assert size == ref_size
    assert list(frontier.items()) == list(ref_frontier.items())
    assert visits <= ref_visits


SIZES = ((1, 1), (2, 2), (3, 1), (4, 2), (5, 3))


def _designs(family, kind):
    """The designs of ``family`` at each of ``SIZES``: correct, or with
    ``kind`` planted at each entry where it changes the design."""
    for n_rob, width in SIZES:
        config = ProcessorConfig(n_rob, width, family=family)
        if kind is None:
            yield config, None
            continue
        for entry in range(1, n_rob + width + 1):
            bug = Bug(kind, entry=entry)
            try:
                bug.check(config)
            except ValueError:
                continue
            yield config, bug


@pytest.mark.parametrize("family, kind", [
    (family, kind)
    for family in ("reg-reg", "mem")
    for kind in (None, *FAMILIES[family].bug_kinds)
])
def test_pruned_walk_matches_on_every_entry_of_a_design(
    family, kind, monkeypatch
):
    walks = []

    def both(roots, keys, stops):
        size, frontier = case_cone(roots, keys, stops)
        walks.append((
            (size, list(frontier.items())),
            unpruned_case_cone(roots, keys, stops),
        ))
        return size, frontier

    monkeypatch.setattr(engine, "case_cone", both)
    # No run_scope(): each design reuses the variables the ones before it
    # interned, so the walks also meet uid orders a fresh run never has.
    for config, bug in _designs(family, kind):
        rewrite_diagram(run_diagram(config, bug=bug))
    if kind is None:
        # One walk per entry and chain; a bug flagged before rule 3
        # leaves fewer.
        chains = 2 if family == "mem" else 1
        assert len(walks) == chains * sum(n for n, _ in SIZES)
    for (size, frontier), (ref_size, ref_frontier, _) in walks:
        assert size == ref_size
        assert frontier == list(ref_frontier.items())
