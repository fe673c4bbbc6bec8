"""Property tests over randomly shaped span trees.

Two invariants: a span's wall time dominates the sum of its children's
(children are strictly nested under a monotonic clock), and the Chrome
trace-event export names every span, its counters and its parent.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import Tracer, trace_to_chrome

#: (name, [children]) recursive tree shapes.
_names = st.sampled_from(["verify", "simulate", "translate", "sat", "x"])
_trees = st.recursive(
    st.tuples(_names, st.just([])),
    lambda children: st.tuples(_names, st.lists(children, max_size=3)),
    max_leaves=10,
)

#: float rounding slack when subtracting two perf_counter readings.
_EPS = 1e-6


def _execute(tracer, node):
    name, children = node
    with tracer.span(name) as span:
        span.add("opened", 1)
        for child in children:
            _execute(tracer, child)


@settings(max_examples=100, deadline=None)
@given(_trees)
def test_span_wall_dominates_children(tree):
    tracer = Tracer()
    _execute(tracer, tree)
    for span in tracer.root.walk():
        children_wall = sum(child.wall_seconds for child in span.children)
        assert span.wall_seconds + _EPS >= children_wall


@settings(max_examples=100, deadline=None)
@given(_trees)
def test_chrome_events_link_each_span_to_its_parent(tree):
    tracer = Tracer()
    _execute(tracer, tree)
    events = trace_to_chrome(tracer.root)["traceEvents"]
    spans = list(tracer.root.walk())
    position = {id(span): index for index, span in enumerate(spans)}
    parent = {id(child): position[id(span)]
              for span in spans for child in span.children}
    assert len(events) == len(spans)
    for index, (event, span) in enumerate(zip(events, spans)):
        assert event["name"] == span.name
        assert event["args"]["spanIndex"] == index
        assert event["args"]["parentIndex"] == parent.get(id(span), -1)
        assert event["args"]["counters"] == {"opened": 1.0}
