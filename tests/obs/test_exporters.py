"""Exporter tests: the span tree as text, as JSON and as Chrome trace
events."""

import json

from repro.obs import (
    Span,
    Tracer,
    render_span_tree,
    trace_to_chrome,
    trace_to_json,
)


def sample_tree():
    tracer = Tracer()
    with tracer.span("verify"):
        with tracer.span("simulate"):
            tracer.add("tlsim.cycles", 13)
        with tracer.span("translate"):
            with tracer.span("tseitin"):
                tracer.add("tseitin.gate_vars", 13)
        with tracer.span("sat"):
            tracer.add("sat.conflicts", 7)
    return tracer.root


class TestRenderSpanTree:
    def test_renders_names_indentation_and_counters(self):
        text = render_span_tree(sample_tree())
        lines = text.splitlines()
        assert lines[0].startswith("verify")
        assert lines[1].startswith("  simulate")
        assert lines[3].startswith("    tseitin")
        assert "tlsim.cycles=13" in text
        assert "wall" in lines[0] and "cpu" in lines[0]

    def test_counters_can_be_suppressed(self):
        text = render_span_tree(sample_tree(), counters=False)
        assert "tlsim.cycles" not in text


class TestJson:
    def test_writes_the_whole_tree(self):
        root = sample_tree()
        assert json.loads(trace_to_json(root)) == root.to_dict()


class TestChromeTrace:
    def test_event_shape(self):
        root = sample_tree()
        payload = trace_to_chrome(root)
        events = payload["traceEvents"]
        assert len(events) == 5
        assert all(ev["ph"] == "X" for ev in events)
        assert events[0]["name"] == "verify"
        assert events[0]["ts"] == 0.0
        # Microsecond durations: the root lasts at least as long as a child.
        assert events[0]["dur"] >= events[1]["dur"]
        sat = [ev for ev in events if ev["name"] == "sat"][0]
        assert sat["args"]["counters"] == {"sat.conflicts": 7.0}

    def test_links_tell_zero_duration_siblings_apart(self):
        # Coincident zero-length intervals are ambiguous under
        # containment; the links say which span is whose child.
        root = Span("root")
        root.children = [Span("a"), Span("b")]
        root.children[0].children = [Span("c")]
        events = trace_to_chrome(root)["traceEvents"]
        assert [(ev["name"], ev["args"]["spanIndex"],
                 ev["args"]["parentIndex"]) for ev in events] == [
            ("root", 0, -1), ("a", 1, 0), ("c", 2, 1), ("b", 3, 0),
        ]
        assert {ev["dur"] for ev in events} == {0.0}
