"""Exporter tests: span-tree rendering, JSON/Chrome round-trips, CSV."""

import pytest

from repro.obs import (
    MetricsSnapshot,
    Span,
    Tracer,
    metrics_to_csv,
    render_span_tree,
    trace_from_chrome,
    trace_from_json,
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


class TestJsonRoundTrip:
    def test_lossless(self):
        root = sample_tree()
        rebuilt = trace_from_json(trace_to_json(root))
        assert rebuilt.to_dict() == root.to_dict()


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

    def test_round_trip_restores_names_nesting_and_counters(self):
        root = sample_tree()
        roots = trace_from_chrome(trace_to_chrome(root))
        assert len(roots) == 1
        rebuilt = roots[0]
        assert [s.name for s in rebuilt.walk()] == [
            s.name for s in root.walk()
        ]
        assert rebuilt.find("sat").counters == {"sat.conflicts": 7.0}
        assert len(rebuilt.children) == 3

    def test_round_trip_handles_zero_duration_siblings(self):
        # Coincident zero-length intervals would be ambiguous under pure
        # containment; the embedded indices must disambiguate them.
        root = Span("root")
        root.children = [Span("a"), Span("b")]
        roots = trace_from_chrome(trace_to_chrome(root))
        assert [c.name for c in roots[0].children] == ["a", "b"]
        assert roots[0].children[0].children == []

    def test_trace_without_span_indices_is_refused(self):
        payload = {"traceEvents": [
            {"name": "outer", "ph": "X", "ts": 0, "dur": 100,
             "pid": 1, "tid": 1},
        ]}
        with pytest.raises(ValueError, match="'outer' has no spanIndex"):
            trace_from_chrome(payload)


class TestCsv:
    def test_sorted_rows_with_header(self):
        snapshot = MetricsSnapshot(metrics={"b": 2.0, "a": 1.5})
        assert metrics_to_csv(snapshot) == "metric,value\na,1.5\nb,2\n"
