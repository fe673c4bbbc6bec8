"""Span tracer unit tests: nesting, counters, threads, and the null path."""

import threading

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)


class TestSpanTree:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        root = tracer.root
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner", "sibling"]
        assert [c.name for c in root.children[0].children] == ["leaf"]

    def test_durations_are_recorded_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
        root = tracer.root
        assert root.wall_seconds > 0.0
        assert root.cpu_seconds >= 0.0
        inner = root.children[0]
        assert 0.0 <= inner.wall_seconds
        assert root.start_offset <= inner.start_offset

    def test_counters_accumulate_on_current_span(self):
        tracer = Tracer()
        with tracer.span("phase") as span:
            tracer.add("work.items", 3)
            tracer.add("work.items", 2)
            tracer.set("work.gauge", 7.5)
            span.add("direct")
        assert tracer.root.counters == {
            "work.items": 5.0,
            "work.gauge": 7.5,
            "direct": 1.0,
        }

    def test_add_outside_any_span_is_dropped(self):
        tracer = Tracer()
        tracer.add("orphan", 1)
        assert tracer.roots == []
        assert tracer.current() is None

    def test_walk_find_total_and_all_counters(self):
        root = Span("a")
        child = Span("b")
        grand = Span("b")
        root.children.append(child)
        child.children.append(grand)
        child.add("n", 2)
        grand.add("n", 3)
        assert [s.name for s in root.walk()] == ["a", "b", "b"]
        assert root.find("b") is child
        assert root.find("missing") is None
        assert root.total("n") == 5.0
        assert root.all_counters() == {"n": 5.0}

    def test_to_dict_holds_the_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.add("k", 4)
        data = tracer.root.to_dict()
        assert data["name"] == "outer"
        assert data["children"][0]["name"] == "inner"
        assert data["children"][0]["counters"] == {"k": 4.0}
        assert data["children"][0]["children"] == []


class TestThreadSafety:
    def test_worker_thread_spans_do_not_corrupt_nesting(self):
        tracer = Tracer()
        errors = []

        def worker(tag):
            try:
                for _ in range(50):
                    with tracer.span(f"w{tag}"):
                        tracer.add("ticks", 1)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with tracer.span("main"):
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        # The open-span stack is thread-local: worker spans become their
        # own roots instead of attaching under another thread's span.
        assert tracer.roots[0].name == "main"
        worker_roots = [s for s in tracer.roots if s.name.startswith("w")]
        assert len(worker_roots) == 200
        assert sum(s.counters.get("ticks", 0) for s in worker_roots) == 200


class TestAmbientTracer:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            inner = Tracer()
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER


class TestNullTracer:
    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("anything") as span:
            span.add("x", 1)
            span.set("y", 2)
            tracer.add("z", 3)
        assert tracer.roots == []
        assert tracer.root is None
        assert tracer.current() is None
        assert span.counters == {}

    def test_null_span_is_a_shared_singleton(self):
        tracer = NullTracer()
        with tracer.span("a") as one:
            pass
        with tracer.span("b") as two:
            pass
        assert one is two
