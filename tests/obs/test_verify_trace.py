"""End-to-end trace integration: every verify() run must carry a span
tree covering every pipeline layer with nonzero work counters."""

import pytest

from repro import ProcessorConfig, verify
from repro.errors import BudgetExhausted
from repro.obs import NULL_TRACER, current_tracer, snapshot_from_result

CONFIG = ProcessorConfig(n_rob=4, issue_width=2)


@pytest.fixture(scope="module")
def traced_result():
    return verify(CONFIG)


class TestSpanTreeCoverage:
    def test_trace_attached_on_every_run(self, traced_result):
        assert traced_result.trace is not None
        assert verify(ProcessorConfig(n_rob=2, issue_width=1)).trace is not None

    def test_tree_covers_the_pipeline_phases(self, traced_result):
        root = traced_result.trace
        assert root.name == "verify"
        names = [child.name for child in root.children]
        assert names == ["simulate", "rewrite", "translate", "sat"]
        # The encoding stages nest under "translate".
        translate = root.find("translate")
        stages = [child.name for child in translate.children]
        assert stages == [
            "memory", "polarity", "uf_elim", "eij", "transitivity", "tseitin",
        ]

    def test_every_layer_reports_nonzero_counters(self, traced_result):
        counters = traced_result.trace.all_counters()
        for counter in (
            "tlsim.cycles",              # symbolic simulation
            "rewrite.entries_proved",    # rewriting engine
            "rewrite.rule.remove",
            "encode.fresh_term_vars",    # encoding pipeline
            "encode.p_vars",
            "encode.cnf_vars",           # CNF translation
            "tseitin.gate_vars",
            "sat.decisions",             # SAT solver
            "sat.propagations",
        ):
            assert counters.get(counter, 0) > 0, counter
        # Nodes built is an intern-table delta: positive on a fresh
        # process, but earlier tests may have pre-interned this
        # configuration's expressions (hash-consing is global).
        assert counters.get("tlsim.nodes_built", -1) >= 0


class TestDerivedTimings:
    def test_timings_are_a_view_of_the_span_tree(self, traced_result):
        root = traced_result.trace
        timings = traced_result.timings
        assert timings["total"] == root.wall_seconds
        for child in root.children:
            assert timings[child.name] == child.wall_seconds

    def test_phases_sum_to_at_most_total(self, traced_result):
        timings = traced_result.timings
        phases = sum(v for k, v in timings.items() if k != "total")
        assert phases <= timings["total"] + 1e-6

    def test_expected_phase_keys_present(self, traced_result):
        for phase in ("simulate", "rewrite", "translate", "sat", "total"):
            assert traced_result.timings[phase] > 0.0, phase

    def test_untraced_runs_still_get_timings(self):
        result = verify(ProcessorConfig(n_rob=2, issue_width=1))
        assert result.timings["total"] > 0.0
        assert "simulate" in result.timings


def _only_sat_span(result):
    """The run's single "sat" span, checked to be a direct child of
    "verify" with no other "sat" span anywhere in the tree."""
    spans = [span for span in result.trace.walk() if span.name == "sat"]
    assert len(spans) == 1
    (span,) = spans
    assert span in result.trace.children
    return span


def _assert_counters_match(span, sat_result):
    for field in (
        "decisions", "conflicts", "propagations", "restarts",
        "learned_clauses", "max_decision_level",
    ):
        assert span.counters.get(f"sat.{field}", 0) == getattr(
            sat_result, field
        ), field


class TestSatSpan:
    """``solve_cnf`` opens the one "sat" span, clause loading included."""

    def test_cold_run_has_one_sat_span(self):
        result = verify(CONFIG, certify=True)
        span = _only_sat_span(result)
        sat_result = result.validity.sat_result
        _assert_counters_match(span, sat_result)
        assert span.counters["sat.variables"] == (
            result.validity.encoded.cnf.num_vars
        )
        assert span.counters["sat.proof_steps"] == len(sat_result.proof)


class TestBudgetPathTimings:
    def test_budget_error_carries_span_derived_phases(self):
        with pytest.raises(BudgetExhausted) as info:
            verify(
                ProcessorConfig(n_rob=3, issue_width=3),
                method="positive_equality",
                max_conflicts=1,
            )
        timings = info.value.timings
        for phase in ("simulate", "translate", "sat", "total"):
            assert phase in timings, phase
        assert timings["total"] >= timings["simulate"]
        # The solver's own budget reports the "sat" span's seconds.
        assert info.value.seconds == timings["sat"]


class TestAmbientIsolation:
    def test_verify_restores_the_ambient_tracer(self):
        assert current_tracer() is NULL_TRACER
        verify(ProcessorConfig(n_rob=2, issue_width=1))
        assert current_tracer() is NULL_TRACER


class TestSnapshotFromTracedResult:
    def test_snapshot_includes_all_layers(self, traced_result):
        snapshot = snapshot_from_result(traced_result)
        metrics = snapshot.metrics
        assert metrics["timings.total"] > 0
        assert metrics["sat.decisions"] > 0
        assert metrics["rewrite.entries_proved"] > 0
        assert metrics["encode.cnf_vars"] > 0
        assert metrics["tlsim.cycles"] > 0
        assert snapshot.meta["method"] == "rewriting"
        assert snapshot.meta["correct"] is True

    def test_snapshot_is_the_span_tree_flattened(self, traced_result):
        # Phase times from the top-level spans, then every span counter
        # once, under its own name: no ``trace.*`` mirror, no copies.
        root = traced_result.trace
        expected = {"timings.total": root.wall_seconds,
                    "cpu.total": root.cpu_seconds}
        for child in root.children:
            expected[f"timings.{child.name}"] = child.wall_seconds
            expected[f"cpu.{child.name}"] = child.cpu_seconds
        expected.update(root.all_counters())
        metrics = snapshot_from_result(traced_result).metrics
        assert metrics == expected
        assert not [name for name in metrics if name.startswith("trace.")]
