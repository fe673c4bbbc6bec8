"""Metrics registry, snapshot persistence, and the tolerance comparator."""

import threading

import pytest

from repro.obs import (
    DEFAULT_TOLERANCES,
    MetricsRegistry,
    MetricsSnapshot,
    Tolerance,
    compare_snapshots,
)
from repro.obs.metrics import load_record, save_record


class TestRegistry:
    def test_inc_and_merge(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2)
        registry.merge({"a": 1, "b": 4})
        assert registry.values() == {"a": 4.0, "b": 4.0}

    def test_values_are_a_copy(self):
        registry = MetricsRegistry()
        registry.inc("a")
        values = registry.values()
        registry.inc("a")
        assert values == {"a": 1.0}

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.inc("n")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.values()["n"] == 4000.0


class TestRecordPersistence:
    def test_save_and_load_keep_the_rows_in_order(self, tmp_path):
        rows = [
            MetricsSnapshot({"sat.conflicts": float(n)}, {"config": str(n)})
            for n in (3, 1, 2)
        ]
        path = tmp_path / "nested" / "record.json"
        save_record(path, rows)
        assert load_record(path) == rows

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_finite_metric_is_refused(self, value, tmp_path):
        path = tmp_path / "record.json"
        path.write_text('{"rows": [{"metrics": {"sat.conflicts": %s}}]}'
                        % value)
        with pytest.raises(ValueError, match="must be a finite number"):
            load_record(path)


class TestTolerances:
    @pytest.mark.parametrize("field", ["rel", "abs"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_a_non_finite_tolerance_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"tolerance {field} must be"):
            Tolerance(**{field: value})

    def test_limit_combines_relative_and_absolute(self):
        tol = Tolerance(rel=0.5, abs=2.0)
        assert tol.limit(10.0) == pytest.approx(17.0)

    def test_default_rules_are_generous_for_timings_only(self):
        timing = [t for p, t in DEFAULT_TOLERANCES if p == "timings.*"][0]
        catch_all = [t for p, t in DEFAULT_TOLERANCES if p == "*"][0]
        assert timing.rel > 0 and timing.abs > 0
        assert catch_all.rel == 0 and catch_all.abs == 0

    def test_default_rules_gate_cpu_but_only_advise_on_wall(self):
        by_pattern = dict(DEFAULT_TOLERANCES)
        assert not by_pattern["cpu.*"].advisory
        assert not by_pattern["*cpu_seconds*"].advisory
        assert by_pattern["timings.*"].advisory
        assert by_pattern["*seconds*"].advisory
        # cpu.* must match before the advisory wall-clock catch-alls.
        patterns = [p for p, _ in DEFAULT_TOLERANCES]
        assert patterns.index("cpu.*") < patterns.index("*seconds*")

    def test_describe_mentions_advisory(self):
        assert "advisory" in Tolerance(rel=1.0, advisory=True).describe()
        assert "advisory" not in Tolerance(rel=1.0).describe()


class TestCompare:
    def snap(self, **metrics):
        return MetricsSnapshot(metrics={k: float(v) for k, v in metrics.items()})

    def test_identical_snapshots_pass(self):
        base = self.snap(**{"sat.conflicts": 7, "timings.total": 1.0})
        report = compare_snapshots(base, base)
        assert report.ok
        assert report.regressions == []

    def test_count_increase_is_a_regression(self):
        report = compare_snapshots(
            self.snap(**{"sat.conflicts": 7}), self.snap(**{"sat.conflicts": 8})
        )
        assert not report.ok
        assert [d.name for d in report.regressions] == ["sat.conflicts"]

    def test_decrease_is_never_a_regression(self):
        report = compare_snapshots(
            self.snap(**{"sat.conflicts": 7, "timings.total": 5.0}),
            self.snap(**{"sat.conflicts": 2, "timings.total": 0.1}),
        )
        assert report.ok

    def test_timing_noise_is_tolerated_by_default(self):
        report = compare_snapshots(
            self.snap(**{"timings.total": 0.010}),
            self.snap(**{"timings.total": 0.100}),
        )
        assert report.ok

    def test_first_matching_rule_wins(self):
        rules = [
            ("sat.*", Tolerance(rel=1.0)),
            ("*", Tolerance()),
        ]
        report = compare_snapshots(
            self.snap(**{"sat.conflicts": 10}),
            self.snap(**{"sat.conflicts": 19}),
            rules=rules,
        )
        assert report.ok

    def test_missing_metric_is_a_regression(self):
        report = compare_snapshots(
            self.snap(**{"sat.conflicts": 7}), self.snap()
        )
        assert not report.ok
        assert report.regressions[0].note == "metric disappeared"

    def test_new_metric_is_informational(self):
        report = compare_snapshots(
            self.snap(), self.snap(**{"sat.conflicts": 7})
        )
        assert report.ok
        assert report.deltas[0].note == "new metric"

    @pytest.mark.parametrize("field, before, after", [
        ("correct", True, False), ("suspected_entry", 72, None),
    ])
    def test_a_changed_outcome_is_a_regression(self, field, before, after):
        base = MetricsSnapshot({"sat.conflicts": 7.0}, {field: before})
        current = MetricsSnapshot({"sat.conflicts": 1.0}, {field: after})
        report = compare_snapshots(base, current)
        assert [delta.name for delta in report.regressions] == [field]
        assert report.regressions[0].note == "outcome changed"

    def test_render_and_to_dict(self):
        report = compare_snapshots(
            self.snap(**{"sat.conflicts": 7}), self.snap(**{"sat.conflicts": 9})
        )
        text = report.render()
        assert "1 regression(s)" in text
        assert "sat.conflicts" in text
        data = report.to_dict()
        assert data["ok"] is False
        assert data["regressions"] == ["sat.conflicts"]

    def test_advisory_exceedance_is_reported_but_never_fails(self):
        rules = [("timings.*", Tolerance(advisory=True)), ("*", Tolerance())]
        report = compare_snapshots(
            self.snap(**{"timings.total": 0.1}),
            self.snap(**{"timings.total": 100.0}),
            rules=rules,
        )
        assert report.ok
        assert report.regressions == []
        delta = [d for d in report.deltas if d.name == "timings.total"][0]
        assert "advisory" in delta.note

    def test_wall_clock_spike_passes_but_cpu_spike_fails_by_default(self):
        # The flaky-gate fix: a 100x wall-clock spike (scheduler noise on a
        # loaded runner) passes, while the same spike in CPU time fails.
        wall = compare_snapshots(
            self.snap(**{"timings.sat": 0.05}),
            self.snap(**{"timings.sat": 5.0}),
        )
        assert wall.ok
        cpu = compare_snapshots(
            self.snap(**{"cpu.sat": 0.05}),
            self.snap(**{"cpu.sat": 5.0}),
        )
        assert not cpu.ok
        assert [d.name for d in cpu.regressions] == ["cpu.sat"]
