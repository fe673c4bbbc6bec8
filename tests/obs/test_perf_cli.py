"""CLI tests for ``python -m repro perf`` and ``python -m repro trace``."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main
from repro.obs.cli import _parse_tolerance, perf_main, trace_main
from repro.obs.metrics import MetricsSnapshot, Tolerance


RUN = ["--rob", "2", "--width", "1"]
REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINE = REPO / "benchmarks" / "baselines" / "perf_smoke.json"
#: The ``--tol`` flags of the CI perf-smoke job's ``perf compare`` step.
CI_TOLERANCES = [
    "--tol", "cpu.*=rel:20+abs:2",
    "--tol", "timings.*=rel:20+abs:2+advisory",
]


class TestParseTolerance:
    def test_rel_only(self):
        pattern, tol = _parse_tolerance("timings.*=rel:0.5")
        assert pattern == "timings.*"
        assert tol == Tolerance(rel=0.5, abs=0.0)

    def test_rel_plus_abs(self):
        _, tol = _parse_tolerance("sat.*=rel:1+abs:10")
        assert tol == Tolerance(rel=1.0, abs=10.0)

    def test_advisory_flag(self):
        _, tol = _parse_tolerance("timings.*=rel:2+abs:1+advisory")
        assert tol == Tolerance(rel=2.0, abs=1.0, advisory=True)

    def test_advisory_alone(self):
        _, tol = _parse_tolerance("*seconds*=advisory")
        assert tol == Tolerance(advisory=True)

    @pytest.mark.parametrize(
        "bad", ["no-equals", "x=rel", "x=nope:1", "x=rel:1:abs"]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            _parse_tolerance(bad)


class TestPerfRecordCompare:
    def test_record_then_compare_is_clean(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert perf_main(["record", *RUN, "--out", str(base)]) == 0
        snapshot = MetricsSnapshot.load(base)
        assert snapshot.metrics["timings.total"] > 0
        assert snapshot.metrics["sat.decisions"] >= 0

        current = tmp_path / "current.json"
        assert perf_main(["record", *RUN, "--out", str(current)]) == 0
        code = perf_main(["compare", str(base), str(current)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no regressions" in out

    def test_perturbed_count_fails_the_gate(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        perf_main(["record", *RUN, "--out", str(base)])
        snapshot = MetricsSnapshot.load(base)
        worse = MetricsSnapshot(
            metrics=dict(snapshot.metrics), meta=dict(snapshot.meta)
        )
        worse.metrics["sat.decisions"] = snapshot.metrics["sat.decisions"] + 50
        current = tmp_path / "current.json"
        worse.save(current)
        assert perf_main(["compare", str(base), str(current)]) == 1
        assert "sat.decisions" in capsys.readouterr().out

    def test_tolerance_override_can_absorb_the_perturbation(self, tmp_path):
        base = tmp_path / "base.json"
        perf_main(["record", *RUN, "--out", str(base)])
        snapshot = MetricsSnapshot.load(base)
        snapshot.metrics["sat.decisions"] += 50
        current = tmp_path / "current.json"
        snapshot.save(current)
        code = perf_main(
            ["compare", str(base), str(current),
             "--tol", "sat.decisions=abs:100"]
        )
        assert code == 0

    def test_compare_json_output(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        perf_main(["record", *RUN, "--out", str(base)])
        capsys.readouterr()  # drain the record command's output
        code = perf_main(["compare", str(base), str(base), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_missing_snapshot_is_a_setup_error(self, tmp_path, capsys):
        code = perf_main(
            ["compare", str(tmp_path / "nope.json"), str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "perf compare error" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, problem", [
        ([], "must be a JSON object"),
        ({"metrics": [1, 2]}, "'metrics' must be a JSON object"),
        ({"metrics": {"a": None}}, "metric 'a' must be a number"),
    ])
    def test_malformed_snapshot_is_a_setup_error(
        self, payload, problem, tmp_path, capsys
    ):
        # Valid JSON of the wrong shape is a setup error (exit 2), never
        # a traceback that reads as a regression (exit 1).
        good = tmp_path / "good.json"
        assert perf_main(["record", *RUN, "--out", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        for pair in ([good, bad], [bad, good]):
            assert perf_main(["compare", *map(str, pair)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("perf compare error: ")
            assert problem in err

    def test_record_writes_trace_and_csv_sidecars(self, tmp_path):
        base = tmp_path / "base.json"
        trace = tmp_path / "trace.json"
        csv = tmp_path / "metrics.csv"
        code = perf_main(
            ["record", *RUN, "--out", str(base),
             "--trace-out", str(trace), "--csv-out", str(csv)]
        )
        assert code == 0
        chrome = json.loads(trace.read_text())
        assert chrome["traceEvents"][0]["name"] == "verify"
        assert csv.read_text().startswith("metric,value\n")


class TestRunIdentity:
    def test_snapshot_of_another_size_is_a_setup_error(self, tmp_path, capsys):
        # Every count of a 3x2 run is below the 4x2 baseline's, so only
        # the run check stops the gate from passing it.
        current = tmp_path / "current.json"
        assert perf_main(
            ["record", "--rob", "3", "--width", "2", "--out", str(current)]
        ) == 0
        capsys.readouterr()
        assert perf_main(["compare", str(BASELINE), str(current)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("perf compare error: ")
        assert "config 'OOO processor: 4-entry ROB" in err

    @pytest.mark.parametrize("flags, field", [
        (["--method", "positive_equality"], "method"),
        (["--criterion", "case_split"], "criterion"),
        (["--bug", "forward-wrong-source", "--entry", "2"], "bug"),
    ])
    def test_snapshot_of_another_check_is_a_setup_error(
        self, flags, field, tmp_path, capsys
    ):
        base, current = tmp_path / "base.json", tmp_path / "current.json"
        perf_main(["record", *RUN, "--out", str(base)])
        perf_main(["record", *RUN, *flags, "--out", str(current)])
        capsys.readouterr()
        assert perf_main(["compare", str(base), str(current)]) == 2
        err = capsys.readouterr().err
        assert f"({field} " in err and "config" not in err

    def test_missing_fields_read_as_their_defaults(self, tmp_path, capsys):
        base, current = tmp_path / "base.json", tmp_path / "current.json"
        perf_main(["record", *RUN, "--out", str(current)])
        snapshot = MetricsSnapshot.load(current)
        assert (snapshot.meta["criterion"], snapshot.meta["bug"]) == \
            ("disjunction", None)
        del snapshot.meta["criterion"], snapshot.meta["bug"]
        snapshot.save(base)
        assert perf_main(["compare", str(base), str(current)]) == 0


class TestTraceCommand:
    def test_tree_output(self, capsys):
        assert trace_main([*RUN]) == 0
        out = capsys.readouterr().out
        assert out.startswith("verify")
        assert "simulate" in out and "sat" in out

    def test_chrome_output_to_file(self, tmp_path):
        out = tmp_path / "t.json"
        assert trace_main([*RUN, "--format", "chrome", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"


class TestInvalidConfiguration:
    @pytest.mark.parametrize(
        "size",
        [["--rob", "0", "--width", "1"], ["--rob", "2", "--width", "3"]],
        ids=["empty-rob", "width-over-rob"],
    )
    @pytest.mark.parametrize("command", ["trace", "perf-record"])
    def test_is_a_setup_error(self, command, size, tmp_path, capsys):
        if command == "trace":
            code = trace_main(size)
        else:
            code = perf_main(
                ["record", *size, "--out", str(tmp_path / "x.json")]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "failed: ValueError: " in err
        assert len(err.strip().splitlines()) == 1


class TestMainDispatch:
    def test_main_routes_perf_and_trace(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert repro_main(["perf", "record", *RUN, "--out", str(base)]) == 0
        assert repro_main(["trace", *RUN]) == 0
        assert base.exists()
        assert "verify" in capsys.readouterr().out


class TestCommittedBaseline:
    def test_fresh_record_passes_the_ci_gate(self, tmp_path, capsys):
        # A fresh interpreter, as in CI: tlsim.nodes_built counts the
        # nodes a run interns, and earlier tests may have interned them.
        current = tmp_path / "current.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        record = subprocess.run(
            [sys.executable, "-m", "repro", "perf", "record",
             "--rob", "4", "--width", "2", "--out", str(current)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert record.returncode == 0, record.stderr
        code = perf_main(
            ["compare", str(BASELINE), str(current), *CI_TOLERANCES]
        )
        assert code == 0, capsys.readouterr().out
        assert set(MetricsSnapshot.load(current).metrics) == set(
            MetricsSnapshot.load(BASELINE).metrics
        )

    def test_fresh_record_has_the_baseline_counts(self, tmp_path):
        current = tmp_path / "current.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        record = subprocess.run(
            [sys.executable, "-m", "repro", "perf", "record",
             "--rob", "4", "--width", "2", "--out", str(current)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert record.returncode == 0, record.stderr

        def counts(path):
            return {
                name: value
                for name, value in MetricsSnapshot.load(path).metrics.items()
                if not name.startswith(("cpu.", "timings."))
            }

        assert counts(current) == counts(BASELINE)
