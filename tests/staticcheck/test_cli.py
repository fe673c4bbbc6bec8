"""The ``python -m repro staticcheck`` command-line interface."""

import json
import textwrap

from repro.__main__ import main as repro_main
from repro.staticcheck.cli import main

BAD = "def f():\n    raise RuntimeError('x')\n"
GOOD = "def f():\n    return 1\n"


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "good.py", GOOD)
        assert main([path]) == 0

    def test_violations_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.py", BAD)
        assert main([path, "--select", "RS001"]) == 1
        assert "invariant violation" in capsys.readouterr().err

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        path = _write(tmp_path, "good.py", GOOD)
        assert main([path, "--select", "RS999"]) == 2
        assert main([path, "--select", "RS007"]) == 2
        assert main(["/no/such/path"]) == 2
        assert main([path, "--baseline", str(tmp_path / "missing.json")]) == 2

    def test_dispatch_through_python_m_repro(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.py", BAD)
        code = repro_main(
            ["staticcheck", path, "--select", "RS001"]
        )
        assert code == 1


class TestJsonSchema:
    def test_json_report_matches_the_lint_schema(self, tmp_path, capsys):
        # Both CLIs wrap findings in AnalysisReport, so the top-level JSON
        # schema is identical: max_severity / summary / findings.
        path = _write(tmp_path, "bad.py", BAD)
        main([path, "--select", "RS001", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"max_severity", "summary", "findings"}
        assert report["max_severity"] == "error"
        assert report["summary"] == {"error": 1, "warning": 0, "info": 0}
        finding = report["findings"][0]
        assert set(finding) == {
            "severity", "stage", "check", "subject", "message", "data",
        }
        assert finding["stage"] == "staticcheck"
        assert finding["check"] == "RS001.builtin-raise"

    def test_lint_emits_the_same_shape(self, capsys):
        # Guard against schema drift between the two CLIs (satellite 6).
        from repro.analysis.cli import main as lint_main

        lint_main(["--grid", "2x1", "--method", "rewriting",
                   "--no-rules", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"max_severity", "summary", "findings"}

    def test_output_file_receives_the_report(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.py", BAD)
        out = tmp_path / "report.json"
        main([path, "--select", "RS001", "--json",
              "--output", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["max_severity"] == "error"


class TestSarifOutput:
    def test_sarif_flag_emits_sarif(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.py", BAD)
        main([path, "--select", "RS001", "--sarif"])
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"]


class TestBaselineFlow:
    def test_update_baseline_then_enforce(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.py", BAD)
        baseline = tmp_path / "baseline.json"
        assert main([path, "--select", "RS001",
                     "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        # The same violations are now baselined: exit 0.
        assert main([path, "--select", "RS001",
                     "--baseline", str(baseline)]) == 0
        assert "suppressed by the baseline" in capsys.readouterr().out
        # A *new* violation still fails.
        path2 = _write(tmp_path, "bad.py",
                       BAD + "\ndef g():\n    raise MemoryError('y')\n")
        assert main([path2, "--select", "RS001",
                     "--baseline", str(baseline)]) == 1

    def test_fixed_violation_reports_a_stale_entry(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.py", BAD)
        baseline = tmp_path / "baseline.json"
        main([path, "--select", "RS001",
              "--baseline", str(baseline), "--update-baseline"])
        _write(tmp_path, "bad.py", GOOD)  # fix the violation
        capsys.readouterr()
        assert main([path, "--select", "RS001",
                     "--baseline", str(baseline)]) == 0
        assert "stale" in capsys.readouterr().out.lower()

    def test_update_baseline_requires_baseline_path(self, tmp_path, capsys):
        path = _write(tmp_path, "good.py", GOOD)
        assert main([path, "--update-baseline"]) == 2


class TestListCheckers:
    def test_lists_all_codes_with_descriptions(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        for code in ("RS001", "RS002", "RS003", "RS004", "RS005", "RS006"):
            assert code in out
        assert "RS007" not in out
