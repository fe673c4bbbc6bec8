"""The ``python -m repro lint`` command and the strict verify mode."""

import json

import pytest

from repro import ProcessorConfig
from repro.__main__ import main as repro_main
from repro.analysis import ERROR, Diagnostic, RuleInstance, RuleSpec
from repro.analysis import rules
from repro.analysis.cli import main as lint_main
from repro.core import verify
from repro.errors import AnalysisError
from repro.eufm import builder


class TestLintCli:
    def test_default_small_run_is_clean(self, capsys):
        assert lint_main(["--grid", "2x1", "--method", "rewriting"]) == 0
        out = capsys.readouterr().out
        assert "Soundness findings" in out
        assert "rules.verified" in out

    def test_json_report_shape(self, capsys):
        assert lint_main(["--rules-only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The registry's five order-dependent critical pairs are warnings.
        assert payload["max_severity"] == "warning"
        assert payload["summary"] == {"error": 0, "warning": 5, "info": 10}
        assert {"rules.verified", "rules.measure-decreases",
                "rules.registry-summary"} <= {
            f["check"] for f in payload["findings"]}
        finding = payload["findings"][0]
        assert {"severity", "stage", "check", "subject", "message",
                "data"} <= set(finding)

    def test_dispatch_through_python_m_repro(self, capsys):
        assert repro_main(["lint", "--rules-only", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["error"] == 0

    def test_bad_grid_is_exit_2(self, capsys):
        assert lint_main(["--grid", "banana"]) == 2
        assert "lint failed" in capsys.readouterr().err

    def test_quiet_hides_info(self, capsys):
        assert lint_main(["--rules-only", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "rules.verified" not in out

    def test_no_rules_skips_registry(self, capsys):
        assert lint_main(["--grid", "2x1", "--method", "rewriting",
                          "--no-rules"]) == 0
        assert "rules.verified" not in capsys.readouterr().out

    def test_rules_only_with_no_rules_is_a_usage_error(self, capsys):
        # Together the two flags would audit nothing and report success.
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--rules-only", "--no-rules"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


def _unsound_spec():
    def build():
        m, a = builder.tvar("bad!m"), builder.tvar("bad!a")
        b, d = builder.tvar("bad!b"), builder.tvar("bad!d")
        lhs = builder.read(builder.write(m, a, d), b)
        return RuleInstance(
            lhs=lhs, rhs=d,
            pattern_vars=("bad!m", "bad!a", "bad!b", "bad!d"),
        )

    return RuleSpec(name="drop-address-check",
                    description="deliberately unsound", build=build)


class TestUnsoundRuleThroughCli:
    def test_injected_unsound_rule_fails_the_lint(self, capsys, monkeypatch):
        monkeypatch.setattr(rules, "REGISTRY", [_unsound_spec()])
        exit_code = lint_main(["--rules-only", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["max_severity"] == "error"
        unsound = [f for f in payload["findings"]
                   if f["check"] == "rules.unsound-rewrite"]
        assert unsound and unsound[0]["subject"] == "drop-address-check"
        # The witness interpretation is part of the machine-readable report.
        assert "term_values" in unsound[0]["data"]


class TestStrictVerify:
    def test_analyze_attaches_diagnostics(self):
        result = verify(ProcessorConfig(2, 1), analyze=True)
        assert result.correct
        assert result.diagnostics
        assert "analyze" in result.timings
        checks = {d.check for d in result.diagnostics}
        assert "rewrite.rules-applied" in checks

    def test_strict_clean_run_returns_normally(self):
        result = verify(ProcessorConfig(2, 1), strict=True)
        assert result.correct

    def test_strict_raises_on_error_findings(self, monkeypatch):
        from repro.analysis import pipeline

        def poisoned(result):
            return [Diagnostic(
                severity=ERROR, stage="polarity",
                check="polarity.p-var-in-general-position",
                subject="victim", message="planted for the test",
            )]

        monkeypatch.setattr(pipeline, "analyze_verification", poisoned)
        with pytest.raises(AnalysisError) as excinfo:
            verify(ProcessorConfig(2, 1), strict=True)
        assert excinfo.value.diagnostics
        assert "polarity.p-var-in-general-position" in str(excinfo.value)

    def test_strict_cli_exit_code_is_3(self, capsys, monkeypatch):
        from repro.analysis import pipeline

        monkeypatch.setattr(
            pipeline, "analyze_verification",
            lambda result: [Diagnostic(
                severity=ERROR, stage="cnf", check="cnf.zero-literal",
                message="planted",
            )],
        )
        assert repro_main(["--rob", "2", "--width", "1", "--strict"]) == 3
        err = capsys.readouterr().err
        assert "strict analysis failed" in err
        assert "cnf.zero-literal" in err
