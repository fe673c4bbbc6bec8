"""The ``python -m repro lint`` command, the one route to the soundness
findings."""

import json

import pytest

from repro import ProcessorConfig
from repro.__main__ import main as repro_main
from repro.analysis import RuleInstance, RuleSpec
from repro.analysis import rules
from repro.analysis.cli import main as lint_main
from repro.core import verify
from repro.core.verifier import METHODS
from repro.eufm import builder
from repro.processor.correctness import CRITERIA


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


class TestOneRoute:
    """``repro lint`` is the only route to the findings; the inline
    post-pass of ``verify()`` and its switches are gone."""

    @pytest.mark.parametrize("switch", ["analyze", "strict"])
    def test_verify_takes_no_audit_switch(self, switch):
        with pytest.raises(TypeError):
            verify(ProcessorConfig(2, 1), **{switch: True})

    @pytest.mark.parametrize("argv", [
        ["--rob", "2", "--width", "1", "--analyze"],
        ["--rob", "2", "--width", "1", "--strict"],
        ["campaign", "--journal", "unused.jsonl", "--grid", "2x1",
         "--analyze"],
    ], ids=["analyze", "strict", "campaign-analyze"])
    def test_retired_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


#: Every family under both methods and each criterion sound for it: the
#: branch families refuse ``case_split``.
AUDIT_CASES = [
    (family, method, criterion)
    for family in ("reg-reg", "branch", "mem", "mixed")
    for method in METHODS
    for criterion in CRITERIA
    if criterion == "disjunction" or family in ("reg-reg", "mem")
]


class TestAuditedEncoding:
    @pytest.mark.parametrize("family, method, criterion", AUDIT_CASES)
    def test_lint_audits_the_cnf_verify_decides(
        self, family, method, criterion, monkeypatch
    ):
        # Branch families decline the reduction, so verify() decides the
        # unreduced formula with the precise memory model; the audit must
        # encode it the same way, not with the conservative abstraction.
        from repro.analysis import pipeline

        config = ProcessorConfig(2, 1, family=family)
        encode, audited = pipeline.encode_validity, []
        monkeypatch.setattr(
            pipeline, "encode_validity",
            lambda *args, **kwargs: audited.append(encode(*args, **kwargs))
            or audited[-1],
        )
        decided = verify(
            config, method=method, criterion=criterion
        ).validity.encoded
        pipeline.analyze_config(config, method=method, criterion=criterion)
        (encoded,) = audited
        assert (encoded.stats.cnf_vars, encoded.stats.cnf_clauses) == (
            decided.stats.cnf_vars, decided.stats.cnf_clauses)
        assert encoded.cnf.clauses == decided.cnf.clauses
