"""Engine mechanics: loading, noqa, select/ignore, baselines, SARIF."""

import json
import os

import pytest

from repro.errors import ReproError
from repro.staticcheck.baseline import (
    Baseline,
    apply_baseline,
    fingerprint,
    fingerprints,
)
from repro.staticcheck.engine import (
    all_checkers,
    checker_codes,
    collect_files,
    resolve_codes,
    run_project,
)
from repro.staticcheck.sarif import to_sarif

BAD_RS001 = "def f():\n    raise RuntimeError('x')\n"


class TestRegistry:
    def test_all_six_checkers_registered(self):
        assert checker_codes() == [
            "RS001", "RS002", "RS003", "RS004", "RS005", "RS006",
        ]
        specs = {spec.code: spec for spec in all_checkers()}
        for code in ("RS001", "RS002", "RS003", "RS004", "RS005", "RS006"):
            assert specs[code].run_file is not None

    def test_resolve_codes_select_ignore_and_unknown(self):
        assert resolve_codes(["rs001", "RS002"]) == {"RS001", "RS002"}
        assert "RS003" not in resolve_codes(ignore=["RS003"])
        with pytest.raises(ReproError):
            resolve_codes(["RS999"])
        with pytest.raises(ReproError):
            resolve_codes(ignore=["RS999"])


class TestLoading:
    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        findings = run_project([str(path)])
        assert [d.check for d in findings] == ["RS000.parse-error"]
        assert findings[0].is_error

    def test_missing_path_raises_repro_error(self):
        with pytest.raises(ReproError):
            collect_files(["/no/such/path/anywhere"])

    def test_collect_files_skips_caches_and_hidden_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-311.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python")
        files = collect_files([str(tmp_path)])
        assert files == [str(tmp_path / "pkg" / "a.py")]


class TestNoqa:
    def test_noqa_with_code_suppresses_one_site(self, tmp_path):
        path = tmp_path / "f.py"
        path.write_text(
            "def f():\n    raise RuntimeError('x')  # noqa: RS001\n"
        )
        assert run_project([str(path)], select=["RS001"]) == []

    def test_bare_noqa_suppresses_everything_on_the_line(self, tmp_path):
        path = tmp_path / "f.py"
        path.write_text("def f():\n    raise RuntimeError('x')  # noqa\n")
        assert run_project([str(path)], select=["RS001"]) == []

    def test_noqa_for_a_different_code_does_not_suppress(self, tmp_path):
        path = tmp_path / "f.py"
        path.write_text(
            "def f():\n    raise RuntimeError('x')  # noqa: RS002\n"
        )
        findings = run_project([str(path)], select=["RS001"])
        assert [d.check for d in findings] == ["RS001.builtin-raise"]


class TestBaseline:
    def _findings(self, tmp_path):
        path = tmp_path / "f.py"
        path.write_text(BAD_RS001)
        return run_project([str(path)], select=["RS001"])

    def test_fingerprints_are_line_drift_stable(self, tmp_path):
        first = self._findings(tmp_path)
        path = tmp_path / "f.py"
        path.write_text("# a new comment shifting every line\n" + BAD_RS001)
        second = run_project([str(path)], select=["RS001"])
        assert fingerprints(first) == fingerprints(second)
        assert fingerprint(first[0]).startswith("RS001.builtin-raise@")
        assert fingerprint(first[0]).endswith(":f#0")

    def test_occurrence_indices_disambiguate_identical_findings(
            self, tmp_path):
        path = tmp_path / "f.py"
        path.write_text(
            "def f(flag):\n"
            "    if flag:\n"
            "        raise RuntimeError('a')\n"
            "    raise RuntimeError('b')\n"
        )
        findings = run_project([str(path)], select=["RS001"])
        prints = fingerprints(findings)
        assert len(set(prints)) == 2
        assert {fp.rsplit("#", 1)[1] for fp in prints} == {"0", "1"}

    def test_roundtrip_save_load_and_apply(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline = Baseline.from_findings(findings)
        baseline_path = tmp_path / "baseline.json"
        baseline.save(str(baseline_path))
        loaded = Baseline.load(str(baseline_path))
        kept, suppressed, stale = apply_baseline(findings, loaded)
        assert kept == [] and len(suppressed) == 1 and stale == []

    def test_stale_entries_become_warnings(self, tmp_path):
        baseline = Baseline(entries={
            "RS001.builtin-raise@gone.py:f#0": "was fixed long ago",
        })
        kept, suppressed, stale = apply_baseline([], baseline)
        assert kept == [] and suppressed == []
        assert [d.check for d in stale] == ["RS000.stale-baseline-entry"]
        assert stale[0].severity == "warning"

    def test_update_keeps_existing_justifications(self, tmp_path):
        findings = self._findings(tmp_path)
        fp = fingerprints(findings)[0]
        previous = Baseline(entries={fp: "reviewed: contained by caller"})
        updated = Baseline.from_findings(findings, previous)
        assert updated.entries[fp] == "reviewed: contained by caller"

    def test_load_rejects_missing_and_malformed_files(self, tmp_path):
        with pytest.raises(ReproError):
            Baseline.load(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ReproError):
            Baseline.load(str(bad))


class TestSarif:
    def test_sarif_structure_carries_findings_and_rules(self, tmp_path):
        path = tmp_path / "f.py"
        path.write_text(BAD_RS001)
        findings = run_project([str(path)], select=["RS001"])
        sarif = to_sarif(findings)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = {rule["id"] for rule in
                    run["tool"]["driver"]["rules"]}
        assert "RS001" in rule_ids
        result = run["results"][0]
        assert result["level"] == "error"
        assert result["ruleId"] == "RS001"
        assert result["properties"]["check"] == "RS001.builtin-raise"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2
        # Round-trips through JSON (no exotic objects).
        json.dumps(sarif)


class TestSelfHosting:
    def test_src_repro_is_clean_against_the_committed_baseline(self):
        # Mirrors the CI gate: the tree plus .staticcheck-baseline.json
        # must produce no unbaselined error-level findings.
        repo_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        findings = run_project([os.path.join(repo_root, "src", "repro")])
        baseline = Baseline.load(
            os.path.join(repo_root, ".staticcheck-baseline.json"))
        kept, _suppressed, _stale = apply_baseline(findings, baseline)
        errors = [d for d in kept if d.is_error]
        assert errors == [], "\n".join(d.render() for d in errors)
