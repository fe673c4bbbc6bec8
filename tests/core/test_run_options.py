"""Every command that runs verifications takes the single-run CLI's run
flags, and the runs use them: ``trace``, ``perf record`` and ``witness
certify|explain`` all twelve, ``campaign --grid`` all but the sizes,
``lint`` the family; ``campaign``, ``lint`` and the service read one grid
grammar."""

import json

import pytest

from repro.__main__ import main
from repro.obs.metrics import load_record
from repro.service.protocol import ServiceError, SubmitRequest

#: The twelve run flags, each away from its default: a store-order bug
#: planted in a 2-entry ``mem`` design, decided by Positive Equality under
#: generous budgets.
ALL_FLAGS = [
    "--rob", "2", "--width", "1", "--retire-width", "2",
    "--family", "mem", "--method", "positive_equality",
    "--criterion", "case_split",
    "--bug", "store-order", "--entry", "2", "--operand", "2",
    "--max-conflicts", "100000", "--deadline", "60", "--max-memory", "1024",
]
CONFIG = (
    "OOO processor: 2-entry ROB, issue width 1, retire width 2, family mem"
)

#: One run per budget flag that exhausts that budget and no other.
EXHAUSTING = {
    "max-conflicts": ["--rob", "3", "--width", "3",
                      "--method", "positive_equality", "--max-conflicts", "1"],
    "deadline": ["--rob", "2", "--width", "1", "--deadline", "0"],
    "max-memory": ["--rob", "2", "--width", "1", "--max-memory", "0.001"],
}


def _command(name, tmp_path):
    if name == "perf record":
        return ["perf", "record", "--out", str(tmp_path / "snap.json")]
    return name.split()


class TestSingleRunCommands:
    def test_perf_record_runs_what_every_flag_names(self, tmp_path):
        out = tmp_path / "snap.json"
        code = main(["perf", "record", *ALL_FLAGS, "--out", str(out)])
        assert code == 1  # the planted bug is found
        (snapshot,) = load_record(out)
        assert snapshot.meta == {
            "config": CONFIG,
            "method": "positive_equality",
            "criterion": "case_split",
            "bug": "store-order at ROB entry 2, operand 2",
            "correct": False,
            "suspected_entry": None,
        }
        # --deadline and --max-memory installed the run's guard.
        assert snapshot.metrics["guard.memory_checks"] > 0

    def test_trace_runs_what_every_flag_names(self, capsys):
        assert main(["trace", *ALL_FLAGS, "--format", "json"]) == 1
        root = json.loads(capsys.readouterr().out)
        assert [child["name"] for child in root["children"]] == \
            ["simulate", "translate", "sat"]  # no rewrite: PE decided it
        assert root["counters"]["guard.memory_checks"] > 0

    def test_witness_certify_runs_what_every_flag_names(self, capsys):
        assert main(["witness", "certify", *ALL_FLAGS]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            f"{CONFIG} — INCORRECT (method=positive_equality"
        )
        assert "witness [counterexample] VALIDATED" in out

    def test_witness_explain_runs_what_every_flag_names(self, capsys):
        assert main(["witness", "explain", *ALL_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "replayed through the EUFM evaluator: ok" in out

    @pytest.mark.parametrize("budget", sorted(EXHAUSTING))
    @pytest.mark.parametrize(
        "command",
        ["trace", "perf record", "witness certify", "witness explain"],
    )
    def test_every_budget_flag_bounds_the_run(
        self, command, budget, tmp_path, capsys
    ):
        argv = [*_command(command, tmp_path), *EXHAUSTING[budget]]
        assert main(argv) == 2
        assert "budget" in capsys.readouterr().err.lower()

    def test_default_size_is_the_single_run_default(self, tmp_path):
        out = tmp_path / "snap.json"
        assert main(["perf", "record", "--out", str(out)]) == 0
        assert load_record(out)[0].meta["config"] == (
            "OOO processor: 16-entry ROB, issue width 4, retire width 4"
        )


class TestGridCommands:
    def test_campaign_journals_the_bug_operand(self, tmp_path):
        journal = tmp_path / "c.jsonl"
        code = main([
            "campaign", "--journal", str(journal), "--grid", "4x2",
            "--bug", "forward-wrong-source", "--entry", "2",
            "--operand", "2", "--quiet",
        ])
        assert code == 1
        records = [json.loads(line)["data"]
                   for line in journal.read_text().splitlines()]
        (job,) = [r["job"] for r in records if r["event"] == "enqueue"]
        assert (job["bug_kind"], job["bug_entry"], job["bug_operand"]) == \
            ("forward-wrong-source", 2, 2)

    def test_lint_audits_the_named_family(self, capsys):
        code = main(["lint", "--grid", "2x1", "--family", "mem",
                     "--no-rules", "--json"])
        assert code == 0
        findings = json.loads(capsys.readouterr().out)["findings"]
        subjects = {finding["subject"] for finding in findings}
        assert subjects == {
            "OOO processor: 2-entry ROB, issue width 1, retire width 1, "
            f"family mem [{method}]"
            for method in ("rewriting", "positive_equality")
        }

    @pytest.mark.parametrize("command", ["campaign", "lint"])
    def test_malformed_grid_is_a_setup_error_naming_the_entry(
        self, command, tmp_path, capsys
    ):
        argv = [command, "--grid", "4x2,banana"]
        if command == "campaign":
            argv += ["--journal", str(tmp_path / "c.jsonl")]
        assert main(argv) == 2
        assert "'banana'" in capsys.readouterr().err

    def test_service_answers_400_naming_the_entry(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4x2,banana"})
        assert excinfo.value.status == 400
        assert "'banana'" in str(excinfo.value)
