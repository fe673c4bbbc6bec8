"""Tests for the ``python -m repro campaign`` subcommand."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.campaign import Job, Journal
from repro.campaign.cli import build_parser as campaign_parser
from repro.campaign.cli import main as campaign_main
from repro.campaign.cli import retry_policies
from repro.service.cli import build_parser as serve_parser

#: Job specs ``Job.from_dict`` refuses, with the word its error names.
BAD_SPECS = {
    "ill-typed-size": ({"job_id": "x", "n_rob": "abc", "issue_width": 1},
                       "n_rob"),
    "not-an-object": (5, "object"),
    "retired-max-seconds": ({"job_id": "x", "n_rob": 2, "issue_width": 1,
                             "max_seconds": 30}, "max_wall_seconds"),
    "negative-budget": ({"job_id": "x", "n_rob": 2, "issue_width": 1,
                         "max_conflicts": -1}, "max_conflicts"),
    "zero-memory-budget": ({"job_id": "x", "n_rob": 2, "issue_width": 1,
                            "max_memory_mb": 0.0}, "max_memory_mb"),
}


class TestGridCampaigns:
    def test_grid_campaign_all_proved(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        code = campaign_main(["--journal", journal, "--grid", "2x1,2x2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 PROVED" in out

    def test_dispatch_through_python_m_repro(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        code = repro_main(["campaign", "--journal", journal, "--grid", "2x1"])
        assert code == 0
        assert "PROVED" in capsys.readouterr().out

    def test_bug_grid_exits_one(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        code = campaign_main([
            "--journal", journal, "--grid", "3x1",
            "--bug", "forward-wrong-source", "--entry", "2",
        ])
        assert code == 1
        assert "BUG_FOUND" in capsys.readouterr().out

    def test_bad_grid_is_a_setup_error(self, tmp_path, capsys):
        code = campaign_main([
            "--journal", str(tmp_path / "c.jsonl"), "--grid", "banana",
        ])
        assert code == 2
        assert "campaign error" in capsys.readouterr().err


class TestSpecCampaigns:
    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps([
            {"job_id": "a", "n_rob": 2, "issue_width": 1},
            {"job_id": "b", "n_rob": 2, "issue_width": 2},
        ]))
        code = campaign_main([
            "--journal", str(tmp_path / "c.jsonl"), "--spec", str(spec),
        ])
        assert code == 0
        assert "2 PROVED" in capsys.readouterr().out

    def test_bad_spec_shape_is_a_setup_error(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({"not": "a list"}))
        code = campaign_main([
            "--journal", str(tmp_path / "c.jsonl"), "--spec", str(spec),
        ])
        assert code == 2

    def test_non_json_spec_is_a_setup_error(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text('[{"job_id": ')
        code = campaign_main([
            "--journal", str(tmp_path / "c.jsonl"), "--spec", str(spec),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("campaign error: ")

    @pytest.mark.parametrize("name", sorted(BAD_SPECS))
    def test_bad_job_spec_is_a_setup_error_leaving_no_journal(
        self, name, tmp_path, capsys
    ):
        item, word = BAD_SPECS[name]
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps([item]))
        journal = tmp_path / "c.jsonl"
        code = campaign_main(["--journal", str(journal), "--spec", str(spec)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign error: ") and word in err
        assert "Traceback" not in err
        assert not journal.exists()

    # Specs an older build journaled before refusing them, and a
    # CRC-valid record whose job is no object at all.
    @pytest.mark.parametrize("name", sorted(BAD_SPECS))
    def test_journaled_bad_spec_fails_every_resume(
        self, name, tmp_path, capsys
    ):
        item, word = BAD_SPECS[name]
        journal = str(tmp_path / "c.jsonl")
        with Journal(journal) as handle:
            handle.append({"event": "enqueue", "job": item})
        for _ in range(2):
            assert campaign_main(["--journal", journal]) == 2
            err = capsys.readouterr().err
            assert err.startswith("campaign error: ") and word in err

    @pytest.mark.parametrize("flag", ["--max-conflicts", "--deadline",
                                      "--max-memory"])
    def test_negative_budget_flag_is_a_setup_error(
        self, flag, tmp_path, capsys
    ):
        journal = tmp_path / "c.jsonl"
        code = campaign_main(
            ["--journal", str(journal), "--grid", "2x1", flag, "-1"]
        )
        assert code == 2
        assert "must not be negative" in capsys.readouterr().err
        assert not journal.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_zero_memory_budget_is_a_setup_error(
        self, workers, tmp_path, capsys
    ):
        journal = tmp_path / "c.jsonl"
        code = campaign_main([
            "--journal", str(journal), "--grid", "2x1",
            "--max-memory", "0", "--workers", workers,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign error: ")
        assert "max_memory_mb must be positive" in err
        assert "Traceback" not in err
        assert not journal.exists()


class TestParallelAndInjection:
    def test_workers_flag_runs_the_grid(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        code = campaign_main([
            "--journal", journal, "--grid", "2x1,2x2,3x1", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 PROVED" in out
        assert "2 workers" in out

    def test_injected_worker_crash_recovers(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        code = campaign_main([
            "--journal", journal, "--grid", "2x1,2x2,3x1",
            "--workers", "2", "--inject", "crash@rw-N2-k2:1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 PROVED" in out
        assert "worker" in out and "crashed" in out

    def test_injected_timeout_is_retried_sequentially(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        code = campaign_main([
            "--journal", journal, "--grid", "2x1",
            "--inject", "solver-timeout@rw-N2-k1:1",
        ])
        assert code == 0
        assert "1 PROVED" in capsys.readouterr().out

    def test_bad_inject_spec_is_a_setup_error(self, tmp_path, capsys):
        code = campaign_main([
            "--journal", str(tmp_path / "c.jsonl"), "--grid", "2x1",
            "--inject", "not-a-kind@rw-N2-k1",
        ])
        assert code == 2
        assert "campaign error" in capsys.readouterr().err

    def test_bad_worker_count_is_a_setup_error(self, tmp_path, capsys):
        code = campaign_main([
            "--journal", str(tmp_path / "c.jsonl"), "--grid", "2x1",
            "--workers", "0",
        ])
        assert code == 2

    # One job, or two jobs on two workers: the value is checked before
    # anything is journaled, whatever the job or worker count.
    @pytest.mark.parametrize("grid", ["2x1", "2x1,3x1"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_positive_hang_timeout_is_a_setup_error_leaving_no_journal(
        self, grid, workers, tmp_path, capsys
    ):
        journal = tmp_path / "c.jsonl"
        code = campaign_main([
            "--journal", str(journal), "--grid", grid,
            "--hang-timeout", "0", "--workers", workers,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign error: ")
        assert "hang_timeout must be positive" in err
        assert not journal.exists()


class TestResumeFlow:
    def test_second_run_replays_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        assert campaign_main(["--journal", journal, "--grid", "2x1"]) == 0
        capsys.readouterr()
        # Resume without any job source: jobs come from the journal.
        code = campaign_main(["--journal", journal])
        assert code == 0
        assert "1 replayed from journal" in capsys.readouterr().out

    def test_fresh_discards_previous_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        assert campaign_main(["--journal", journal, "--grid", "2x1"]) == 0
        capsys.readouterr()
        code = campaign_main(["--journal", journal, "--grid", "2x1", "--fresh"])
        assert code == 0
        assert "0 replayed from journal" in capsys.readouterr().out

    def test_resume_with_no_journal_is_a_setup_error(self, tmp_path, capsys):
        code = campaign_main(["--journal", str(tmp_path / "missing.jsonl")])
        assert code == 2

    # CRC-valid finish records an older or foreign writer could leave.
    @pytest.mark.parametrize("extra", [
        {},
        {"status": 5},
        {"status": "PROVED", "attempts": "abc"},
        {"status": "PROVED", "attempts": 1.5},
    ], ids=["no-status", "non-string-status", "string-attempts",
            "float-attempts"])
    def test_malformed_finish_record_fails_every_resume(
        self, extra, tmp_path, capsys
    ):
        journal = str(tmp_path / "c.jsonl")
        record = {"event": "finish", "job_id": "rw-N2-k1", **extra}
        with Journal(journal) as handle:
            handle.append({"event": "enqueue",
                           "job": Job.build(2, 1).to_dict()})
            handle.append(record)
        for _ in range(2):
            assert campaign_main(["--journal", journal]) == 2
            err = capsys.readouterr().err
            assert err.startswith("campaign error: finish record ")
            assert "'job_id': 'rw-N2-k1'" in err
            assert "Traceback" not in err

    def test_inconclusive_grid_exits_four(self, tmp_path, capsys):
        # A hopeless budget with degradation disabled: INCONCLUSIVE -> 4.
        journal = str(tmp_path / "c.jsonl")
        code = campaign_main([
            "--journal", journal, "--grid", "3x3",
            "--method", "positive_equality", "--max-conflicts", "1",
            "--max-attempts", "2", "--no-degrade", "--quiet",
        ])
        assert code == 4
        assert "INCONCLUSIVE" in capsys.readouterr().out


class TestSharedRetryOptions:
    @pytest.mark.parametrize("tail", [
        [],
        ["--max-attempts", "5", "--escalation", "3", "--no-degrade"],
        ["--max-conflicts", "7", "--deadline", "2.5", "--max-memory", "64"],
    ])
    def test_campaign_and_serve_build_equal_policies(self, tail):
        campaign_args = campaign_parser().parse_args(["--journal", "j"] + tail)
        serve_args = serve_parser().parse_args(tail)
        assert retry_policies(campaign_args) == retry_policies(serve_args)
