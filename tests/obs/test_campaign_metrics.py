"""Per-job perf metrics must be journaled and survive crash-and-resume."""

from repro.campaign import CampaignRunner, Job, JobResult
from repro.campaign.journal import Journal
from repro.core.results import VerificationResult
from repro.obs import Span
from repro.obs.cli import perf_main
from repro.obs.metrics import load_record
from repro.processor.params import ProcessorConfig


class TestJobResultMetrics:
    def test_from_verification_captures_metrics(self):
        config = ProcessorConfig(n_rob=2, issue_width=1)
        root, sat = Span("verify"), Span("sat")
        root.wall_seconds, sat.wall_seconds = 1.25, 0.5
        sat.add("sat.conflicts", 3)
        root.children.append(sat)
        result = VerificationResult(
            config=config, method="rewriting", bug=None, correct=True,
            trace=root,
        )
        job_result = JobResult.from_verification(Job.build(2, 1), 1, result)
        assert job_result.metrics["timings.total"] == 1.25
        assert job_result.metrics["timings.sat"] == 0.5
        assert job_result.metrics["sat.conflicts"] == 3

    def test_metrics_round_trip_through_dict(self):
        original = JobResult(
            job_id="j", status="PROVED", method="rewriting", attempts=1,
            metrics={"timings.total": 2.0, "sat.conflicts": 9.0},
        )
        rebuilt = JobResult.from_dict(original.to_dict())
        assert rebuilt.metrics == original.metrics

    def test_legacy_records_without_metrics_still_load(self):
        data = {"job_id": "j", "status": "PROVED"}
        assert JobResult.from_dict(data).metrics == {}

    def test_finish_record_with_timings_and_stats_replays(self, tmp_path):
        # The finish-record layout journals carried before the metrics
        # became the only copy: separate ``timings``/``stats`` dicts and
        # the ``trace.*``/``sat.cpu_seconds`` metric names.
        path = str(tmp_path / "j.jsonl")
        job = Job.build(4, 2)
        with Journal(path) as journal:
            journal.append({"event": "enqueue", "job": job.to_dict()})
            journal.append({
                "event": "finish", "job_id": job.job_id, "status": "PROVED",
                "method": "rewriting", "attempts": 1, "detail": "",
                "suspected_entry": None,
                "timings": {"simulate": 0.5, "total": 1.5},
                "stats": {"cnf_vars": 17, "cnf_clauses": 26,
                          "translate_seconds": 0.1},
                "diagnostics": [],
                "metrics": {"timings.total": 1.5, "encode.cnf_clauses": 26.0,
                            "sat.cpu_seconds": 0.25,
                            "trace.tlsim.nodes_built": 276.0},
                "witness": None, "worker": None,
            })
        report = CampaignRunner(path).run([job])
        result = report.results[job.job_id]
        assert result.from_journal and result.status == "PROVED"
        assert result.metrics["encode.cnf_clauses"] == 26.0
        assert "1.50s (journal)" in report.summary()


class TestCampaignJournalsMetrics:
    def test_real_run_populates_metrics(self, tmp_path):
        runner = CampaignRunner(str(tmp_path / "j.jsonl"))
        job = Job.build(2, 1)
        report = runner.run([job])
        metrics = report.results[job.job_id].metrics
        assert metrics["timings.total"] > 0
        assert metrics["sat.decisions"] >= 0
        assert "rewrite.entries_proved" in metrics

    def test_journaled_metrics_use_the_perf_record_names(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CampaignRunner(path).run([Job.build(4, 2)])
        (finish,) = Journal.load(path).events("finish")
        out = tmp_path / "perf.json"
        assert perf_main(
            ["record", "--rob", "4", "--width", "2", "--out", str(out)]
        ) == 0
        (row,) = load_record(out)
        recorded = set(row.metrics)
        journaled = set(finish["metrics"])
        assert recorded <= journaled
        # Beyond perf record's names, a campaign job carries only the
        # counters of the campaign's own supervision.
        assert all(name.startswith("guard.") for name in journaled - recorded)

    def test_metrics_survive_crash_and_resume(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(2, 2)]
        first = CampaignRunner(path).run(jobs)
        recorded = {
            job_id: result.metrics
            for job_id, result in first.results.items()
        }
        assert all(recorded.values())

        # Simulate the crash-and-restart: a fresh runner over the same
        # journal must replay the finished jobs without re-running them.
        resumed = CampaignRunner(path).run(jobs)
        for job_id, result in resumed.results.items():
            assert result.from_journal
            assert result.metrics == recorded[job_id]
