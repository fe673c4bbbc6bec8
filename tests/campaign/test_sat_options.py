"""The campaign's worker-oversubscription warning."""

from repro.campaign import CampaignRunner, Job, Journal
from repro.core.results import VerificationResult


def _proved(config, method="rewriting", bug=None, criterion="disjunction",
            max_conflicts=None):
    return VerificationResult(
        config=config, method=method, bug=None, correct=True,
        timings={"total": 0.0},
    )


class TestOversubscriptionWarning:
    def test_event_journaled_when_workers_exceed_cpus(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.campaign.runner.os.cpu_count", lambda: 1)
        journal = tmp_path / "camp.jsonl"
        messages = []
        runner = CampaignRunner(
            str(journal),
            verify_fn=_proved,
            log=messages.append,
            workers=3,
        )
        # A single job keeps execution sequential; the warning is about
        # the requested pool size, not the dispatch path taken.
        runner.run([Job.build(2, 1)])
        events = list(
            Journal.load(str(journal)).events("oversubscribed_workers")
        )
        assert len(events) == 1
        assert events[0]["workers"] == 3
        assert events[0]["cpu_count"] == 1
        assert any("oversubscription" in m for m in messages)

    def test_no_event_when_workers_fit(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.campaign.runner.os.cpu_count", lambda: 8)
        journal = tmp_path / "camp.jsonl"
        runner = CampaignRunner(
            str(journal), verify_fn=_proved, workers=2
        )
        runner.run([Job.build(2, 1), Job.build(3, 1)])
        replay = Journal.load(str(journal))
        assert list(replay.events("oversubscribed_workers")) == []

    def test_resume_ignores_the_unknown_event_kind(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr("repro.campaign.runner.os.cpu_count", lambda: 1)
        journal = tmp_path / "camp.jsonl"
        CampaignRunner(
            str(journal), verify_fn=_proved, workers=2
        ).run([Job.build(2, 1)])
        # Resume with the journaled spec: the finish record replays and
        # the oversubscription event must not confuse the replayer.
        report = CampaignRunner(str(journal), verify_fn=_proved).run()
        assert report.replayed == 1
        assert report.results["rw-N2-k1"].status == "PROVED"

