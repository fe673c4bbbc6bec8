"""Campaign wiring of the SAT layer: worker oversubscription warning and
the ambient session pool the runner installs around verifications."""

from repro.campaign import CampaignRunner, Job, Journal
from repro.core.results import VerificationResult
from repro.sat import current_session_pool


def _proved(config, method):
    return VerificationResult(
        config=config, method=method, bug=None, correct=True,
        timings={"total": 0.0},
    )


class AmbientSpyVerify:
    """Records the ambient session pool seen by each verification."""

    def __init__(self):
        self.pools = []

    def __call__(self, config, method="rewriting", bug=None,
                 criterion="disjunction", max_conflicts=None,
                 max_seconds=None):
        self.pools.append(current_session_pool())
        return _proved(config, method)


class TestOversubscriptionWarning:
    def test_event_journaled_when_workers_exceed_cpus(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.campaign.runner.os.cpu_count", lambda: 1)
        journal = tmp_path / "camp.jsonl"
        messages = []
        runner = CampaignRunner(
            str(journal),
            verify_fn=AmbientSpyVerify(),
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
            str(journal), verify_fn=AmbientSpyVerify(), workers=2
        )
        runner.run([Job.build(2, 1), Job.build(3, 1)])
        replay = Journal.load(str(journal))
        assert list(replay.events("oversubscribed_workers")) == []

    def test_resume_ignores_the_unknown_event_kind(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr("repro.campaign.runner.os.cpu_count", lambda: 1)
        journal = tmp_path / "camp.jsonl"
        spy = AmbientSpyVerify()
        CampaignRunner(
            str(journal), verify_fn=spy, workers=2
        ).run([Job.build(2, 1)])
        # Resume with the journaled spec: the finish record replays and
        # the oversubscription event must not confuse the replayer.
        report = CampaignRunner(str(journal), verify_fn=spy).run()
        assert report.replayed == 1
        assert report.results["rw-N2-k1"].status == "PROVED"


class TestSatOptionWiring:
    def test_session_pool_is_ambient_and_shared(self, tmp_path):
        spy = AmbientSpyVerify()
        CampaignRunner(str(tmp_path / "camp.jsonl"), verify_fn=spy).run(
            [Job.build(2, 1), Job.build(3, 1)]
        )
        assert all(pool is not None for pool in spy.pools)
        # One pool for the whole batch — that is what lets same-digest
        # CNFs resume across jobs.
        assert spy.pools[0] is spy.pools[1]
