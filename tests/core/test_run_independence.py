"""A run's counts depend only on its job, not on what ran before it.

Every ``verify()`` call starts on an empty intern table
(:func:`repro.eufm.ast.run_scope`).  Without that, a run would reuse the
nodes earlier runs left behind: ``and_``, ``or_`` and ``eq`` order their
operands by node uid, so the CNF and the SAT search could change with the
history of the process.  Runs in different threads take turns on the
table, and a forked campaign worker never inherits another thread's turn.
"""

import json
import sys
import threading

import pytest

from repro import Bug, ProcessorConfig, verify
from repro.campaign import CampaignRunner, DegradePolicy, Job, RetryPolicy
from repro.campaign.parallel import WORKER_HUNG_ERROR
from repro.eufm import clear_intern_cache, interned_count, run_scope

CASES = [
    ("reg-reg", 4, 2, "rewriting"),
    ("mem", 4, 2, "rewriting"),
    ("reg-reg", 2, 1, "positive_equality"),
    ("branch", 2, 1, "rewriting"),
]


def _counters(result):
    return {
        name: value for name, value in result.trace.all_counters().items()
        if name.startswith(("sat.", "encode.", "tlsim.", "rewrite."))
    }


def _run(family, n_rob, width, method):
    config = ProcessorConfig(n_rob, width, family=family)
    return _counters(verify(config, method=method))


@pytest.mark.parametrize("family, n_rob, width, method", CASES)
def test_second_run_counts_match_the_first(family, n_rob, width, method):
    case = (family, n_rob, width, method)
    first = _run(*case)
    for other in CASES:
        if other != case:
            _run(*other)
    assert _run(*case) == first
    assert _run(*case) == first


#: (config, method, bug) calls two threads make at once.
_CALLS = [
    (ProcessorConfig(4, 2), "rewriting", None),
    (ProcessorConfig(4, 2, family="mem"), "rewriting", None),
    (ProcessorConfig(8, 2), "rewriting", None),
    (ProcessorConfig(6, 3, family="mem"), "rewriting", None),
    (ProcessorConfig(2, 1), "positive_equality", None),
    (ProcessorConfig(2, 1, family="branch"), "rewriting", None),
    (ProcessorConfig(12, 4), "rewriting", None),
    (ProcessorConfig(8, 2), "rewriting", Bug("forward-stale-result", entry=3)),
    (ProcessorConfig(3, 2), "rewriting", None),
]


def _outcome(config, method, bug):
    try:
        result = verify(config, method=method, bug=bug)
    except Exception as exc:  # a broken run shows up in the comparison
        return repr(exc)
    return result.correct, result.suspected_entry, _counters(result)


def test_threads_get_the_answers_of_sequential_calls():
    expected = [_outcome(*call) for call in _CALLS]
    outcomes = {}

    def calls(name, order):
        outcomes[name] = [_outcome(*_CALLS[index]) for index in order]

    order = list(range(len(_CALLS)))
    threads = [
        threading.Thread(target=calls, args=("forward", order)),
        threading.Thread(target=calls, args=("backward", order[::-1])),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-run
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes["forward"] == expected
    assert outcomes["backward"] == expected[::-1]


def test_worker_forked_inside_another_threads_run_does_not_hang(tmp_path):
    inside, release = threading.Event(), threading.Event()

    def hold_a_run():
        with run_scope():
            inside.set()
            release.wait(60)

    holder = threading.Thread(target=hold_a_run)
    holder.start()
    try:
        assert inside.wait(10)
        path = tmp_path / "forked.jsonl"
        report = CampaignRunner(
            str(path),
            retry=RetryPolicy(max_attempts=1),
            degrade=DegradePolicy(fallback_method=None),
            workers=2,
            hang_timeout=2.0,
        ).run([Job.build(2, 1), Job.build(3, 1)])
    finally:
        release.set()
        holder.join(10)
    events = [json.loads(line)["data"] for line in path.open()]
    assert [e for e in events if e.get("error") == WORKER_HUNG_ERROR] == []
    assert report.counts() == {"PROVED": 2}


def test_each_campaign_job_leaves_only_its_own_nodes(tmp_path):
    jobs = [Job.build(4, 2), Job.build(3, 1, family="mem"),
            Job.build(6, 2), Job.build(2, 1, family="branch")]
    after_job = {}
    CampaignRunner(
        str(tmp_path / "sequential.jsonl"),
        on_result=lambda job, result: after_job.setdefault(
            job.job_id, interned_count()),
    ).run(jobs)
    for job in jobs:
        clear_intern_cache()
        verify(job.config(), method=job.method)
        assert after_job[job.job_id] == interned_count(), job.job_id
