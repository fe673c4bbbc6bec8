"""Tests of the benchmark itself (the verifier has its own under tests/).

    PYTHONPATH=src python -m pytest -q bench/
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from answers import Answers, Outcome, check_placement
from compare import compare, status
import run
from calibrate import REFERENCE_S, Sampler, probe
from run import end_to_end, growth_exponent, host_factors, p75, per_layer, quantile
from workloads import WORKLOADS, Job, draw

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_job_list(workload):
    assert draw(workload, 1) == draw(workload, 1)
    assert draw(workload, 1) != draw(workload, 2)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_pass_gives_p75_enough_samples(workload):
    assert len(draw(workload, 7)) == 40


def test_p75_refuses_fewer_than_40_samples():
    assert p75([1.0] * 39) is None
    samples = [float(i) for i in range(40)]
    assert p75(samples) == pytest.approx(29.5)
    assert sum(s > p75(samples) for s in samples) == 10


def test_quantile_is_the_harrell_davis_estimate():
    # reference values from scipy.stats.mstats.hdquantiles
    samples = [0.3, 1.9, 0.7, 4.2, 1.1, 0.9, 2.5, 0.2, 1.4, 3.3]
    assert quantile(samples, 0.5) == pytest.approx(1.3684329, rel=1e-5)
    assert quantile(samples, 0.75) == pytest.approx(2.6373128, rel=1e-5)
    assert quantile([2.0] * 7, 0.5) == pytest.approx(2.0)
    # unlike an order statistic, it moves with every sample
    assert quantile(samples + [9.0], 0.5) > quantile(samples + [4.3], 0.5)


def test_host_factors_use_the_probes_next_to_and_during_each_job():
    r = REFERENCE_S
    lines = [{"probes": [r * slow], "samples": []} for slow in (1, 1, 2, 2, 1.5)]
    assert host_factors(lines) == pytest.approx([1, 2 / 3, 1 / 2, 4 / 7, 2 / 3])
    # a long job's samples count one each, like the probes next to it
    lines[0]["samples"] = [2 * r, 2 * r]
    assert host_factors(lines)[0] == pytest.approx(4 / 6)


def test_sampler_probes_while_running_only():
    sampler = Sampler(0.01)
    sampler.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    taken = list(sampler.samples)
    assert 5 <= len(taken) <= 20
    assert all(0 < seconds < 0.01 for _, seconds in taken)
    time.sleep(0.05)
    assert sampler.samples == taken


def test_probe_runs_with_the_collector_as_it_found_it():
    assert probe() > 0
    import gc
    gc.disable()
    try:
        probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
    probe()
    assert gc.isenabled()


def test_growth_exponent_recovers_the_power_per_group():
    points = [(("a",), n, 3 * n ** 2) for n in (4, 8, 16)]
    points += [(("b",), n, 50 * n ** 2) for n in (5, 10)]
    points += [(("single",), 7, 1e6)]  # one N: no slope, ignored
    assert growth_exponent(points) == pytest.approx(2.0)


def test_growth_exponent_skips_zero_counts_and_needs_two_sizes():
    assert growth_exponent([(("a",), 4, 0), (("a",), 8, 10)]) is None
    assert growth_exponent([(("a",), 4, 5), (("b",), 8, 10)]) is None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_drawn_placements_are_never_inert(workload):
    for seed in range(50):
        for job in draw(workload, seed):
            check_placement(job)


def _bug(kind, n=8, k=2, entry=1, family="reg-reg", retire=None, method="rewriting"):
    return Job(family, n, k, retire, method=method, bug_kind=kind, bug_entry=entry)


@pytest.mark.parametrize("job", [
    _bug("forward-wrong-source", n=32, entry=5),
    _bug("forward-stale-result", entry=2),
    _bug("execute-ignores-hazard", entry=1),
    _bug("retire-without-result", k=2, entry=3),
    _bug("retire-ignores-valid", k=1, entry=2),
    _bug("retire-out-of-order", k=2, entry=1),
    _bug("pc-single-increment", k=1),
    _bug("stale-load-forward", n=3, k=1, entry=3, family="mem", retire=2,
         method="positive_equality"),
    _bug("stale-load-forward", n=3, k=1, entry=2, family="mem", retire=2),
    _bug("store-order", n=4, k=1, entry=3, family="mem", retire=2),
    _bug("dropped-flush", n=3, k=1, entry=2, family="branch"),
    _bug("wrong-path-retire", n=2, k=1, entry=2, family="branch"),
    _bug("forward-stale-result", n=8, entry=9),
], ids=lambda job: job.label)
def test_placement_rules_reject_inert_bugs(job):
    with pytest.raises(ValueError, match="inert"):
        check_placement(job)


def test_answers_demand_the_planted_slice():
    job = _bug("forward-wrong-source", n=16, entry=9)
    answers = Answers()
    assert answers.check(job, Outcome(proved=False, suspected_entry=9)) == []
    assert answers.check(job, Outcome(proved=False, suspected_entry=8))
    assert answers.check(job, Outcome(proved=True))
    # retire-out-of-order is checked for BUG_FOUND only
    other = _bug("retire-out-of-order", k=2, entry=2)
    assert answers.check(other, Outcome(proved=False, suspected_entry=1)) == []


def test_answers_demand_a_size_independent_residual_cnf():
    answers = Answers()
    full = dict(proved=True, reduction="full")
    assert answers.check(Job("reg-reg", 8, 2), Outcome(cnf=(17, 26, 0), **full)) == []
    assert answers.check(Job("reg-reg", 16, 2), Outcome(cnf=(17, 26, 0), **full)) == []
    assert answers.check(Job("reg-reg", 24, 2), Outcome(cnf=(18, 26, 0), **full))
    assert answers.check(Job("reg-reg", 9, 3), Outcome(cnf=(30, 40, 2), **full))
    assert answers.check(Job("mem", 9, 3), Outcome(proved=True, reduction="none"))
    # no reduction is expected of branch families
    assert answers.check(Job("branch", 2, 1), Outcome(proved=True, reduction="none")) == []


def test_answers_accept_rewrite_flag_only_for_flagged_bugs():
    answers = Answers()
    bug = Job("reg-reg", 8, 2, bug_kind="forward-stale-result", bug_entry=3,
              certify=True)
    flagged = Outcome(proved=False, suspected_entry=3,
                      witness=("rewrite-flag", False))
    assert answers.check(bug, flagged) == []
    twin = bug.twin()
    assert answers.check(twin, Outcome(
        proved=True, reduction="full", cnf=(17, 26, 0),
        witness=("rewrite-flag", False)))
    assert answers.check(twin, Outcome(
        proved=True, reduction="full", cnf=(17, 26, 0),
        witness=("unsat-proof", False)))
    assert answers.check(twin, Outcome(
        proved=True, reduction="full", cnf=(17, 26, 0),
        witness=("unsat-proof", True))) == []


SPEC = {
    "end_to_end": [
        {"name": "jobs_per_min", "unit": "jobs/min", "better": "higher", "bound": 0.1},
        {"name": "verdict_s.p50", "unit": "s", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "sat.conflicts", "unit": "count", "better": "lower"},
        {"name": "sat.time_s", "unit": "s", "better": "lower"},
    ],
}


def _result(jpm, p50, conflicts=10, sat_s=1.0, wrong=0):
    return {"workloads": {"w": {
        "end_to_end": {"jobs_per_min": jpm, "verdict_s.p50": p50},
        "per_layer": {"sat.conflicts": conflicts, "sat.time_s": sat_s},
        "wrong_verdicts": wrong, "failed_share": 0.0,
    }}}


def test_compare_applies_bounds_in_the_metric_direction():
    assert status(100.0, 91.0, "higher", 0.1) == "ok"
    assert status(100.0, 89.0, "higher", 0.1) == "regressed"
    assert status(1.0, 1.09, "lower", 0.1) == "ok"
    assert status(1.0, 1.11, "lower", 0.1) == "regressed"
    assert status(1.0, 0.5, "lower", 0.1) == "ok"
    assert status(None, 1.0, "lower", 0.1) == "unresolved"
    assert status(0.0, 1.0, "lower", 0.1) == "unresolved"


def test_compare_gates_verdicts_and_flags_changed_counts():
    lines = compare(_result(100, 1.0), _result(100, 1.0, sat_s=2.0), SPEC)
    assert not any(line.startswith(("regressed", "differs")) for line in lines)
    lines = compare(_result(100, 1.0), _result(100, 1.0, conflicts=11), SPEC)
    assert [line.split()[:3] for line in lines if line.startswith("differs")] == [
        ["differs", "w", "sat.conflicts"]
    ]
    lines = compare(_result(100, 1.0), _result(100, 1.0, wrong=1), SPEC)
    assert any(line.split()[:3] == ["regressed", "w", "wrong_verdicts"]
               for line in lines)
    lines = compare(_result(100, 1.0), _result(80, 1.0), SPEC)
    assert any(line.split()[:3] == ["regressed", "w", "jobs_per_min"]
               for line in lines)


def _line(index, wall_s, failed=None):
    return {
        "index": index, "probes": [REFERENCE_S], "samples": [],
        "wall_s": wall_s, "failed": failed, "wrong": [],
        "layers": {"tlsim": wall_s / 2, "sat": wall_s / 4},
        "counts": {"tlsim.nodes": 10 * index + 5, "eufm.nodes": 20 * index + 9},
        "gc_pause_s": 0.001, "rss_kb": 2048,
    }


def _failing_run():
    # Two passes over 40 jobs: job 0 fails in both, job 1 in the first.
    lines = [_line(i, 0.1 + i / 100) for i in range(40)]
    lines += [_line(i, 0.2) for i in range(40)]
    lines[0]["failed"] = lines[40]["failed"] = "RuntimeError('boom')"
    lines[1]["failed"] = "took 61.0 s"
    return {"jobs": lines, "attempted": 80, "failed": 3, "wrong": [],
            "rss_kb": 4096}


def test_failed_jobs_leave_every_other_metric_reportable():
    run_ = _failing_run()
    metrics = end_to_end(run_)
    assert metrics["verdict_s.p75"] is None  # 39 jobs timed
    times = [0.2] + [(0.1 + i / 100 + 0.2) / 2 for i in range(2, 40)]
    assert metrics["verdict_s.p50"] == pytest.approx(quantile(times, 0.5))
    assert metrics["jobs_per_min"] == pytest.approx(60 * 39 / sum(times))
    # counts come from each job's first successful run, even when a later
    # repeat counted differently
    run_["jobs"][45]["counts"]["tlsim.nodes"] += 1000
    layers, shares = per_layer(run_, draw("deep-rob", 1))
    assert layers["tlsim.time_s"] == pytest.approx(sum(times) / 2)
    assert layers["tlsim.nodes"] == sum(10 * i + 5 for i in range(1, 40))
    assert 0 < shares["tlsim"] < 1

    nothing = dict(run_, jobs=[dict(line, failed="x") for line in run_["jobs"]])
    assert set(end_to_end(nothing).values()) == {None, 4.0}
    layers, shares = per_layer(nothing, draw("deep-rob", 1))
    assert layers["eufm.peak_nodes"] is None and shares == {}


def test_a_run_with_failed_jobs_still_prints_its_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "run_worker", lambda *args: _failing_run())
    monkeypatch.setattr(run, "measure_setup", lambda: 0.25)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "deep-rob", "--seed", "1", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 80, 3)
    assert result["metrics"]["verdict_s.p75"] == {"value": None, "unit": "s"}
    assert result["metrics"]["setup_s"] == {"value": 0.25, "unit": "s"}


PROBE = """
import json
import worker
from answers import Answers
from workloads import Job
jobs = [Job("reg-reg", 2, 1, method="positive_equality", certify=True),
        Job("mem", 6, 2)]
answers, pauses = Answers(), worker.GcPauses()
sampler = worker.Sampler(worker.SAMPLE_INTERVAL_S)
lines = [worker.run_job(job, answers, pauses, sampler, 0.0, False) for job in jobs]
print(json.dumps([(line["wrong"], line["counts"]) for line in lines]))
"""


def test_layer_counts_do_not_depend_on_the_hash_seed():
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert all(wrong == [] for wrong, _ in runs[0])
    assert runs[0][0][1]["sat.conflicts"] > 0
    assert runs[0][0][1]["witness.validated"] == 1
    assert runs[0][1][1]["rewriting.reduced"] == 1
