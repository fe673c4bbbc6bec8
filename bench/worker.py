"""One workload's jobs, run in a fresh interpreter.

    python bench/worker.py WORKLOAD SEED SECONDS

``run.py`` starts this script as a child process per workload run (with
``src`` on ``PYTHONPATH``) and turns its output into metrics.  It prints
one JSON line per finished job and a final ``{"done": ...}`` line, so a
parent that has to kill it still sees every job that finished.

The load is a closed loop with one client: each job starts when the
previous verdict has returned.  Before every job, untimed, the intern
table is emptied and the collector run, so every job starts from the
state a fresh CLI run would and timings do not depend on job order.
Then a few host-speed probes (``calibrate.probe``) run, and more run
every 50 ms during the job; their times ride on the job's line, so
``run.py`` can rescale the job's wall time to a host of fixed speed.

Every job is one ``repro.verify(..., trace=True)`` call.  ``verify()``
records its span tree on every run (``trace=True`` only keeps it on the
result), so the per-layer times and counters come from the same calls
as the end-to-end timings, at no extra cost.  The job list is run twice
in full, then job after job until SECONDS have passed since the script
started, warm-up included: every job has at least two timed repeats, and
the run ends within one job of SECONDS.
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import sys
import time
from typing import Dict, List

from repro import Bug, ProcessorConfig, verify
from repro.core.results import VerificationResult
from repro.eufm import clear_intern_cache, interned_count
from repro.obs.exporters import trace_to_chrome

from answers import Answers, Outcome
from calibrate import Sampler, probe
from workloads import Job, draw

#: a job slower than this counts as failed, like one that raised.
JOB_LIMIT_S = 60.0
#: host-speed probes run between the jobs, and how often one runs during
#: a job (each takes about 0.7 ms, so sampling costs the job about 1.4%,
#: which is subtracted).
EDGE_PROBES = 2
SAMPLE_INTERVAL_S = 0.05
#: full passes over the job list before the run may stop.
MIN_PASSES = 2
#: small jobs run once, untimed, before the first timed one: each kind of
#: verdict imports its modules on first use (about 20 ms each).
WARM_UP = (
    Job("reg-reg", 4, 2, certify=True),
    Job("mem", 4, 2, certify=True),
    Job("branch", 1, 1, certify=True),
    Job("reg-reg", 1, 1, method="positive_equality", certify=True),
    Job("reg-reg", 8, 2, bug_kind="forward-stale-result", bug_entry=3, certify=True),
    Job("mem", 3, 1, 2, bug_kind="store-order", bug_entry=2, certify=True),
    Job("reg-reg", 1, 1, method="positive_equality",
        bug_kind="retire-ignores-valid", bug_entry=1, certify=True),
)
#: ``verify()``'s top-level spans, by the layer each one times.
LAYER_SPANS = {
    "simulate": "tlsim",
    "rewrite": "rewriting",
    "translate": "encode",
    "sat": "sat",
    "witness": "witness",
}


def outcome(result: VerificationResult) -> Outcome:
    stats = result.encoding_stats
    return Outcome(
        proved=result.correct,
        suspected_entry=result.suspected_entry,
        reduction=result.rewrite.reduction if result.rewrite else None,
        cnf=(
            (stats.cnf_vars, stats.cnf_clauses, stats.eij_primary)
            if stats is not None else None
        ),
        witness=(
            (result.witness.kind, result.witness.validated)
            if result.witness is not None else None
        ),
    )


def layer_counts(result: VerificationResult) -> Dict[str, float]:
    """The work counts of one verdict, read from what ``verify()``
    returned."""
    counts: Dict[str, float] = {"eufm.nodes": interned_count()}
    for span in result.trace.children:
        totals = span.all_counters()
        if span.name == "simulate":
            counts["tlsim.nodes"] = totals.get("tlsim.nodes_built", 0)
        elif span.name == "sat":
            for name in ("conflicts", "propagations", "decisions"):
                counts[f"sat.{name}"] = totals.get(f"sat.{name}", 0)
    if result.rewrite is not None:
        counts["rewriting.entries_proved"] = len(result.rewrite.proved_entries)
        counts["rewriting.rule_firings"] = sum(result.rewrite.rules_applied.values())
        counts["rewriting.reduced"] = int(
            result.rewrite.succeeded and result.rewrite.reduction == "full"
        )
    stats = result.encoding_stats
    if stats is not None:
        counts["encode.cnf_vars"] = stats.cnf_vars
        counts["encode.cnf_clauses"] = stats.cnf_clauses
        counts["encode.eij_primary"] = stats.eij_primary
    if result.witness is not None:
        counts["witness.validated"] = int(result.witness.validated)
    return counts


class GcPauses:
    """Wall time spent in the collector, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


def call(job: Job) -> VerificationResult:
    """The ``verify()`` call a job stands for."""
    config = ProcessorConfig(
        job.n_rob, job.issue_width, job.retire_width, family=job.family
    )
    bug = None
    if job.bug_kind is not None:
        bug = Bug(job.bug_kind, entry=job.bug_entry, operand=job.bug_operand)
    return verify(config, method=job.method, bug=bug, criterion=job.criterion,
                  certify=job.certify, trace=True)


def run_job(
    job: Job, answers: Answers, pauses: GcPauses, sampler: Sampler,
    origin: float, traced: bool,
) -> Dict:
    """One timed ``verify()`` call; returns its job line.

    Every line carries the times of the host-speed probes run just before
    the job (``probes``) and, from ``sampler``, during it (``samples``).
    A successful line also carries the wall time and the layer times, less
    the time the samples took, and the counts; given ``traced``, also the
    span tree as Chrome trace events on the run's timeline, which starts
    at ``origin``.
    """
    clear_intern_cache()
    gc.collect()
    probes = [probe() for _ in range(EDGE_PROBES)]
    pauses.seconds = 0.0
    start = time.perf_counter()
    sampler.start()
    try:
        result = call(job)
    except Exception as exc:  # a job that raises is counted, not fatal
        return {"probes": probes, "samples": [],
                "wall_s": time.perf_counter() - start,
                "failed": repr(exc), "wrong": []}
    finally:
        sampler.stop()
    end = time.perf_counter()
    samples = [seconds for at, seconds in sampler.samples if at < end]
    wall = end - start - sum(samples)
    # The samples fell evenly in time, so each layer loses its share.
    scale = wall / (end - start)
    line = {
        "probes": probes,
        "samples": samples,
        "wall_s": wall,
        "failed": f"took {wall:.1f} s" if wall > JOB_LIMIT_S else None,
        "wrong": answers.check(job, outcome(result)),
        "layers": {
            LAYER_SPANS[name]: seconds * scale
            for name, seconds in result.timings.items() if name in LAYER_SPANS
        },
        "counts": layer_counts(result),
        "gc_pause_s": pauses.seconds,
    }
    if traced:
        line["events"] = trace_to_chrome(result.trace)["traceEvents"]
        for event in line["events"]:
            event["ts"] += (start - origin) * 1e6
    return line


def main(argv: List[str]) -> int:
    workload, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    begin = time.perf_counter()
    jobs = draw(workload, seed)
    answers = Answers()
    for job in WARM_UP:
        call(job)
    pauses = GcPauses()
    gc.callbacks.append(pauses)
    sampler = Sampler(SAMPLE_INTERVAL_S)
    origin = time.perf_counter()

    def emit(line: Dict) -> None:
        # The peak RSS so far rides on every line, so it survives a kill.
        line["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(line), flush=True)

    emit({"planned": MIN_PASSES * len(jobs)})
    for count in itertools.count():
        index = count % len(jobs)
        if count >= MIN_PASSES * len(jobs) and time.perf_counter() - begin >= seconds:
            break
        # The first pass also records the trace of every job.
        line = run_job(jobs[index], answers, pauses, sampler, origin,
                       count < len(jobs))
        emit(dict(line, index=index))
    emit({"done": True})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
