"""Parallel-campaign benchmark: sequential vs a CPU-count worker pool
on a Table 1-style grid.

Runs the same scaled-down sweep through the campaign runner in two
interleaved rounds of two legs — one sequential, one with a worker pool
sized to the machine — asserts that every run produces the same per-job
statuses and methods, and records the wall-time speedup, the best
sequential time over the best parallel one, under
``benchmarks/results``.  A single round's speedup on a shared 2-vCPU
host ranged from 1.2x to 2.0x; the best of two damps that noise.

The pool is clamped to ``os.cpu_count()``: this workload is CPU-bound,
so oversubscribing (the old hardcoded ``workers=4`` on a smaller box)
only adds process spawn + scheduling overhead and made the "parallel"
leg *slower* than sequential.  Each job takes most of a second, so the
pool's spawn and dispatch cost is small beside it: the speedup must be
at least 1.3x on two or three cores and 2.5x on four or more.  On one
core the numbers are only recorded.
"""

from __future__ import annotations

import os
import pathlib
import time

from repro.campaign import CampaignRunner, Job, RetryPolicy
from repro.obs import MetricsSnapshot
from repro.obs.metrics import save_record

from common import save_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Six Table 1-style jobs of similar cost, 0.6-0.9 s each on a 2-vCPU
# Xeon: big enough that per-job work dominates the pool's spawn
# overhead, small enough for CI.
SIZES = [256, 288]
WIDTHS = [4, 8, 16]
# Clamp to the machine: more workers than cores buys nothing for this
# CPU-bound sweep and the spawn overhead regresses the parallel leg.
WORKERS = min(4, os.cpu_count() or 1)
ROUNDS = 2


def _jobs():
    return [Job.build(size, width) for size in SIZES for width in WIDTHS]


def _run_campaign(journal: pathlib.Path, workers: int):
    runner = CampaignRunner(
        str(journal),
        retry=RetryPolicy(max_attempts=2, escalation=2.0),
        workers=workers,
    )
    start = time.perf_counter()
    report = runner.run(_jobs())
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_parallel_campaign_speedup(tmp_path):
    runs = {"seq": [], "par": []}
    for round_ in range(ROUNDS):
        for leg, workers in (("seq", 1), ("par", WORKERS)):
            runs[leg].append(_run_campaign(
                tmp_path / f"{leg}{round_}.jsonl", workers
            ))

    # Identical verdicts: parallel dispatch must not change what is proved.
    outcomes = [
        {
            job_id: (res.status, res.method)
            for job_id, res in report.results.items()
        }
        for report, _ in runs["seq"] + runs["par"]
    ]
    seq_outcomes = outcomes[0]
    assert all(other == seq_outcomes for other in outcomes[1:])
    assert all(status == "PROVED" for status, _ in seq_outcomes.values())

    seq_seconds = min(seconds for _, seconds in runs["seq"])
    par_seconds = min(seconds for _, seconds in runs["par"])
    speedup = seq_seconds / par_seconds if par_seconds > 0 else 0.0
    snapshot = MetricsSnapshot(
        metrics={
            "campaign.jobs": float(len(seq_outcomes)),
            "campaign.workers": float(WORKERS),
            "campaign.sequential_seconds": seq_seconds,
            "campaign.parallel_seconds": par_seconds,
            "campaign.speedup": speedup,
        },
        meta={
            "bench": "parallel_campaign",
            "cpu_count": os.cpu_count() or 1,
            "grid": f"N={SIZES} k={WIDTHS}",
            "rounds": ROUNDS,
        },
    )
    save_record(
        REPO_ROOT / "benchmarks" / "results" / "BENCH_parallel_campaign.json",
        [snapshot],
    )
    save_table(
        "parallel_campaign",
        (
            f"Parallel campaign ({len(seq_outcomes)} jobs, "
            f"{WORKERS} workers, {os.cpu_count()} cores, "
            f"best of {ROUNDS} rounds)\n"
            f"  sequential: {seq_seconds:.2f}s\n"
            f"  parallel:   {par_seconds:.2f}s\n"
            f"  speedup:    {speedup:.2f}x"
        ),
    )

    cores = os.cpu_count() or 1
    if cores >= 2:
        bound = 2.5 if cores >= 4 else 1.3
        assert speedup >= bound, (
            f"expected >= {bound}x speedup with {WORKERS} workers on a "
            f"{cores}-core machine, got {speedup:.2f}x"
        )
