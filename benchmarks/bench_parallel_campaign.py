"""Parallel-campaign benchmark: sequential vs a CPU-count worker pool
on a Table 1-style grid.

Runs the same scaled-down sweep twice through the campaign runner — once
sequentially and once with a worker pool sized to the machine — asserts
the two modes produce identical per-job statuses and methods, and records
the wall-time speedup under ``benchmarks/results``.

The pool is clamped to ``os.cpu_count()``: this workload is CPU-bound,
so oversubscribing (the old hardcoded ``workers=4`` on a smaller box)
only adds process spawn + scheduling overhead and made the "parallel"
leg *slower* than sequential.  The speedup assertion (>= 2.5x) only
fires on machines with at least four CPU cores; on smaller runners the
numbers are still recorded.
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

# A miniature Table 1 grid: big enough that per-job work dominates the
# pool's spawn overhead on a multi-core machine, small enough for CI.
SIZES = [8, 16, 24]
WIDTHS = [1, 2]
# Clamp to the machine: more workers than cores buys nothing for this
# CPU-bound sweep and the spawn overhead regresses the parallel leg.
WORKERS = min(4, os.cpu_count() or 1)


def _jobs():
    return [
        Job.build(size, width)
        for size in SIZES
        for width in WIDTHS
        if width <= size
    ]


def _run_campaign(tmp_path: pathlib.Path, workers: int):
    journal = tmp_path / f"bench_w{workers}.jsonl"
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
    sequential, seq_seconds = _run_campaign(tmp_path, workers=1)
    parallel, par_seconds = _run_campaign(tmp_path, workers=WORKERS)

    # Identical verdicts: parallel dispatch must not change what is proved.
    seq_outcomes = {
        job_id: (res.status, res.method)
        for job_id, res in sequential.results.items()
    }
    par_outcomes = {
        job_id: (res.status, res.method)
        for job_id, res in parallel.results.items()
    }
    assert seq_outcomes == par_outcomes
    assert all(status == "PROVED" for status, _ in seq_outcomes.values())

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
            f"{WORKERS} workers, {os.cpu_count()} cores)\n"
            f"  sequential: {seq_seconds:.2f}s\n"
            f"  parallel:   {par_seconds:.2f}s\n"
            f"  speedup:    {speedup:.2f}x"
        ),
    )

    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.5, (
            f"expected >= 2.5x speedup with {WORKERS} workers on a "
            f"{os.cpu_count()}-core machine, got {speedup:.2f}x"
        )
