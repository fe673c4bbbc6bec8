"""Paper-scale verification runs (not part of the default benchmark sweep).

The paper's flagship configurations: reorder buffers of 512–1,500 entries
with issue/retire widths up to 128.  These take minutes to tens of minutes
in pure Python; run directly:

    python benchmarks/run_paper_scale.py [--max-rob 1500]

The sweep runs on the crash-safe campaign runner: progress is journaled to
``benchmarks/results/paper_scale.jsonl``, so an interrupted run resumes
where it left off (re-invoke the same command), budgets escalate 2x on
retries, and a configuration that exhausts every budget is recorded as
INCONCLUSIVE instead of aborting the sweep — the same protocol the paper
applies with its 4 GB memory limit.  Pass ``--fresh`` to discard previous
progress and ``--workers N`` to fan the configurations out to a worker
pool (the parent stays the sole journal writer, so resume still works).
The table is appended to ``benchmarks/results/paper_scale.txt``, under the
command line that made it; earlier tables and notes there are kept.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign import CampaignRunner, Job, RetryPolicy
from repro.guard.memory import _rss_bytes

from common import RESULTS_DIR

CONFIGS = [
    (512, 16),
    (1024, 32),
    (1500, 16),   # the paper's headline ROB size (minutes)
    (1500, 128),  # the paper's largest configuration (about an hour;
                  # dominated by the k^2 cost of the fetched-instruction
                  # part of the reduced formula)
]

HEADER = (
    "(peak MiB: the high-water mark of this process's RSS when the row "
    "finished, in units of 2**20 bytes; - for a row replayed from the "
    "journal)\n"
    f"{'config':>16}  {'status':>12}  {'simulate':>9}  {'rewrite':>8}  "
    f"{'translate':>9}  {'SAT':>7}  {'total':>8}  {'clauses':>8}  "
    f"{'peak MiB':>8}"
)


def _format_row(job: Job, result) -> str:
    m = result.metrics
    # ``_rss_bytes`` scales ru_maxrss, KiB on Linux and bytes on macOS.
    peak_mib = "-" if result.from_journal else f"{_rss_bytes() / 2**20:.0f}"
    clauses = int(m.get("encode.cnf_clauses", 0))
    return (
        f"{f'N={job.n_rob}, k={job.issue_width}':>16}  "
        f"{result.status:>12}  "
        f"{m.get('timings.simulate', 0.0):>8.1f}s  "
        f"{m.get('timings.rewrite', 0.0):>7.1f}s  "
        f"{m.get('timings.translate', 0.0):>8.2f}s  "
        f"{m.get('timings.sat', 0.0):>6.2f}s  "
        f"{m.get('timings.total', 0.0):>7.1f}s  {clauses:>8}  {peak_mib:>8}"
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-rob", type=int, default=1500)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run configurations in a worker pool of this size",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="discard the journal of a previous (partial) run",
    )
    args = parser.parse_args()

    RESULTS_DIR.mkdir(exist_ok=True)
    journal_path = RESULTS_DIR / "paper_scale.jsonl"
    if args.fresh and journal_path.exists():
        journal_path.unlink()

    jobs = [
        Job.build(n, k)
        for n, k in CONFIGS
        if n <= args.max_rob
    ]
    if not jobs:
        print("no configurations selected", file=sys.stderr)
        return 2

    print(HEADER)
    command = " ".join(["python benchmarks/run_paper_scale.py", *sys.argv[1:]])
    lines = ["", command, HEADER]

    def on_result(job: Job, result) -> None:
        line = _format_row(job, result)
        print(line, flush=True)
        lines.append(line)

    runner = CampaignRunner(
        str(journal_path),
        # The reduced formulas are small; a generous base budget with 2x
        # escalation mirrors the paper's rerun-after-memory-kill protocol.
        retry=RetryPolicy(max_attempts=3, escalation=2.0),
        on_result=on_result,
        workers=args.workers,
    )
    report = runner.run(jobs)

    with open(RESULTS_DIR / "paper_scale.txt", "a") as table:
        table.write("\n".join(lines) + "\n")
    counts = report.counts()
    if counts.get("BUG_FOUND"):
        print("verification FAILED for some configuration", file=sys.stderr)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
