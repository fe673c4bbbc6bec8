"""``python -m repro campaign`` — run or resume a verification campaign.

Job sources (combine freely; at least one is required unless resuming):

* ``--spec jobs.json`` — a JSON list of job dicts
  (see :meth:`repro.campaign.jobs.Job.to_dict`);
* ``--grid "8x2,16x4"`` — generate one job per ``NxK`` configuration;
  the single-run CLI's flags other than the sizes (``--family``,
  ``--method``, ``--bug``, the budgets, ...) apply to every such job
  (:func:`repro.core.cli.add_check_options`);
* neither — resume the jobs recorded in the journal.

The journal (``--journal``) makes the campaign crash-safe: re-running the
same command after an interruption re-runs only unfinished jobs.  Exit
status: 0 when every job is ``PROVED``, 1 when any job is ``BUG_FOUND``,
4 when any job is ``INCONCLUSIVE``, 2 on a campaign setup error.

``--workers N`` fans jobs out to N worker processes; the parent stays
the single journal writer, so resume semantics are identical to a
sequential run.  ``--hang-timeout S`` is the one supervision knob: a
worker silent for S seconds is killed and its job re-queued.
``--inject KIND@JOB_ID[:ATTEMPT]`` plants a deterministic fault (for
smoke-testing the recovery paths, e.g. in CI).

The retry flags (:func:`add_retry_options`) and the budget flags are
shared with ``serve``, which builds its policy with the same
:func:`retry_policy`.

Examples::

    python -m repro campaign --journal camp.jsonl --grid 4x2,8x2,8x4
    python -m repro campaign --journal camp.jsonl --spec jobs.json \
        --max-attempts 4 --escalation 2.0
    python -m repro campaign --journal camp.jsonl --grid 8x2 --workers 4
    python -m repro campaign --journal camp.jsonl        # resume
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..core.cli import add_check_options, parse_grid
from ..errors import CampaignError, JournalError
from .faults import Fault, FaultPlan
from .jobs import Job
from .runner import CampaignRunner, RetryPolicy

__all__ = ["add_retry_options", "build_parser", "main", "retry_policy"]


def add_retry_options(parser: argparse.ArgumentParser) -> None:
    """The flags of the retry schedule: attempts and escalation."""
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="A",
        help="attempts per job (default 3)",
    )
    parser.add_argument(
        "--escalation",
        type=float,
        default=2.0,
        metavar="F",
        help="budget multiplier between attempts (default 2.0)",
    )


def retry_policy(args: argparse.Namespace) -> RetryPolicy:
    """The policy that :func:`add_retry_options`' flags and the budget
    flags (:func:`repro.core.cli.add_budget_options`) name; the budgets
    become every job's first-attempt base."""
    return RetryPolicy(
        max_attempts=args.max_attempts,
        escalation=args.escalation,
        base_conflicts=args.max_conflicts
        if args.max_conflicts is not None
        else RetryPolicy.base_conflicts,
        base_wall_seconds=args.deadline,
        base_memory_mb=args.max_memory,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description=(
            "Run a batch of verification jobs with retries, budget "
            "escalation and a crash-safe journal.  "
            "The budget flags set each job's first attempt; every retry "
            "multiplies them by --escalation."
        ),
    )
    parser.add_argument(
        "--journal",
        required=True,
        metavar="PATH",
        help="JSONL journal; existing journals are resumed, not re-run",
    )
    parser.add_argument(
        "--spec",
        metavar="FILE",
        help="JSON file holding a list of job dicts",
    )
    parser.add_argument(
        "--grid",
        metavar="N1xK1,N2xK2,...",
        help="generate jobs for the given ROB-size x issue-width configs",
    )
    add_check_options(parser)
    add_retry_options(parser)
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="discard any existing journal and start over",
    )
    parser.add_argument(
        "--strict-journal",
        action="store_true",
        help="fail on mid-file journal corruption instead of skipping it",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="run the soundness analyzers on every job and record their "
        "findings in the journal",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="certify every verdict (DRUP proof check / counterexample "
        "replay) and record the witness digest in the journal",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan jobs out to N worker processes (default: the machine's "
        "CPU count — more buys nothing for this CPU-bound workload and "
        "journals an oversubscription warning); the parent remains the "
        "single journal writer",
    )
    parser.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="with --workers: kill workers silent for S seconds and "
        "re-queue their job as a WorkerHung failed attempt; workers "
        "beat every S/10 seconds (default 30)",
    )
    parser.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="KIND[:ARG[:ARG]]@JOB_ID[:ATTEMPT|*]",
        help="plant a deterministic fault (repeatable), e.g. "
        "solver-timeout@rw-N4-k2:1, hang@rw-N3-k1:* (every attempt), "
        "memory-bloat:64@rw-N4-k2, slow:sat:0.5@rw-N4-k2; "
        "see repro.campaign.faults for kinds",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    return parser


def _collect_jobs(args: argparse.Namespace) -> Optional[List[Job]]:
    jobs: List[Job] = []
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:
                raise CampaignError(f"{args.spec}: not JSON: {exc}") from None
        if not isinstance(payload, list):
            raise CampaignError(
                f"{args.spec}: expected a JSON list of job dicts"
            )
        jobs.extend(Job.from_dict(item) for item in payload)
    if args.grid:
        try:
            sizes = parse_grid(args.grid)
        except ValueError as exc:
            raise CampaignError(str(exc)) from None
        for n_rob, width in sizes:
            jobs.append(
                Job.build(
                    n_rob,
                    width,
                    family=args.family,
                    method=args.method,
                    criterion=args.criterion,
                    bug_kind=args.bug,
                    bug_entry=args.entry,
                    bug_operand=args.operand,
                    max_conflicts=args.max_conflicts,
                    max_wall_seconds=args.deadline,
                    max_memory_mb=args.max_memory,
                )
            )
    return jobs or None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    log = (lambda message: None) if args.quiet else print
    try:
        jobs = _collect_jobs(args)
        if args.fresh and os.path.exists(args.journal):
            os.remove(args.journal)
        fault_plan = None
        if args.inject:
            fault_plan = FaultPlan(Fault.parse(text) for text in args.inject)
        runner = CampaignRunner(
            args.journal,
            retry=retry_policy(args),
            fault_plan=fault_plan,
            log=log,
            strict_journal=args.strict_journal,
            analyze=args.analyze,
            certify=args.certify,
            workers=args.workers
            if args.workers is not None
            else (os.cpu_count() or 1),
            hang_timeout=args.hang_timeout,
        )
        report = runner.run(jobs)
    except (CampaignError, JournalError, OSError) as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    print()
    print(report.summary())
    return report.exit_code()
