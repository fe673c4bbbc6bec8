"""The run options every verification command shares.

One run is one :func:`~repro.core.verify` call, named by the same flags
wherever it is asked for: ``python -m repro``, ``trace``, ``perf
record`` and ``witness certify|explain`` take them all
(:func:`add_run_options`); ``campaign --grid`` takes them without the
sizes, which its grid supplies (:func:`add_check_options`); ``serve``
takes the budgets (:func:`add_budget_options`); ``lint`` takes the
family (:func:`add_family_option`); and ``campaign``, ``lint`` and the
service read the same ``NxK,...`` grid (:func:`parse_grid`).
:func:`verify_from_args` turns the parsed flags into the run.

The command-line modules import this one; ``import repro`` does not.
"""

from __future__ import annotations

import argparse
from typing import Callable, List, Optional, Tuple

from ..processor.bugs import Bug, BugKind
from ..processor.correctness import CRITERIA
from ..processor.families import family_names
from ..processor.params import ProcessorConfig
from .results import VerificationResult
from .verifier import METHODS, verify

__all__ = [
    "add_budget_options",
    "add_check_options",
    "add_family_option",
    "add_run_options",
    "parse_grid",
    "verify_from_args",
]


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """The flags naming one run: its sizes plus :func:`add_check_options`."""
    parser.add_argument(
        "--rob", type=int, default=16, help="reorder-buffer size N (default 16)"
    )
    parser.add_argument(
        "--width", type=int, default=4, help="issue width k (default 4)"
    )
    parser.add_argument(
        "--retire-width",
        type=int,
        default=None,
        help="retire width l (default: same as the issue width)",
    )
    add_check_options(parser)


def add_family_option(parser: argparse.ArgumentParser) -> None:
    """``--family``, the workload family of every configuration run."""
    parser.add_argument(
        "--family",
        choices=family_names(),
        default="reg-reg",
        help=(
            "workload family: reg-reg (the seed register-register model), "
            "branch (speculative branches with misprediction recovery), "
            "mem (loads/stores with store-to-load forwarding), or mixed "
            "(both); default reg-reg"
        ),
    )


def add_check_options(parser: argparse.ArgumentParser) -> None:
    """The flags naming what a run checks and its budgets, at any size."""
    add_family_option(parser)
    parser.add_argument(
        "--method",
        choices=METHODS,
        default="rewriting",
        help="verification method (default: rewriting)",
    )
    parser.add_argument(
        "--criterion",
        choices=CRITERIA,
        default="disjunction",
        help="correctness criterion (default: the paper's disjunction)",
    )
    parser.add_argument(
        "--bug",
        choices=BugKind.ALL,
        default=None,
        help="plant a defect before verifying",
    )
    parser.add_argument(
        "--entry", type=int, default=1, help="ROB entry the defect applies to"
    )
    parser.add_argument(
        "--operand",
        type=int,
        choices=(1, 2),
        default=1,
        help="data operand the defect applies to",
    )
    add_budget_options(parser)


def add_budget_options(parser: argparse.ArgumentParser) -> None:
    """The three budgets of a run: conflicts, wall clock and memory."""
    parser.add_argument(
        "--max-conflicts",
        type=int,
        default=None,
        metavar="N",
        help="abort when the SAT solver exceeds this many conflicts",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the whole run, enforced at every "
        "stage (simulation, rewriting, encoding, SAT, witness)",
    )
    parser.add_argument(
        "--max-memory",
        type=float,
        default=None,
        metavar="MB",
        help="memory budget for the whole run, in MiB",
    )


def parse_grid(text: str) -> List[Tuple[int, int]]:
    """The ``(N, k)`` sizes of an ``N1xK1,N2xK2,...`` grid, in order.

    Raises:
        ValueError: naming the first entry that is not of the form
            ``NxK``, or when the grid names no configuration.  The sizes
            themselves are not validated: :class:`ProcessorConfig` does
            that when a run is built.
    """
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_text, k_text = chunk.lower().split("x", 1)
            sizes.append((int(n_text), int(k_text)))
        except ValueError:
            raise ValueError(
                f"bad --grid entry {chunk!r}; expected the form NxK (e.g. 8x2)"
            ) from None
    if not sizes:
        raise ValueError("--grid names no configurations")
    return sizes


def verify_from_args(
    args: argparse.Namespace,
    announce: Optional[Callable[[str], None]] = None,
    certify: bool = False,
) -> VerificationResult:
    """Verify the run that :func:`add_run_options`' flags name.

    ``announce`` is called with a one-line description of the planted
    bug, if any, before the run starts; ``certify`` goes to
    :func:`~repro.core.verify` unchanged.
    Raises ``ValueError`` for a configuration or bug the design rejects.
    """
    config = ProcessorConfig(
        n_rob=args.rob,
        issue_width=args.width,
        retire_width=args.retire_width,
        family=args.family,
    )
    bug = None
    if args.bug is not None:
        bug = Bug(args.bug, entry=args.entry, operand=args.operand)
        if announce is not None:
            announce(f"Planted defect: {bug.describe()}")
    return verify(
        config,
        method=args.method,
        bug=bug,
        criterion=args.criterion,
        max_conflicts=args.max_conflicts,
        max_wall_seconds=args.deadline,
        max_memory_mb=args.max_memory,
        certify=certify,
    )
