"""``python -m repro lint`` — run the soundness analyzers.

Examples::

    python -m repro lint
    python -m repro lint --grid 3x2,4x2 --method rewriting
    python -m repro lint --json
    python -m repro lint --rules-only

The default run audits the rewrite-rule registry (side conditions,
soundness, critical-pair confluence and termination) plus a couple of
small processor configurations under both verification methods.
``--rules-only`` and ``--no-rules`` exclude each other.  Exit status:
0 — no error-level findings; 1 — at least one error-level finding
(soundness invariant violated); 2 — the lint run itself was
misconfigured or crashed on a structured error.

``--json`` prints a machine-readable report: ``max_severity``, a
per-severity ``summary`` and the full ``findings`` list (each finding
carries ``severity``, ``stage``, ``check``, ``subject``, ``message`` and
a structured ``data`` payload such as the witness interpretation of an
unsound rewrite rule).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..errors import ReproError
from ..processor.params import ProcessorConfig
from .diagnostics import ERROR, WARNING
from .pipeline import AnalysisReport, build_report

__all__ = ["build_parser", "main"]

#: Configurations small enough for CI yet exercising width > 1 (two
#: updates per front entry) and a non-trivial e_ij comparison graph.
DEFAULT_GRID = "2x1,3x2"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "Audit the verification pipeline: polarity cross-check, "
            "rewrite-rule soundness, confluence and termination, CNF/e_ij "
            "invariants and DAG hygiene."
        ),
    )
    parser.add_argument(
        "--grid",
        default=DEFAULT_GRID,
        metavar="N1xK1,N2xK2,...",
        help=f"configurations to audit (default: {DEFAULT_GRID})",
    )
    parser.add_argument(
        "--method",
        choices=("rewriting", "positive_equality", "both"),
        default="both",
        help="verification method(s) to audit (default: both)",
    )
    parser.add_argument(
        "--criterion",
        choices=("disjunction", "case_split"),
        default="disjunction",
        help="correctness criterion (default: disjunction)",
    )
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument(
        "--no-rules",
        action="store_true",
        help="skip the rewrite-rule registry analysis",
    )
    scope.add_argument(
        "--rules-only",
        action="store_true",
        help="analyze only the rewrite-rule registry (no configurations)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON on stdout",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only errors and warnings (human output)",
    )
    return parser


def _parse_grid(grid: str) -> List[ProcessorConfig]:
    configs: List[ProcessorConfig] = []
    for chunk in grid.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_text, k_text = chunk.lower().split("x", 1)
            configs.append(
                ProcessorConfig(n_rob=int(n_text), issue_width=int(k_text))
            )
        except ValueError as exc:
            raise ReproError(
                f"bad --grid entry {chunk!r}; expected the form NxK "
                f"(e.g. 3x2): {exc}"
            )
    return configs


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configs = [] if args.rules_only else _parse_grid(args.grid)
        if args.method == "both":
            methods: Sequence[str] = ("rewriting", "positive_equality")
        else:
            methods = (args.method,)
        report = build_report(
            configs,
            methods=methods,
            criterion=args.criterion,
            check_rules=not args.no_rules,
        )
    except ReproError as exc:
        print(f"lint failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        shown = report
        if args.quiet:
            shown = AnalysisReport([
                diag for diag in report.diagnostics
                if diag.severity in (ERROR, WARNING)
            ])
        print(shown.render())
        if report.has_errors:
            print(
                f"\n{len(report.errors)} soundness error(s) found",
                file=sys.stderr,
            )
    return report.exit_code
