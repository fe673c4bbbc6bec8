"""``python -m repro staticcheck`` — the self-hosting invariant checker.

Examples::

    python -m repro staticcheck                       # scan src/repro
    python -m repro staticcheck src/repro --json
    python -m repro staticcheck --sarif --output staticcheck.sarif
    python -m repro staticcheck --baseline .staticcheck-baseline.json
    python -m repro staticcheck --select RS002,RS005
    python -m repro staticcheck --baseline .staticcheck-baseline.json \\
        --update-baseline   # re-capture exemptions, keeping justifications

Exit status mirrors ``python -m repro lint``: 0 — no (non-baselined)
error-level findings; 1 — at least one; 2 — the run itself was
misconfigured (unknown checker code, unreadable baseline, missing
path).  ``--list-checkers`` prints RS001–RS006; the rewrite-rule
registry is not source text and is checked by ``repro lint``.
``--json`` emits the same report schema as ``repro lint``
(``max_severity`` / ``summary`` / ``findings``) because both CLIs share
the :class:`~repro.analysis.diagnostics.Diagnostic` record and
:class:`~repro.analysis.diagnostics.AnalysisReport` wrapper.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from ..analysis.diagnostics import AnalysisReport, Diagnostic
from ..errors import ReproError
from .baseline import Baseline, apply_baseline
from .engine import all_checkers, run_project
from .sarif import to_sarif

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro staticcheck",
        description=(
            "Statically check the code-level invariants the verification "
            "pipeline relies on (exception taxonomy, deadline polls, "
            "single-writer journal, picklable payloads, ContextVar "
            "hygiene)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src/repro)",
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-lint JSON report schema on stdout",
    )
    output.add_argument(
        "--sarif",
        action="store_true",
        help="emit a SARIF 2.1.0 report on stdout",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the --json/--sarif report to FILE as well as gating "
        "on the exit code",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress findings recorded in this committed baseline; "
        "stale entries are reported as warnings",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with the current findings, keeping "
        "existing justifications (then exit 0)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated checker codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated checker codes to skip",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only errors and warnings (human output)",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="list the registered checkers and exit",
    )
    return parser


def _default_paths() -> List[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    return ["."]


def _split_codes(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [chunk for chunk in text.split(",") if chunk.strip()]


def _emit(text: str, output: Optional[str]) -> None:
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_checkers:
        for spec in all_checkers():
            scope = ",".join(sorted(spec.scope)) if spec.scope else "all"
            print(f"{spec.code}  {spec.name}  [scope: {scope}]")
            print(f"       {spec.description}")
        return 0
    try:
        paths = list(args.paths) or _default_paths()
        findings = run_project(
            paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )

        if args.update_baseline:
            if not args.baseline:
                raise ReproError("--update-baseline requires --baseline FILE")
            previous = None
            if os.path.exists(args.baseline):
                previous = Baseline.load(args.baseline)
            captured = [d for d in findings if d.is_error]
            Baseline.from_findings(captured, previous).save(args.baseline)
            print(
                f"baseline {args.baseline} updated: "
                f"{len(captured)} exemption(s) recorded"
            )
            return 0

        suppressed: List[Diagnostic] = []
        if args.baseline:
            baseline = Baseline.load(args.baseline)
            findings, suppressed, stale = apply_baseline(findings, baseline)
            findings.extend(stale)
    except ReproError as exc:
        print(f"staticcheck failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    report = AnalysisReport(findings)
    if args.json:
        _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True),
              args.output)
    elif args.sarif:
        _emit(json.dumps(to_sarif(findings), indent=2, sort_keys=True),
              args.output)
    else:
        shown = report
        if args.quiet:
            shown = AnalysisReport(
                [d for d in report.diagnostics if d.severity != "info"]
            )
        print(shown.render(title="Staticcheck findings"))
        if suppressed:
            print(f"{len(suppressed)} finding(s) suppressed by the baseline")
        if report.has_errors:
            print(
                f"\n{len(report.errors)} invariant violation(s) found",
                file=sys.stderr,
            )
    return report.exit_code
