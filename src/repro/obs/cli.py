"""``python -m repro perf`` and ``python -m repro trace`` — the
observability CLI.

``perf record`` runs one traced verification and writes its
:class:`~repro.obs.metrics.MetricsSnapshot`; ``perf compare`` checks a
current snapshot against a committed baseline under per-metric
tolerances — the perf-regression gate used by CI::

    python -m repro perf record --rob 4 --width 2 --out current.json \
        --trace-out trace.json
    python -m repro perf compare benchmarks/baselines/perf_smoke.json \
        current.json --tol "timings.*=rel:25" --default-rel 0.5

``trace`` runs one traced verification and prints the span tree (or the
JSON / Chrome trace-event form)::

    python -m repro trace --rob 4 --width 2
    python -m repro trace --rob 3 --width 1 --family branch
    python -m repro trace --rob 8 --width 4 --format chrome --out t.json

``record`` and ``trace`` take the single-run CLI's run flags, defaults
included (:func:`repro.core.cli.add_run_options`).  ``record`` writes the
run's configuration, method, criterion and planted bug into the
snapshot's ``meta``; ``compare`` refuses two snapshots whose ``meta``
disagree on any of them, since their counts measure different runs.

Exit status: ``perf compare`` returns 0 when every metric is within
tolerance, 1 otherwise, and 2 for setup errors (an unreadable snapshot,
a bad ``--tol``, snapshots of different runs); ``record``/``trace``
mirror the single-run CLI (0 proved, 1 bug found) and use 2 for setup
errors, an invalid configuration included.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from ..core.cli import add_run_options, verify_from_args
from ..errors import ReproError
from .metrics import (
    DEFAULT_TOLERANCES,
    MetricsSnapshot,
    Tolerance,
    compare_snapshots,
    snapshot_from_result,
)
from .exporters import (
    metrics_to_csv,
    render_span_tree,
    trace_to_chrome,
    trace_to_json,
)

__all__ = ["perf_main", "trace_main"]

#: The ``meta`` fields naming the run a snapshot measured, each with the
#: value a snapshot that lacks the field reads as.
RUN_FIELDS = (
    ("config", None),
    ("method", None),
    ("criterion", "disjunction"),
    ("bug", None),
)


def _parse_tolerance(text: str) -> Tuple[str, Tolerance]:
    """Parse ``PATTERN=rel:R[+abs:A][+advisory]`` specs.

    ``advisory`` marks the pattern's metrics as report-only: exceedances
    are listed but never fail the gate (the wall-clock treatment).
    """
    if "=" not in text:
        raise ValueError(
            f"bad --tol {text!r}; expected PATTERN=rel:R[+abs:A][+advisory]"
        )
    pattern, spec = text.split("=", 1)
    tokens = [t for t in spec.replace("+", ":").split(":") if t.strip()]
    advisory = False
    while "advisory" in tokens:
        tokens.remove("advisory")
        advisory = True
    if len(tokens) % 2 != 0:
        raise ValueError(f"bad --tol {text!r}; expected rel:R and/or abs:A")
    rel, absolute = 0.0, 0.0
    for key, value in zip(tokens[::2], tokens[1::2]):
        if key == "rel":
            rel = float(value)
        elif key == "abs":
            absolute = float(value)
        else:
            raise ValueError(f"bad --tol key {key!r}; use rel/abs/advisory")
    return pattern, Tolerance(rel=rel, abs=absolute, advisory=advisory)


def build_perf_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="Record and compare perf-metric snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run one traced verification and save its metrics"
    )
    add_run_options(record)
    record.add_argument(
        "--out", default="perf_snapshot.json", metavar="FILE",
        help="where to write the MetricsSnapshot JSON",
    )
    record.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write the run's Chrome trace-event JSON here",
    )
    record.add_argument(
        "--csv-out", default=None, metavar="FILE",
        help="also write the metrics as CSV rows here",
    )

    compare = sub.add_parser(
        "compare", help="compare a current snapshot against a baseline"
    )
    compare.add_argument("baseline", help="baseline MetricsSnapshot JSON")
    compare.add_argument("current", help="current MetricsSnapshot JSON")
    compare.add_argument(
        "--tol", action="append", default=[], metavar="PATTERN=rel:R[+abs:A]",
        help="per-metric tolerance override (first match wins; repeatable)",
    )
    compare.add_argument(
        "--default-rel", type=float, default=None, metavar="R",
        help="override the default relative tolerance for counts",
    )
    compare.add_argument(
        "--default-abs", type=float, default=None, metavar="A",
        help="override the default absolute tolerance for counts",
    )
    compare.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    compare.add_argument(
        "--all", action="store_true",
        help="list every metric, not only regressions",
    )
    return parser


def perf_main(argv: Optional[List[str]] = None) -> int:
    args = build_perf_parser().parse_args(argv)
    if args.command == "record":
        return _perf_record(args)
    return _perf_compare(args)


def _perf_record(args: argparse.Namespace) -> int:
    try:
        result = verify_from_args(args)
    except (ReproError, ValueError) as exc:
        print(f"perf record failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    snapshot = snapshot_from_result(result, meta={
        "criterion": args.criterion,
        "bug": result.bug.describe() if result.bug is not None else None,
    })
    snapshot.save(args.out)
    print(f"recorded {len(snapshot.metrics)} metrics -> {args.out}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace_to_chrome(result.trace), handle)
        print(f"chrome trace -> {args.trace_out}")
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as handle:
            handle.write(metrics_to_csv(snapshot))
        print(f"csv metrics -> {args.csv_out}")
    return 0 if result.correct else 1


def _perf_compare(args: argparse.Namespace) -> int:
    try:
        baseline = MetricsSnapshot.load(args.baseline)
        current = MetricsSnapshot.load(args.current)
        overrides = [_parse_tolerance(text) for text in args.tol]
    except (OSError, ValueError) as exc:
        print(f"perf compare error: {exc}", file=sys.stderr)
        return 2
    differ = [
        f"{name} {baseline.meta.get(name, default)!r} != "
        f"{current.meta.get(name, default)!r}"
        for name, default in RUN_FIELDS
        if baseline.meta.get(name, default) != current.meta.get(name, default)
    ]
    if differ:
        print(
            "perf compare error: the snapshots measure different runs "
            f"({'; '.join(differ)})",
            file=sys.stderr,
        )
        return 2
    rules = list(overrides) + list(DEFAULT_TOLERANCES)
    if args.default_rel is not None or args.default_abs is not None:
        fallback = Tolerance(
            rel=args.default_rel or 0.0, abs=args.default_abs or 0.0
        )
        # Replace the catch-all default while keeping the timing rules.
        rules = [rule for rule in rules if rule[0] != "*"]
        rules.append(("*", fallback))
    report = compare_snapshots(baseline, current, rules=rules)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(only_failures=not args.all))
    return 0 if report.ok else 1


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run one traced verification and export its span tree."
        ),
    )
    add_run_options(parser)
    parser.add_argument(
        "--format", choices=("tree", "json", "chrome"), default="tree",
        help="output format (default: human-readable tree)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    return parser


def trace_main(argv: Optional[List[str]] = None) -> int:
    args = build_trace_parser().parse_args(argv)
    try:
        result = verify_from_args(args)
    except (ReproError, ValueError) as exc:
        print(f"trace failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "tree":
        text = render_span_tree(result.trace)
    elif args.format == "json":
        text = trace_to_json(result.trace)
    else:
        text = json.dumps(trace_to_chrome(result.trace))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"trace -> {args.out}")
    else:
        print(text)
    return 0 if result.correct else 1
