"""``python -m repro perf`` and ``python -m repro trace`` — the
observability CLI.

``perf record`` runs one traced verification and writes a perf record
(:func:`~repro.obs.metrics.save_record`) of one row, its
:class:`~repro.obs.metrics.MetricsSnapshot`; ``perf grid`` writes one
row per run of :data:`GRID_ROWS`, the record the paper's tables are
rendered from (``benchmarks/bench_tables.py``); ``perf compare`` checks
a current record against a committed baseline under per-metric
tolerances — the perf-regression gate used by CI::

    python -m repro perf grid --out grid_current.json
    python -m repro perf compare benchmarks/baselines/grid.json \
        grid_current.json --tol "cpu.*=rel:20+abs:2"

``trace`` runs one traced verification and prints the span tree (or the
JSON / Chrome trace-event form)::

    python -m repro trace --rob 4 --width 2
    python -m repro trace --rob 3 --width 1 --family branch
    python -m repro trace --rob 8 --width 4 --format chrome --out t.json

``record`` and ``trace`` take the single-run CLI's run flags, defaults
included (:func:`repro.core.cli.add_run_options`); ``grid`` takes none.
A row's ``meta`` names its run (:data:`RUN_FIELDS`: configuration,
method, criterion and planted bug) and its outcome (the verdict and the
flagged slice).  ``compare`` pairs the two records' rows by run and
compares each pair; a row without a partner, or two rows naming one
run, make the records incomparable.

Exit status: ``perf compare`` returns 0 when every metric of every row
is within tolerance and every outcome matches, 1 otherwise, and 2 for
setup errors (an unreadable record, a bad or non-finite ``--tol``,
records of different runs); ``record``/``trace`` mirror the single-run
CLI (0 proved, 1 bug found) and use 2 for setup errors, an invalid
configuration included; ``grid`` returns 0 once every row is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from ..core.cli import add_run_options, verify_from_args
from ..core.results import VerificationResult
from ..errors import ReproError
from ..processor.bugs import Bug, BugKind
from .metrics import (
    DEFAULT_TOLERANCES,
    MetricsSnapshot,
    Tolerance,
    compare_snapshots,
    load_record,
    save_record,
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

#: The axes of the runs ``perf grid`` records; EXPERIMENTS.md names the
#: rows each table of the paper is read from.  Reg-reg designs under
#: rewriting span ``GRID_SIZES`` x ``GRID_WIDTHS`` (Tables 1, 4 and 5).
GRID_SIZES, GRID_WIDTHS = (32, 128, 256), (1, 4, 16)
#: Positive Equality alone spans ``PE_SIZES`` x ``PE_WIDTHS``, k <= N
#: (Tables 2 and 3); the largest of these designs also runs under
#: rewriting, for the headline speedup.
PE_SIZES, PE_WIDTHS = (1, 2, 3), (1, 2)
#: Sect. 7.2: ``GRID_BUG`` planted in the design with ROB size and width
#: ``BUG_DESIGN``, whose correct twin is a reg-reg row.
BUG_DESIGN = (128, 4)
GRID_BUG = Bug(BugKind.FORWARD_WRONG_SOURCE, entry=72)
#: The workload families under rewriting at width 1, as (family, N).
FAMILY_ROWS = (("mem", 3), ("mem", 16), ("branch", 2), ("branch", 3),
               ("branch", 4), ("mixed", 2))

#: The runs ``perf grid`` records, each a ``perf record`` command line.
GRID_ROWS = (
    *(f"--rob {n} --width {k}" for n in GRID_SIZES for k in GRID_WIDTHS),
    f"--rob {PE_SIZES[-1]} --width {PE_WIDTHS[-1]}",
    "--rob {} --width {} --bug {} --entry {}".format(
        *BUG_DESIGN, GRID_BUG.kind, GRID_BUG.entry),
    *(f"--rob {n} --width 1 --family {family}" for family, n in FAMILY_ROWS),
    *(f"--rob {n} --width {k} --method positive_equality"
      for n in PE_SIZES for k in PE_WIDTHS if k <= n),
)

Run = Tuple[object, ...]


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
        help="where to write the one-row perf record",
    )
    record.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write the run's Chrome trace-event JSON here",
    )
    record.add_argument(
        "--csv-out", default=None, metavar="FILE",
        help="also write the metrics as CSV rows here",
    )

    grid = sub.add_parser(
        "grid", help="record every run of the fixed grid into one record"
    )
    grid.add_argument(
        "--out", required=True, metavar="FILE",
        help="where to write the perf record",
    )

    compare = sub.add_parser(
        "compare", help="compare a current perf record against a baseline"
    )
    compare.add_argument("baseline", help="baseline perf record JSON")
    compare.add_argument("current", help="current perf record JSON")
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
    if args.command == "grid":
        return _perf_grid(args)
    return _perf_compare(args)


def _record(
    args: argparse.Namespace,
) -> Tuple[VerificationResult, MetricsSnapshot]:
    """Run what ``perf record``'s flags name; the result and its row."""
    result = verify_from_args(args)
    return result, snapshot_from_result(result, meta={
        "criterion": args.criterion,
        "bug": result.bug.describe() if result.bug is not None else None,
        "suspected_entry": result.suspected_entry,
    })


def _perf_record(args: argparse.Namespace) -> int:
    try:
        result, snapshot = _record(args)
    except (ReproError, ValueError) as exc:
        print(f"perf record failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    save_record(args.out, [snapshot])
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


def _perf_grid(args: argparse.Namespace) -> int:
    parser = build_perf_parser()
    rows = []
    for line in GRID_ROWS:
        try:
            result, snapshot = _record(
                parser.parse_args(["record", *line.split()])
            )
        except (ReproError, ValueError) as exc:
            print(f"perf grid failed on {line!r}: {type(exc).__name__}: "
                  f"{exc}", file=sys.stderr)
            return 2
        rows.append(snapshot)
        verdict = "PROVED" if result.correct else "BUG FOUND"
        print(f"{line}: {verdict} "
              f"({snapshot.metrics['cpu.total']:.2f} s CPU)")
    save_record(args.out, rows)
    print(f"recorded {len(rows)} rows -> {args.out}")
    return 0


def _run_of(row: MetricsSnapshot) -> Run:
    return tuple(row.meta.get(name, default) for name, default in RUN_FIELDS)


def _describe_run(run: Run) -> str:
    return ", ".join(
        f"{name} {value!r}" for (name, _), value in zip(RUN_FIELDS, run)
    )


def _rows_by_run(path: str) -> Dict[Run, MetricsSnapshot]:
    """The rows of the record at ``path``, keyed by the run each names."""
    rows: Dict[Run, MetricsSnapshot] = {}
    for row in load_record(path):
        run = _run_of(row)
        if not all(isinstance(value, (str, int, float, type(None)))
                   for value in run):
            raise ValueError(f"{path}: a row's run fields must be JSON "
                             f"scalars ({_describe_run(run)})")
        if run in rows:
            raise ValueError(
                f"{path}: two rows name one run ({_describe_run(run)})"
            )
        rows[run] = row
    return rows


def _perf_compare(args: argparse.Namespace) -> int:
    try:
        baseline = _rows_by_run(args.baseline)
        current = _rows_by_run(args.current)
        rules = [_parse_tolerance(text) for text in args.tol]
        rules += DEFAULT_TOLERANCES
        if args.default_rel is not None or args.default_abs is not None:
            # Replace the catch-all default while keeping the timing rules.
            rules = [rule for rule in rules if rule[0] != "*"]
            rules.append(("*", Tolerance(
                rel=args.default_rel or 0.0, abs=args.default_abs or 0.0
            )))
    except (OSError, ValueError) as exc:
        print(f"perf compare error: {exc}", file=sys.stderr)
        return 2
    unpaired = [
        f"{side} row ({_describe_run(run)}) has no {other} row"
        for side, rows, other, others in (
            ("baseline", baseline, "current", current),
            ("current", current, "baseline", baseline),
        )
        for run in rows
        if run not in others
    ]
    if unpaired:
        print(
            "perf compare error: the records measure different runs: "
            + "; ".join(unpaired),
            file=sys.stderr,
        )
        return 2
    reports = [
        (_describe_run(run), compare_snapshots(row, current[run], rules))
        for run, row in baseline.items()
    ]
    failed = sum(not report.ok for _, report in reports)
    if args.json:
        print(json.dumps({
            "ok": not failed,
            "rows": [dict(report.to_dict(), run=run)
                     for run, report in reports],
        }, indent=2, sort_keys=True))
    else:
        for run, report in reports:
            if args.all or not report.ok:
                print(report.render(only_failures=not args.all, title=run))
        print(
            f"perf compare: {failed} of {len(reports)} row(s) regressed"
            if failed
            else f"perf compare: no regressions in {len(reports)} row(s)"
        )
    return 1 if failed else 0


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
