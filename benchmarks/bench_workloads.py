"""Does rewriting-rule ROB-size independence survive the workload families?

The paper's central result — after the rewriting rules remove the
retirement entries, the residual SAT problem is independent of the ROB
size — is established for register-register ALU traffic.  This benchmark
asks whether it survives each workload-family extension:

* ``mem`` (loads/stores with forwarding): the dual-chain engine reduces
  the DMem retirement chain exactly like the RegFile chain, so the
  residual CNF should be byte-identical across ROB sizes — independence
  **survives**.
* ``branch``/``mixed`` (speculation with misprediction recovery): the
  wrong-path flag couples the retirement entries across the flush seam,
  the engine declines to reduce (``reduction="none"``), and the full
  formula goes to SAT — independence is **lost** and cost grows with N.
* ``reg-reg``: the seed behaviour, as a control.

Each cell verifies the correct design and records wall-clock phases and
CNF statistics; Positive-Equality-only columns show what every family
costs without the rewriting rules.  Budget-exhausted cells (the paper's
out-of-memory analogue) are recorded with ``"status": "budget"``.

The snapshot is written to ``BENCH_workloads.json`` at the repository
root (chart source for EXPERIMENTS.md §"Workload families").  ``--check``
exits non-zero unless the shape holds: mem CNF stats constant across N,
branch SAT seconds growing with N.

Run: ``PYTHONPATH=src python benchmarks/bench_workloads.py
[--check] [--out PATH]``
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.core.verifier import verify                          # noqa: E402
from repro.processor.params import ProcessorConfig              # noqa: E402

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Per-cell CPU budget; exhausted cells chart the scaling wall the way
#: the paper's 4 GB memory limit did.
BUDGET_SECONDS = 120.0 if FULL else 60.0

#: ROB sizes per (family, method).  Rewriting sweeps are sized so the
#: flat families stay flat over a wide range while the fallback families
#: visibly climb toward the budget; PE-only sweeps hit the wall earlier.
GRID = {
    ("reg-reg", "rewriting"): [3, 6, 10, 16] if not FULL else [3, 8, 16, 32],
    ("mem", "rewriting"): [3, 6, 10, 16] if not FULL else [3, 8, 16, 32],
    ("branch", "rewriting"): [2, 3, 4, 5],
    ("mixed", "rewriting"): [2, 3, 4],
    ("reg-reg", "positive_equality"): [2, 3],
    ("branch", "positive_equality"): [2, 3, 4],
    ("mem", "positive_equality"): [2, 3, 4],
    ("mixed", "positive_equality"): [2, 3],
}

ISSUE_WIDTH = 1


def _cell(family: str, method: str, size: int) -> dict:
    config = ProcessorConfig(size, ISSUE_WIDTH, family=family)
    row = {
        "family": family,
        "method": method,
        "n_rob": size,
        "issue_width": ISSUE_WIDTH,
    }
    start = time.time()
    try:
        result = verify(config, method=method, max_wall_seconds=BUDGET_SECONDS)
    except TimeoutError:
        row.update(status="budget", wall_seconds=round(time.time() - start, 2))
        return row
    assert result.correct, f"correct {family} design reported buggy"
    row.update(
        status="proved",
        wall_seconds=round(time.time() - start, 2),
        sat_seconds=round(result.timings.get("sat", 0.0), 4),
        total_seconds=round(result.timings.get("total", 0.0), 4),
    )
    if result.rewrite is not None:
        row["reduction"] = result.rewrite.reduction
    stats = result.encoding_stats
    if stats is not None:
        row.update(
            cnf_vars=stats.cnf_vars,
            cnf_clauses=stats.cnf_clauses,
            eij_primary=stats.eij_primary,
        )
    return row


def _sweep() -> list:
    rows = []
    for (family, method), sizes in GRID.items():
        for size in sizes:
            row = _cell(family, method, size)
            rows.append(row)
            print(
                f"  {family:8s} {method:18s} N={size:<3d} "
                f"{row['status']:6s} {row['wall_seconds']:7.2f}s "
                f"vars={row.get('cnf_vars', '-')}"
            )
    return rows


def _shape_ok(rows: list) -> list:
    """Return a list of shape violations (empty == the claim holds)."""
    problems = []

    def cells(family, method):
        return [
            r for r in rows
            if r["family"] == family and r["method"] == method
        ]

    # Memory family: full reduction, residual CNF constant across N.
    mem = [r for r in cells("mem", "rewriting") if r["status"] == "proved"]
    if len(mem) < 2:
        problems.append("mem/rewriting: fewer than two proved cells")
    else:
        shapes = {
            (r.get("cnf_vars"), r.get("cnf_clauses"), r.get("eij_primary"))
            for r in mem
        }
        if len(shapes) != 1:
            problems.append(f"mem/rewriting CNF varies with N: {shapes}")
        if any(r.get("reduction") != "full" for r in mem):
            problems.append("mem/rewriting did not fully reduce")

    # Branch family: fallback, SAT cost strictly growing with N.
    branch = [
        r for r in cells("branch", "rewriting") if r["status"] == "proved"
    ]
    if any(r.get("reduction") != "none" for r in branch):
        problems.append("branch/rewriting did not fall back")
    secs = [r["sat_seconds"] for r in sorted(branch, key=lambda r: r["n_rob"])]
    if len(secs) >= 2 and secs[-1] < 4 * secs[0]:
        problems.append(f"branch SAT cost did not grow with N: {secs}")

    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the headline shape holds (mem CNF constant "
        "across N, branch cost growing)",
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_workloads.json"),
        metavar="PATH",
        help="snapshot destination (default: repo root)",
    )
    args = parser.parse_args(argv)

    print(f"workload-family sweep (budget {BUDGET_SECONDS:.0f}s per cell)")
    rows = _sweep()
    problems = _shape_ok(rows)

    snapshot = {
        "meta": {
            "bench": "workloads",
            "issue_width": ISSUE_WIDTH,
            "budget_seconds": BUDGET_SECONDS,
            "full": FULL,
        },
        "rows": rows,
        "shape_problems": problems,
    }
    pathlib.Path(args.out).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if problems:
        for problem in problems:
            print(f"SHAPE: {problem}")
        if args.check:
            return 1
    else:
        print("shape holds: mem stays ROB-size independent, branch does not")
    return 0


if __name__ == "__main__":
    sys.exit(main())
