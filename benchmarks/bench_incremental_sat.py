"""Cold vs incremental SAT on repeated CNFs.

Each CNF is encoded once and the same ``Cnf`` object is re-solved, so
this measures what a :class:`repro.sat.SessionPool` buys when a CNF
comes back with the same digest.  A campaign retry re-encodes the
formula instead, and the pool resumes it only when the new CNF repeats
the digest; EXPERIMENTS.md measures that path through ``verify()``.

1. **Grid sweep** — the rewriting-method CNFs of the ``N x k`` grid
   (N in 8/16/24, k in 1/2).  The rewritten correspondence formula is
   ROB-size independent, so the k=1 column encodes to byte-identical
   CNFs: under a :class:`repro.sat.SessionPool`, ``solve_cnf`` solves the
   digest once and resumes it for the other sizes, while the cold path pays the
   full root-propagation cascade every time.

2. **Budget-escalation retries** — one small Positive-Equality CNF
   re-solved under an escalating conflict budget (the shape of the
   campaign's retry schedule).  The cold path restarts the search from
   zero on every attempt; the incremental session keeps its learned
   clauses, so the attempts compose instead of repeating.

Both phases count ``sat.propagations`` (deterministic, machine
independent) and CPU seconds (advisory).  The snapshot is written to
``BENCH_incremental_sat.json`` at the repository root; ``--check`` exits
non-zero unless the incremental totals beat the cold ones on
propagations — the CI perf-smoke gate.

Run: ``PYTHONPATH=src python benchmarks/bench_incremental_sat.py
[--check] [--out PATH]``
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.encode.evc import encode_validity                    # noqa: E402
from repro.obs.metrics import MetricsSnapshot                   # noqa: E402
from repro.processor.correctness import (                       # noqa: E402
    build_correctness_formula,
    run_diagram,
)
from repro.processor.params import ProcessorConfig              # noqa: E402
from repro.rewriting.engine import rewrite_diagram              # noqa: E402
from repro.sat.solver import (                                 # noqa: E402
    SessionPool,
    cnf_digest,
    solve_cnf,
    use_session_pool,
)

from common import save_table                                   # noqa: E402

GRID_SIZES = [8, 16, 24]
GRID_WIDTHS = [1, 2]

PE_SIZE = 3
PE_WIDTH = 1
#: The campaign's escalation schedule, scaled to the pe-small instance
#: (~1.7k conflicts to UNSAT): two undersized attempts, then unbounded.
ESCALATION_CONFLICTS = [256, 1024, None]


def _grid_cnfs():
    """The rewriting-method CNF of every grid point, in sweep order."""
    cnfs = []
    for width in GRID_WIDTHS:
        for size in GRID_SIZES:
            config = ProcessorConfig(n_rob=size, issue_width=width)
            rewrite = rewrite_diagram(run_diagram(config))
            assert rewrite.succeeded, f"rewrite failed for N={size} k={width}"
            encoded = encode_validity(
                rewrite.reduced_formula, memory_mode="conservative"
            )
            assert encoded.constant_validity is None
            cnfs.append((f"N={size} k={width}", encoded.cnf))
    return cnfs


def _pe_cnf():
    config = ProcessorConfig(n_rob=PE_SIZE, issue_width=PE_WIDTH)
    formula = build_correctness_formula(run_diagram(config))
    encoded = encode_validity(formula, memory_mode="precise")
    assert encoded.constant_validity is None
    return encoded.cnf


def _phase_grid():
    cnfs = _grid_cnfs()
    distinct_digests = len({cnf_digest(cnf) for _, cnf in cnfs})

    cold_props = cold_cpu = 0.0
    start = time.process_time()
    statuses = []
    for _, cnf in cnfs:
        result = solve_cnf(cnf)
        statuses.append(result.status)
        cold_props += result.propagations
    cold_cpu = time.process_time() - start

    pool = SessionPool()
    inc_props = 0.0
    start = time.process_time()
    with use_session_pool(pool):
        for label, cnf in cnfs:
            result = solve_cnf(cnf)
            assert result.status == statuses.pop(0), label
            inc_props += result.propagations
    inc_cpu = time.process_time() - start

    return {
        "jobs": len(cnfs),
        "distinct_digests": distinct_digests,
        "session_hits": pool.hits,
        "cold_props": cold_props,
        "inc_props": inc_props,
        "cold_cpu": cold_cpu,
        "inc_cpu": inc_cpu,
    }


def _phase_escalation():
    cnf = _pe_cnf()

    cold_props = 0.0
    cold_attempts = 0
    start = time.process_time()
    for budget in ESCALATION_CONFLICTS:
        cold_attempts += 1
        result = solve_cnf(cnf, max_conflicts=budget)
        cold_props += result.propagations
        if result.status != "unknown":
            break
    cold_cpu = time.process_time() - start
    cold_status = result.status

    inc_props = 0.0
    inc_attempts = 0
    start = time.process_time()
    with use_session_pool(SessionPool()):
        for budget in ESCALATION_CONFLICTS:
            inc_attempts += 1
            result = solve_cnf(cnf, max_conflicts=budget)
            inc_props += result.propagations
            if result.status != "unknown":
                break
    inc_cpu = time.process_time() - start
    assert result.status == cold_status

    return {
        "status": cold_status,
        "cold_attempts": cold_attempts,
        "inc_attempts": inc_attempts,
        "cold_props": cold_props,
        "inc_props": inc_props,
        "cold_cpu": cold_cpu,
        "inc_cpu": inc_cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless incremental beats cold on sat.propagations "
        "in both phases (the CI gate; CPU numbers stay advisory)",
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_incremental_sat.json"),
        metavar="PATH",
        help="snapshot destination (default: repo root)",
    )
    args = parser.parse_args(argv)

    grid = _phase_grid()
    esc = _phase_escalation()

    cold_props = grid["cold_props"] + esc["cold_props"]
    inc_props = grid["inc_props"] + esc["inc_props"]
    cold_cpu = grid["cold_cpu"] + esc["cold_cpu"]
    inc_cpu = grid["inc_cpu"] + esc["inc_cpu"]

    snapshot = MetricsSnapshot(
        metrics={
            "grid.jobs": float(grid["jobs"]),
            "grid.distinct_digests": float(grid["distinct_digests"]),
            "grid.session_hits": float(grid["session_hits"]),
            "grid.cold.sat.propagations": grid["cold_props"],
            "grid.incremental.sat.propagations": grid["inc_props"],
            "grid.cold.cpu_seconds": grid["cold_cpu"],
            "grid.incremental.cpu_seconds": grid["inc_cpu"],
            "escalation.cold.attempts": float(esc["cold_attempts"]),
            "escalation.incremental.attempts": float(esc["inc_attempts"]),
            "escalation.cold.sat.propagations": esc["cold_props"],
            "escalation.incremental.sat.propagations": esc["inc_props"],
            "escalation.cold.cpu_seconds": esc["cold_cpu"],
            "escalation.incremental.cpu_seconds": esc["inc_cpu"],
            "total.cold.sat.propagations": cold_props,
            "total.incremental.sat.propagations": inc_props,
            "total.cold.cpu_seconds": cold_cpu,
            "total.incremental.cpu_seconds": inc_cpu,
        },
        meta={
            "bench": "incremental_sat",
            "grid": f"N={GRID_SIZES} k={GRID_WIDTHS} (rewriting)",
            "escalation": (
                f"pe N={PE_SIZE} k={PE_WIDTH}, "
                f"conflict budgets {ESCALATION_CONFLICTS}"
            ),
        },
    )
    snapshot.save(args.out)

    ratio = cold_props / inc_props if inc_props else float("inf")
    save_table(
        "incremental_sat",
        (
            "Cold vs incremental SAT (propagations; CPU advisory)\n"
            f"  grid ({grid['jobs']} jobs, "
            f"{grid['distinct_digests']} distinct CNFs, "
            f"{grid['session_hits']} session hits):\n"
            f"    cold:        {grid['cold_props']:>10.0f} props "
            f"{grid['cold_cpu']:.2f}s\n"
            f"    incremental: {grid['inc_props']:>10.0f} props "
            f"{grid['inc_cpu']:.2f}s\n"
            f"  escalation (pe N={PE_SIZE} k={PE_WIDTH}, "
            f"{esc['cold_attempts']} attempts, {esc['status']}):\n"
            f"    cold:        {esc['cold_props']:>10.0f} props "
            f"{esc['cold_cpu']:.2f}s\n"
            f"    incremental: {esc['inc_props']:>10.0f} props "
            f"{esc['inc_cpu']:.2f}s\n"
            f"  total: {cold_props:.0f} cold vs {inc_props:.0f} "
            f"incremental propagations ({ratio:.2f}x)"
        ),
    )

    if args.check:
        failures = []
        if not grid["inc_props"] < grid["cold_props"]:
            failures.append(
                f"grid: incremental propagations {grid['inc_props']:.0f} "
                f"not below cold {grid['cold_props']:.0f}"
            )
        if not esc["inc_props"] < esc["cold_props"]:
            failures.append(
                f"escalation: incremental propagations "
                f"{esc['inc_props']:.0f} not below cold "
                f"{esc['cold_props']:.0f}"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check passed: incremental < cold on sat.propagations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
