"""Shared infrastructure for the paper-table benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
section (Sect. 7), prints it in the paper's layout, and writes it to
``benchmarks/results/`` so the numbers survive pytest's output capture.

Sizes are scaled down from the paper's (which ran for hours on a 2002
workstation in C); set ``REPRO_BENCH_FULL=1`` for larger sweeps.  The
shapes being reproduced — the Positive-Equality-only blow-up, the
size-independence under rewriting, the exact-slice bug reports — are
insensitive to the absolute sizes.
"""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

# Table 1 / Table 4 sweeps (symbolic simulation and rewriting translation).
SIZES_LARGE = [8, 16, 32, 64, 128, 256] if FULL else [4, 8, 16, 32, 64]
WIDTHS_LARGE = [1, 2, 4, 8, 16] if FULL else [1, 2, 4, 8]

# Table 2 / Table 3 sweeps (Positive Equality only — blows up quickly).
SIZES_PE_ONLY = [1, 2, 3, 4] if FULL else [1, 2, 3]
WIDTHS_PE_ONLY = [1, 2, 4] if FULL else [1, 2]
PE_ONLY_BUDGET_SECONDS = 120.0 if FULL else 30.0

# Table 5 sweep: CNF statistics with rewriting, shown for several ROB
# sizes to demonstrate size independence.
SIZES_REWRITE_STATS = [8, 32, 128] if FULL else [8, 32, 64]
WIDTHS_REWRITE_STATS = [1, 2, 4, 8, 16] if FULL else [1, 2, 4, 8]

# Buggy-design experiment (the paper used N=128, k=4, bug at entry 72).
BUG_SIZE = 128 if FULL else 32
BUG_WIDTH = 4
BUG_ENTRY = 72 if FULL else 18  # same relative position (~0.56 N)


def layer_cpu(spans, *layers: str) -> float:
    """CPU seconds of the pipeline-layer spans named ``layers`` among
    ``spans`` — a tracer's ``roots`` or a ``verify()`` trace's
    ``children``.  The paper's tables report CPU time; the layers' own
    spans measure it, so no table reads a wall clock."""
    return sum(span.cpu_seconds for span in spans if span.name in layers)


def save_table(name: str, text: str) -> None:
    """Print a table and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def save_snapshot(name: str, result, **meta) -> None:
    """Persist a verification result's perf metrics as ``BENCH_<name>.json``.

    The snapshot lands next to the tables in ``benchmarks/results`` and
    feeds the ``python -m repro perf compare`` regression gate.
    """
    from repro.obs.metrics import snapshot_from_result

    RESULTS_DIR.mkdir(exist_ok=True)
    snapshot = snapshot_from_result(result, meta={"bench": name, **meta})
    snapshot.save(RESULTS_DIR / f"BENCH_{name}.json")
