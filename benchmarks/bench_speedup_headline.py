"""The headline claim: rewriting rules give "up to 5 orders of magnitude
speedup, compared to using Positive Equality alone".

In the paper, the 8-entry/width-8 design took 38,708s PE-only versus 0.35s
with rewriting (~10^5x).  Here both methods run on the largest
configuration the PE-only flow finishes at reproduction scale, plus the
rewriting method alone on a configuration far beyond the PE-only wall.
"""

import time

from repro import verify
from repro.core import render_rows
from repro.processor import ProcessorConfig

from common import FULL, save_snapshot, save_table

# The largest configuration our PE-only flow finishes comfortably.
COMPARE = ProcessorConfig(n_rob=3, issue_width=2)
BEYOND = ProcessorConfig(n_rob=128 if FULL else 64, issue_width=8)
PE_BUDGET = 600.0 if FULL else 120.0


def _experiment():
    pe = verify(
        COMPARE, method="positive_equality", max_wall_seconds=PE_BUDGET
    )
    rw = verify(COMPARE, method="rewriting")
    beyond = verify(BEYOND, method="rewriting")
    return pe, rw, beyond


def test_headline_speedup(benchmark):
    pe, rw, beyond = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    # Compare the formula-solving phases (translation + SAT), which is what
    # the rewriting rules accelerate; simulation is shared by both methods.
    pe_solve = pe.timings["translate"] + pe.timings["sat"]
    rw_solve = (
        pe.timings.get("rewrite", 0.0)
        + rw.timings["rewrite"]
        + rw.timings["translate"]
        + rw.timings["sat"]
    )
    speedup = pe_solve / max(rw_solve, 1e-6)
    rows = [
        [
            f"N={COMPARE.n_rob}, k={COMPARE.issue_width} (PE only)",
            f"{pe_solve:.2f}s",
            "correct",
        ],
        [
            f"N={COMPARE.n_rob}, k={COMPARE.issue_width} (rewriting)",
            f"{rw_solve:.3f}s",
            "correct",
        ],
        ["speedup", f"{speedup:.0f}x", "(paper: up to ~10^5x at its scale)"],
        [
            f"N={BEYOND.n_rob}, k={BEYOND.issue_width} (rewriting)",
            f"{beyond.timings['total']:.2f}s",
            "correct — far beyond the PE-only wall",
        ],
    ]
    table = render_rows(
        "Headline — rewriting rules vs Positive Equality alone",
        ["configuration", "solve time", "outcome"],
        rows,
    )
    save_table("speedup_headline", table)
    save_snapshot("speedup_pe_only", pe)
    save_snapshot("speedup_rewriting", rw)
    save_snapshot("speedup_beyond", beyond)
    assert pe.correct and rw.correct and beyond.correct
    assert speedup > 10, f"expected a large speedup, got {speedup:.1f}x"
