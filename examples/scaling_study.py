"""Scaling study: why the rewriting rules matter.

Sweeps reorder-buffer sizes with both methods and prints a side-by-side
table — the condensed story of the paper's Tables 2, 4 and 5: the
Positive-Equality-only flow hits a wall almost immediately, while the
rewriting flow scales to two orders of magnitude larger designs with a
correctness formula whose size does not depend on the ROB size at all.

Run:  python examples/scaling_study.py          (~2 minutes)
"""

from repro import ProcessorConfig, verify
from repro.core import render_rows

PE_BUDGET_SECONDS = 20.0
SIZES_PE = [1, 2, 3]
SIZES_REWRITE = [4, 16, 64, 128]
WIDTH = 2


def run_pe(size: int) -> str:
    try:
        result = verify(
            ProcessorConfig(n_rob=size, issue_width=min(WIDTH, size)),
            method="positive_equality",
            max_wall_seconds=PE_BUDGET_SECONDS,
        )
        return f"{result.timings['total']:.2f}s ({result.encoding_stats.cnf_clauses} clauses)"
    except TimeoutError:
        return f">{PE_BUDGET_SECONDS:.0f}s budget exceeded"


def run_rewriting(size: int) -> str:
    result = verify(ProcessorConfig(n_rob=size, issue_width=WIDTH))
    assert result.correct
    stats = result.encoding_stats
    return f"{result.timings['total']:.2f}s ({stats.cnf_clauses} clauses)"


def main() -> None:
    rows = []
    for size in SIZES_PE:
        rows.append([size, run_pe(size), ""])
    for size in SIZES_REWRITE:
        rows.append([size, "", run_rewriting(size)])
    print(
        render_rows(
            f"Verification cost by method (issue/retire width {WIDTH})",
            ["ROB size", "Positive Equality only", "rewriting rules + PE"],
            rows,
        )
    )
    print(
        "\nNote the constant clause count in the right column: after the\n"
        "rewriting rules remove the updates of the instructions initially\n"
        "in the ROB, the formula depends only on the newly fetched\n"
        "instructions (paper, Table 5)."
    )


if __name__ == "__main__":
    main()
