"""Table 2: CPU time for checking the unsatisfiability of the CNF formula
when only Positive Equality (no rewriting rules) is used.

The paper shows a ~3-orders-of-magnitude jump from an 4-entry to an
8-entry reorder buffer and an out-of-memory failure (4 GB) at 16 entries.
At this reproduction's scale the same super-exponential wall appears a few
sizes earlier; a wall-clock budget plays the role of the paper's memory
limit and exhausted cells are reported as ``>budget``.
"""

from repro.core import render_matrix
from repro.processor import ProcessorConfig

from common import (
    PE_ONLY_BUDGET_SECONDS,
    SIZES_PE_ONLY,
    WIDTHS_PE_ONLY,
    layer_cpu,
    save_table,
)


def _sweep():
    from repro import verify

    cells = {}
    for size in SIZES_PE_ONLY:
        for width in WIDTHS_PE_ONLY:
            if width > size:
                continue
            try:
                result = verify(
                    ProcessorConfig(n_rob=size, issue_width=width),
                    method="positive_equality",
                    max_wall_seconds=PE_ONLY_BUDGET_SECONDS,
                )
                assert result.correct, "correct design reported buggy"
                cpu = layer_cpu(result.trace.children, "sat")
                cells[(size, width)] = f"{cpu:.2f}"
            except TimeoutError:
                cells[(size, width)] = f">{PE_ONLY_BUDGET_SECONDS:.0f} (budget)"
    return cells


def test_table2_positive_equality_only_sat_time(benchmark):
    cells = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = render_matrix(
        "Table 2 — CPU seconds for SAT-checking the CNF, Positive Equality "
        f"only (budget {PE_ONLY_BUDGET_SECONDS:.0f}s stands in for the "
        "paper's 4 GB limit)",
        SIZES_PE_ONLY,
        WIDTHS_PE_ONLY,
        lambda s, w: cells.get((s, w)),
    )
    save_table("table2_pe_only", table)
    # Shape check: the blow-up — either a budget-exceeded cell appears, or
    # the largest finished configuration is >=100x the smallest.
    finished = {
        key: float(value)
        for key, value in cells.items()
        if not value.startswith(">")
    }
    blew_up = len(finished) < len(cells)
    if not blew_up and len(finished) >= 2:
        blew_up = max(finished.values()) >= 100 * max(min(finished.values()), 1e-3)
    assert blew_up, "expected the PE-only method to hit the scaling wall"
