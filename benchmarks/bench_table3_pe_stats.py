"""Table 3: statistics of the CNF formulas when only Positive Equality is
used, for a fixed reorder-buffer size across issue/retire widths.

The paper reports, for 8-entry designs: e_ij primary inputs, other primary
inputs, CNF variables/clauses, and the SAT CPU time.  Here the fixed size
is the largest one the PE-only flow finishes comfortably at reproduction
scale; the row structure matches the paper's.
"""

from repro.core import render_rows
from repro.errors import BudgetExhausted
from repro.guard import Deadline, use_deadline
from repro.obs import Tracer, use_tracer
from repro.processor import ProcessorConfig, build_correctness_formula, run_diagram
from repro.encode import encode_validity
from repro.sat import solve_cnf

from common import FULL, PE_ONLY_BUDGET_SECONDS, layer_cpu, save_table

FIXED_SIZE = 4 if FULL else 3
WIDTHS = [1, 2, 4] if FULL else [1, 2, 3]


def _sweep():
    columns = {}
    for width in WIDTHS:
        if width > FIXED_SIZE:
            continue
        artifacts = run_diagram(
            ProcessorConfig(n_rob=FIXED_SIZE, issue_width=width)
        )
        phi = build_correctness_formula(artifacts)
        encoded = encode_validity(phi, memory_mode="precise")
        tracer = Tracer()
        budget = Deadline(max_wall_seconds=PE_ONLY_BUDGET_SECONDS)
        try:
            with use_tracer(tracer), use_deadline(budget):
                solve_cnf(encoded.cnf)
            cpu = f"{layer_cpu(tracer.roots, 'sat'):.2f}"
        except BudgetExhausted:
            cpu = f">{PE_ONLY_BUDGET_SECONDS:.0f}"
        stats = encoded.stats
        columns[width] = [
            stats.eij_primary,
            stats.other_primary,
            stats.total_primary,
            stats.cnf_vars,
            stats.cnf_clauses,
            cpu,
        ]
    return columns


ROW_LABELS = [
    "e_ij primary",
    "other primary",
    "total primary",
    "CNF variables",
    "CNF clauses",
    "CPU time [s]",
]


def test_table3_pe_only_cnf_statistics(benchmark):
    columns = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    widths = sorted(columns)
    rows = [
        [label] + [columns[w][i] for w in widths]
        for i, label in enumerate(ROW_LABELS)
    ]
    table = render_rows(
        f"Table 3 — CNF statistics, Positive Equality only, "
        f"{FIXED_SIZE}-entry reorder buffer (columns: issue/retire width)",
        ["statistic"] + [str(w) for w in widths],
        rows,
    )
    save_table("table3_pe_stats", table)
    # Shape checks: e_ij variables are present (register-identifier
    # comparisons) and grow with the width.
    assert columns[widths[0]][0] > 0
    assert columns[widths[-1]][0] > columns[widths[0]][0]
    assert columns[widths[-1]][4] > columns[widths[0]][4]
