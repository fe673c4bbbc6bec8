"""Table 5: statistics of the CNF formulas when both rewriting rules and
Positive Equality are used.

The paper's headline structural results, all checked here:

* the statistics do **not** depend on the reorder-buffer size (the
  instructions initially there were processed by the rewriting rules);
* there are **no** e_ij variables (the newly fetched instructions execute
  strictly in program order, so ``read``/``write`` are abstracted by
  general uninterpreted functions without the forwarding property);
* SAT times are trivial at every issue width.
"""

from repro.core import render_rows
from repro.encode import encode_validity
from repro.obs import Tracer, use_tracer
from repro.processor import ProcessorConfig, run_diagram
from repro.rewriting import rewrite_diagram
from repro.sat import solve_cnf

from common import (
    SIZES_REWRITE_STATS,
    WIDTHS_REWRITE_STATS,
    layer_cpu,
    save_table,
)


def _collect(size, width):
    artifacts = run_diagram(ProcessorConfig(n_rob=size, issue_width=width))
    rewrite = rewrite_diagram(artifacts)
    assert rewrite.succeeded, rewrite.failure
    encoded = encode_validity(rewrite.reduced_formula, memory_mode="conservative")
    tracer = Tracer()
    with use_tracer(tracer):
        sat = solve_cnf(encoded.cnf)
    assert sat.is_unsat  # correct design
    stats = encoded.stats
    return {
        "eij": stats.eij_primary,
        "other": stats.other_primary,
        "total": stats.total_primary,
        "vars": stats.cnf_vars,
        "clauses": stats.cnf_clauses,
        "sat_s": layer_cpu(tracer.roots, "sat"),
    }


def _sweep():
    per_width = {}
    size_independence = {}
    for width in WIDTHS_REWRITE_STATS:
        sizes = [s for s in SIZES_REWRITE_STATS if width <= s]
        if not sizes:
            continue
        rows = [_collect(size, width) for size in sizes]
        per_width[width] = rows[0]
        size_independence[width] = [
            (row["eij"], row["other"], row["vars"], row["clauses"])
            for row in rows
        ]
    return per_width, size_independence


ROW_LABELS = [
    ("eij", "e_ij primary"),
    ("other", "other primary"),
    ("total", "total primary"),
    ("vars", "CNF variables"),
    ("clauses", "CNF clauses"),
    ("sat_s", "SAT CPU time [s]"),
]


def test_table5_rewritten_cnf_statistics(benchmark):
    per_width, size_independence = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    widths = sorted(per_width)
    rows = []
    for key, label in ROW_LABELS:
        row = [label]
        for width in widths:
            value = per_width[width][key]
            row.append(f"{value:.3f}" if key == "sat_s" else value)
        rows.append(row)
    table = render_rows(
        "Table 5 — CNF statistics with rewriting rules + Positive Equality "
        f"(identical for every ROB size in {SIZES_REWRITE_STATS}; "
        "columns: issue/retire width)",
        ["statistic"] + [str(w) for w in widths],
        rows,
    )
    save_table("table5_rewritten_stats", table)

    # The paper's structural claims:
    for width, tuples in size_independence.items():
        assert len(set(tuples)) == 1, (
            f"width {width}: statistics vary with the ROB size: {tuples}"
        )
    for width in widths:
        assert per_width[width]["eij"] == 0, "e_ij variables should vanish"
