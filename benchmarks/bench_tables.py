"""The paper's evaluation (Sect. 7), rendered from one perf grid record.

``python -m repro perf grid`` records every run the tables need, one row
per run (``repro.obs.cli.GRID_ROWS``, built from the axes imported
below).  :func:`paper_tables` renders
Tables 1-5, the Sect. 7.2 buggy design, the headline speedup and the
workload-family table from those rows, and asserts the shape each one
reproduces.  Times are the CPU seconds of the pipeline layers' own spans
on the machine that made the record; counts are exact.
Run on the committed record, or on a fresh one::

    pytest benchmarks/bench_tables.py
    PYTHONPATH=src python benchmarks/bench_tables.py grid_current.json
"""

from __future__ import annotations

import pathlib
import sys

from repro.core import render_matrix, render_rows
from repro.obs.cli import (BUG_DESIGN, FAMILY_ROWS, GRID_BUG, GRID_SIZES,
                           GRID_WIDTHS, PE_SIZES, PE_WIDTHS)
from repro.obs.metrics import load_record
from repro.processor import ProcessorConfig

from common import save_table

RECORD = pathlib.Path(__file__).parent / "baselines" / "grid.json"

STATS = ("e_ij primary", "other primary", "total primary", "CNF variables",
         "CNF clauses")


def paper_tables(rows) -> str:
    """The evaluation's tables from a grid record's ``rows``, each shape
    asserted."""
    by_run = {
        (row.meta["config"], row.meta["method"], row.meta["bug"]): row
        for row in rows
    }

    # Every design without a planted bug is PROVED: Tables 2 and 4, the
    # headline and the family table rest on it.
    assert all(run.meta["correct"] for run in rows if run.meta["bug"] is None)

    def row(n, k, method="rewriting", family="reg-reg", bug=None):
        config = ProcessorConfig(n, k, family=family).describe()
        return by_run[(config, method, bug and bug.describe())]

    def cpu(run, *layers):
        return sum(run.metrics.get(f"cpu.{layer}", 0.0) for layer in layers)

    def pe(n, k):
        return row(n, k, method="positive_equality")

    def stats(run):
        eij, other, variables, clauses = (
            int(run.metrics[f"encode.{name}"])
            for name in ("eij_primary", "other_primary", "cnf_vars",
                         "cnf_clauses"))
        return eij, other, eij + other, variables, clauses

    tables = []

    def matrix(title, sizes, widths, cell, value_format="{:.2f}"):
        tables.append(render_matrix(title, sizes, widths, cell,
                                    value_format=value_format))

    small, large = GRID_SIZES[0], GRID_SIZES[-1]

    # Table 1: rows reg-reg N x k.
    matrix("Table 1 — CPU seconds to generate the EUFM correctness formula "
           "(symbolic simulation of both sides)", GRID_SIZES, GRID_WIDTHS,
           lambda n, k: cpu(row(n, k), "simulate"))
    assert (cpu(row(large, GRID_WIDTHS[0]), "simulate")
            > cpu(row(small, GRID_WIDTHS[0]), "simulate"))

    # Table 2: rows PE N x k.
    pe_sat = {(n, k): cpu(pe(n, k), "sat")
              for n in PE_SIZES for k in PE_WIDTHS if k <= n}
    matrix("Table 2 — CPU seconds for SAT-checking the CNF, Positive "
           "Equality only", PE_SIZES, PE_WIDTHS,
           lambda n, k: pe_sat[(n, k)])
    assert max(pe_sat.values()) >= 100 * max(min(pe_sat.values()), 1e-3)

    # Table 3: rows PE at the largest N, every k.
    pe_n, pe_k = PE_SIZES[-1], PE_WIDTHS[-1]
    columns = [stats(pe(pe_n, k)) + (f"{cpu(pe(pe_n, k), 'sat'):.2f}",)
               for k in PE_WIDTHS]
    tables.append(render_rows(
        "Table 3 — CNF statistics, Positive Equality only, "
        f"{pe_n}-entry ROB (columns: issue/retire width)",
        ["statistic", *map(str, PE_WIDTHS)],
        [[label, *(column[i] for column in columns)]
         for i, label in enumerate(STATS + ("SAT CPU [s]",))],
    ))
    assert 0 < columns[0][0] < columns[-1][0]  # e_ij
    assert columns[0][4] < columns[-1][4]  # clauses

    # Table 4: rows reg-reg N x k, every one PROVED (asserted above).
    matrix("Table 4 — CPU seconds for EUFM-to-Boolean translation with "
           "rewriting rules + Positive Equality (rewrite + translate)",
           GRID_SIZES, GRID_WIDTHS,
           lambda n, k: cpu(row(n, k), "rewrite", "translate"),
           value_format="{:.3f}")

    # Table 5: rows reg-reg N x k; the smallest N shown, every N asserted
    # equal.
    tables.append(render_rows(
        "Table 5 — CNF statistics with rewriting rules + Positive Equality "
        f"(identical for every ROB size in {list(GRID_SIZES)}; columns: "
        "width)",
        ["statistic", *map(str, GRID_WIDTHS)],
        [[label, *(stats(row(small, k))[i] for k in GRID_WIDTHS)]
         for i, label in enumerate(STATS)]
        + [["SAT CPU [s]",
            *(f"{cpu(row(small, k), 'sat'):.3f}" for k in GRID_WIDTHS)]],
    ))
    for k in GRID_WIDTHS:
        assert len({stats(row(n, k)) for n in GRID_SIZES}) == 1, k
        assert stats(row(small, k))[0] == 0

    # Sect. 7.2: the bug row and its correct twin.
    buggy, correct = row(*BUG_DESIGN, bug=GRID_BUG), row(*BUG_DESIGN)
    tables.append(render_rows(
        "Sect. 7.2 — {}-entry ROB, width {}, {}".format(
            *BUG_DESIGN, GRID_BUG.describe()),
        ["run", "CPU [s]", "outcome"],
        [["buggy", f"{cpu(buggy, 'total'):.2f}",
          f"flagged slice {buggy.meta['suspected_entry']}"],
         ["correct", f"{cpu(correct, 'total'):.2f}", "PROVED"]],
    ))
    assert buggy.meta["correct"] is False
    assert buggy.meta["suspected_entry"] == GRID_BUG.entry
    assert correct.meta["correct"] is True

    # Headline: the largest PE design under both methods, and the largest
    # reg-reg design.
    pe_solve = cpu(pe(pe_n, pe_k), "rewrite", "translate", "sat")
    rw_solve = cpu(row(pe_n, pe_k), "rewrite", "translate", "sat")
    speedup = pe_solve / max(rw_solve, 1e-6)
    tables.append(render_rows(
        "Headline — rewriting rules vs Positive Equality alone",
        ["configuration", "solve CPU [s]", "outcome"],
        [[f"N={pe_n}, k={pe_k}, PE only", f"{pe_solve:.2f}", "PROVED"],
         [f"N={pe_n}, k={pe_k}, rewriting", f"{rw_solve:.3f}", "PROVED"],
         ["speedup", f"{speedup:.0f}x", "paper: up to ~10^5x"],
         [f"N={large}, k={GRID_WIDTHS[-1]}, rewriting",
          f"{cpu(row(large, GRID_WIDTHS[-1]), 'total'):.2f}",
          "PROVED, far beyond the PE-only wall"]],
    ))
    assert speedup > 10, speedup

    # Workload families: rows mem, branch and mixed at k=1, each family's
    # rows in growing N.
    family = {(name, n): row(n, 1, family=name) for name, n in FAMILY_ROWS}
    reduction = {
        key: "full" if run.metrics["rewrite.full_reduction"] else "none"
        for key, run in family.items()
    }
    tables.append(render_rows(
        "Workload families — rewriting, k=1",
        ["family", "N", "reduction", "CNF vars", "CNF clauses", "SAT CPU [s]"],
        [[name, n, reduction[(name, n)], *stats(run)[3:],
          f"{cpu(run, 'sat'):.3f}"] for (name, n), run in family.items()],
    ))
    mem = [key for key in family if key[0] == "mem"]
    branch = [key for key in family if key[0] == "branch"]
    assert all(reduction[key] == "full" for key in mem)
    assert len({stats(family[key]) for key in mem}) == 1
    assert all(reduction[key] == "none" for key in branch)
    assert (cpu(family[branch[-1]], "sat")
            >= 4 * cpu(family[branch[0]], "sat"))
    return "\n\n".join(tables)


def test_paper_tables_hold_on_the_committed_record():
    save_table("paper_tables", paper_tables(load_record(RECORD)))


if __name__ == "__main__":
    print(paper_tables(load_record(sys.argv[1] if len(sys.argv) > 1
                                   else RECORD)))
