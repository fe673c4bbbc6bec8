"""Ablations of the design choices DESIGN.md calls out.

1. **Memory model on the rewritten formula** — the conservative
   (forwarding-free) abstraction versus the precise elimination.  The
   paper (Sect. 7.2) credits the conservative abstraction with removing
   every ``e_ij`` variable; the precise model must still verify, but pays
   for address comparisons.
2. **Correctness criterion** — the paper's disjunction versus the stronger
   fetch-count case split; both must hold for correct designs, with
   comparable formula sizes.
3. **CNF encoding** — polarity-aware (Plaisted–Greenbaum) versus full
   bidirectional Tseitin, on the hardest cell of the sweep.
"""

from repro.core import render_rows
from repro.encode import check_validity
from repro.obs import Tracer, use_tracer
from repro.processor import ProcessorConfig, run_diagram
from repro.rewriting import rewrite_diagram

from common import FULL, layer_cpu, save_table

CONFIG = ProcessorConfig(n_rob=64 if FULL else 32, issue_width=4)


def _run():
    artifacts = run_diagram(CONFIG)
    rows = []
    outcomes = {}
    for criterion in ("disjunction", "case_split"):
        rewrite = rewrite_diagram(artifacts, criterion=criterion)
        assert rewrite.succeeded
        for memory_mode in ("conservative", "precise"):
            encodings = (
                ("polarity", "full")
                if (criterion, memory_mode) == ("disjunction", "precise")
                else ("polarity",)
            )
            for cnf_encoding in encodings:
                tracer = Tracer()
                with use_tracer(tracer):
                    validity = check_validity(
                        rewrite.reduced_formula,
                        memory_mode=memory_mode,
                        cnf_encoding=cnf_encoding,
                    )
                stats = validity.encoded.stats
                key = (criterion, memory_mode, cnf_encoding)
                outcomes[key] = validity.valid
                rows.append(
                    [
                        criterion,
                        memory_mode,
                        cnf_encoding,
                        "valid" if validity.valid else "INVALID",
                        stats.eij_primary,
                        stats.cnf_vars,
                        stats.cnf_clauses,
                        f"{layer_cpu(tracer.roots, 'sat'):.3f}",
                    ]
                )
    return rows, outcomes


def test_ablation_memory_model_and_criterion(benchmark):
    rows, outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = render_rows(
        f"Ablation — rewritten formula of {CONFIG.describe()}",
        ["criterion", "memory model", "CNF enc.", "verdict", "e_ij",
         "CNF vars", "CNF clauses", "SAT CPU [s]"],
        rows,
    )
    save_table("ablation", table)

    # Every combination proves the correct design.
    assert all(outcomes.values())
    # The conservative abstraction removes all e_ij variables; the precise
    # model reintroduces address comparisons.
    by_key = {(row[0], row[1], row[2]): row[4] for row in rows}
    clauses = {(row[0], row[1], row[2]): row[6] for row in rows}
    assert by_key[("disjunction", "conservative", "polarity")] == 0
    assert by_key[("disjunction", "precise", "polarity")] > 0
    # Plaisted-Greenbaum never produces more clauses than full Tseitin.
    assert (
        clauses[("disjunction", "precise", "polarity")]
        <= clauses[("disjunction", "precise", "full")]
    )
