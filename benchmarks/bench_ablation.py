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
   bidirectional Tseitin, on the precise model's formula.
"""

from repro.core import render_rows
from repro.encode import check_validity
from repro.eufm import run_scope
from repro.obs import Tracer, use_tracer
from repro.processor import ProcessorConfig, run_diagram
from repro.rewriting import rewrite_diagram

from common import layer_cpu, save_table

CONFIG = ProcessorConfig(n_rob=32, issue_width=4)
CONFIGURATIONS = (
    ("disjunction", "conservative", "polarity"),
    ("disjunction", "precise", "polarity"),
    ("disjunction", "precise", "full"),
    ("case_split", "conservative", "polarity"),
    ("case_split", "precise", "polarity"),
)


def _measure(criterion, memory_mode, cnf_encoding):
    """One configuration's row, on its own intern table, as one
    ``verify()`` run would build it."""
    with run_scope():
        rewrite = rewrite_diagram(run_diagram(CONFIG), criterion=criterion)
        assert rewrite.succeeded
        tracer = Tracer()
        with use_tracer(tracer):
            validity = check_validity(
                rewrite.reduced_formula,
                memory_mode=memory_mode,
                cnf_encoding=cnf_encoding,
            )
    stats = validity.encoded.stats
    return [
        criterion,
        memory_mode,
        cnf_encoding,
        "valid" if validity.valid else "INVALID",
        stats.eij_primary,
        stats.cnf_vars,
        stats.cnf_clauses,
        f"{layer_cpu(tracer.roots, 'sat'):.3f}",
    ]


def test_ablation_memory_model_and_criterion():
    rows = [_measure(*configuration) for configuration in CONFIGURATIONS]
    table = render_rows(
        f"Ablation — rewritten formula of {CONFIG.describe()}",
        ["criterion", "memory model", "CNF enc.", "verdict", "e_ij",
         "CNF vars", "CNF clauses", "SAT CPU [s]"],
        rows,
    )
    save_table("ablation", table)

    # Every combination proves the correct design.
    assert all(row[3] == "valid" for row in rows)
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
