"""Table 4: CPU time for translating the EUFM correctness formula to an
equivalent Boolean formula when both rewriting rules and Positive Equality
are used (the rewriting pass plus the EUFM-to-CNF translation of the
reduced formula)."""

from repro.core import render_matrix
from repro.encode import encode_validity
from repro.obs import Tracer, use_tracer
from repro.processor import ProcessorConfig, run_diagram
from repro.rewriting import rewrite_diagram

from common import SIZES_LARGE, WIDTHS_LARGE, layer_cpu, save_table


def _sweep():
    times = {}
    for size in SIZES_LARGE:
        for width in WIDTHS_LARGE:
            if width > size:
                continue
            artifacts = run_diagram(ProcessorConfig(n_rob=size, issue_width=width))
            tracer = Tracer()
            with use_tracer(tracer):
                rewrite = rewrite_diagram(artifacts)
                assert rewrite.succeeded, rewrite.failure
                encode_validity(
                    rewrite.reduced_formula, memory_mode="conservative"
                )
            times[(size, width)] = layer_cpu(
                tracer.roots, "rewrite", "translate"
            )
    return times


def test_table4_rewriting_translation_time(benchmark):
    times = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = render_matrix(
        "Table 4 — CPU seconds for EUFM-to-Boolean translation with "
        "rewriting rules + Positive Equality",
        SIZES_LARGE,
        WIDTHS_LARGE,
        lambda s, w: times.get((s, w)),
        value_format="{:.3f}",
    )
    save_table("table4_rewriting", table)
    # Shape check: unlike Table 2, every configuration completes, including
    # sizes far beyond the PE-only wall.
    assert len(times) == sum(
        1 for s in SIZES_LARGE for w in WIDTHS_LARGE if w <= s
    )
