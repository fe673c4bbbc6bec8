"""Table 1: CPU time for symbolically simulating the out-of-order
implementation and the specification when generating the EUFM correctness
formula, across reorder-buffer sizes and issue/retire widths."""

from repro.core import render_matrix
from repro.obs import Tracer, use_tracer
from repro.processor import ProcessorConfig, run_diagram

from common import SIZES_LARGE, WIDTHS_LARGE, layer_cpu, save_table


def _sweep():
    times = {}
    for size in SIZES_LARGE:
        for width in WIDTHS_LARGE:
            if width > size:
                continue
            tracer = Tracer()
            with use_tracer(tracer):
                run_diagram(ProcessorConfig(n_rob=size, issue_width=width))
            times[(size, width)] = layer_cpu(tracer.roots, "simulate")
    return times


def test_table1_symbolic_simulation_time(benchmark):
    times = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = render_matrix(
        "Table 1 — CPU seconds to generate the EUFM correctness formula "
        "(TLSim, both sides of the diagram)",
        SIZES_LARGE,
        WIDTHS_LARGE,
        lambda s, w: times.get((s, w)),
        value_format="{:.2f}",
    )
    save_table("table1_symsim", table)
    # Sanity: simulation cost grows with the reorder-buffer size.
    smallest = times[(SIZES_LARGE[0], 1)]
    largest = times[(SIZES_LARGE[-1], 1)]
    assert largest > smallest
