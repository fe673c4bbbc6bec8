"""Quickstart: formally verify an out-of-order processor.

Builds the abstract out-of-order implementation (16-entry reorder buffer,
issue/retire width 4), symbolically simulates the Burch–Dill commutative
diagram, proves the instructions initially in the ROB correct with the
rewriting rules, and discharges the remaining correctness formula with
Positive Equality and the CDCL SAT solver.

Run:  python examples/quickstart.py
"""

from repro import ProcessorConfig, forwarding_bug, verify
from repro.obs import render_span_tree


def main() -> None:
    config = ProcessorConfig(n_rob=16, issue_width=4)

    print(f"Verifying: {config.describe()}")
    result = verify(config)
    print(result.summary())
    print()

    # Where the time went: the hierarchical span trace, with per-layer
    # work counters (the paper's Tables 1/4/5 measure these phases).
    print("Span trace:")
    print(render_span_tree(result.trace))
    print()

    # Now plant the paper's bug — broken forwarding for one operand of one
    # reorder-buffer entry — and watch the rewriting rules name the slice.
    bug = forwarding_bug(entry=11)
    print(f"Verifying the same design with a planted defect: {bug.describe()}")
    result = verify(config, bug=bug)
    print(result.summary())


if __name__ == "__main__":
    main()
