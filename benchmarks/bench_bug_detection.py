"""The buggy-design experiment of Sect. 7.2.

The paper plants a bug in the forwarding logic for one data operand of the
72nd instruction of a 128-entry reorder buffer (issue width 4).  The
rewriting rules identify the 72nd computation slice in seconds (9s there;
the correct design verified in 10s), while the Positive-Equality-only flow
runs out of memory.  This benchmark reproduces all three measurements at
reproduction scale.
"""

from repro import forwarding_bug, verify
from repro.core import render_rows
from repro.processor import ProcessorConfig

from common import BUG_ENTRY, BUG_SIZE, BUG_WIDTH, save_table

PE_BUDGET = 15.0


def _experiment():
    config = ProcessorConfig(n_rob=BUG_SIZE, issue_width=BUG_WIDTH)
    bug = forwarding_bug(BUG_ENTRY)

    buggy = verify(config, bug=bug)
    correct = verify(config)

    try:
        verify(config, method="positive_equality", bug=bug,
               max_wall_seconds=PE_BUDGET)
        pe_only = "finished (unexpected at this size)"
    except TimeoutError:
        pe_only = f">{PE_BUDGET:.0f}s (budget, cf. paper's out-of-memory)"

    return buggy, correct, pe_only


def test_bug_detection_experiment(benchmark):
    buggy, correct, pe_only = benchmark.pedantic(_experiment, rounds=1, iterations=1)

    rows = [
        [
            "buggy (rewriting)",
            f"{buggy.timings['total']:.2f}s",
            f"flagged slice {buggy.suspected_entry}",
        ],
        [
            "correct (rewriting)",
            f"{correct.timings['total']:.2f}s",
            "verified correct",
        ],
        ["buggy (PE only)", pe_only, "cf. paper: out of memory"],
    ]
    table = render_rows(
        f"Bug experiment — {BUG_SIZE}-entry ROB, width {BUG_WIDTH}, "
        f"forwarding bug at operand 1 of entry {BUG_ENTRY} "
        "(paper: entry 72 of 128)",
        ["run", "time", "outcome"],
        rows,
    )
    save_table("bug_detection", table)

    assert buggy.correct is False
    assert buggy.suspected_entry == BUG_ENTRY
    assert correct.correct is True
