"""Golden counterexamples of three seeded bugs.

Reconstruction, replay and greedy minimization must keep producing the
same term-level counterexample for each configuration below: the same
minimized assignment, replay values, equivalence classes, synthesized
UF/UP tables and falsified spec equalities.  The expected values in
``golden_counterexamples.json`` were recorded from a known-good build;
a change to how the witness layer evaluates, orders or minimizes fails
this test.
"""

import json
from pathlib import Path

import pytest

from repro import ProcessorConfig, verify
from repro.processor import Bug

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_counterexamples.json")).read_text()
)

CASES = {
    "branch-N2-k1-dropped-flush@2": (
        ProcessorConfig(2, 1, family="branch"), "rewriting",
        Bug("dropped-flush", entry=2)),
    "pe-N3-k1-forward-wrong-source@2": (
        ProcessorConfig(3, 1), "positive_equality",
        Bug("forward-wrong-source", entry=2)),
    "pe-mem-N2-k1-l2-store-order@2": (
        ProcessorConfig(2, 1, retire_width=2, family="mem"),
        "positive_equality", Bug("store-order", entry=2)),
}


def _pinned(cex):
    """The pinned fields, as JSON would store them (tuples become lists)."""
    return json.loads(json.dumps(dict(
        minimized=cex.minimized,
        replay_value=cex.replay_value,
        minimized_replay_value=cex.minimized_replay_value,
        classes=cex.classes,
        uf_tables=cex.uf_tables,
        up_tables=cex.up_tables,
        disagreements=cex.disagreements,
    )))


@pytest.mark.parametrize("name", sorted(CASES))
def test_counterexample_matches_golden(name):
    config, method, bug = CASES[name]
    result = verify(config, method=method, bug=bug, certify=True)
    assert result.witness.kind == "counterexample"
    cex = result.witness.counterexample
    assert _pinned(cex) == GOLDEN[name]
    # Each printed line names a different equation, even where the texts
    # are cut: the three equations dropped-flush@2 falsifies share their
    # first hundred characters.
    assert len(set(cex.disagreements)) == len(cex.disagreements)
