"""Golden outcomes of the rewriting engine.

``rewrite_diagram`` must reach the same verdict by the same rule firings
and rebuild the same reduced formulas node for node — the rewrite-layer
twin of ``tests/processor/test_golden_diagram.py``.  Each configuration
pins the outcome (success, reduction, the failing slice), the per-rule
tally and a Merkle digest of every reduced output, recorded from a
known-good build.
"""

import pytest

from repro.eufm import clear_intern_cache
from repro.processor import Bug, ProcessorConfig, run_diagram
from repro.processor.families import FAMILIES, family_names
from repro.rewriting import rewrite_diagram

from ..processor.test_golden_diagram import _ENTRY, _merkle


def _configurations():
    for family in family_names():
        spec = FAMILIES[family]
        criteria = ("disjunction",) if spec.has_branches else (
            "disjunction", "case_split")
        for criterion in criteria:
            yield family, 3, 2, criterion, None
            for kind in spec.bug_kinds:
                yield family, 3, 2, criterion, kind
    yield "reg-reg", 16, 4, "disjunction", None
    yield "mem", 8, 2, "disjunction", None


def _key(family, n_rob, width, criterion, kind):
    return f"{family}/N{n_rob}k{width}/{criterion}/{kind}"


def _outcome(family, n_rob, width, criterion, kind):
    clear_intern_cache()
    bug = None if kind is None else Bug(kind, entry=_ENTRY.get(kind, 2))
    artifacts = run_diagram(
        ProcessorConfig(n_rob, width, family=family), bug=bug
    )
    result = rewrite_diagram(artifacts, criterion=criterion)
    failure = result.failure
    roots = [
        result.reduced_formula,
        result.reduced_rf_impl,
        *result.reduced_spec_rfs,
        result.reduced_dmem_impl,
        *result.reduced_spec_dmems,
    ]
    return (
        result.succeeded,
        result.reduction,
        None if failure is None else (
            failure.entry, failure.stage, failure.detail),
        dict(sorted(result.rules_applied.items())),
        _merkle(roots),
    )


#: the failing slices' details, as pinned below.
_OVERLAP = (
    "RegFile completion update cannot move over the update to Dest2 — "
    "contexts overlap (in-order retirement violated?)"
)
_DMEM_NOT_AT_HEAD = "DMem retirement update is not at the chain head"
_NOT_COMPLEMENTARY = (
    "RegFile retirement/completion contexts are not complementary")
_NO_ITE_ALU = (
    "with ValidResult false (alu case), the RegFile data does not have the "
    "expected executed/completed ITE structure"
)
_NO_ITE_LOAD = (
    "with ValidResult false (load case), the RegFile data does not have the "
    "expected executed/completed ITE structure"
)
_GUARDS_DIFFER = (
    "RegFile operand 1 forwarding does not match the specification-side read: "
    "forwarding level 0: guards differ — the comparator does not match the "
    "specification-side write condition"
)
_OTHER_PRODUCER = (
    "RegFile operand 1 forwarding does not match the specification-side read: "
    "forwarding level 0: availability does not test the same producer"
)
_NOT_RESULT = (
    "RegFile load data forwarding does not match the specification-side read: "
    "forwarding level 0: forwarded value is not the producer's Result under "
    "its ValidResult condition"
)

GOLDEN = {
    "reg-reg/N3k2/disjunction/None": (
        True, "full", None,
        {"data": 3, "forwarding": 4, "merge": 2, "remove": 8, "reorder": 1},
        "fea1087ab4860f46",
    ),
    "reg-reg/N3k2/disjunction/forward-wrong-source": (
        False, "full", (2, "data", _GUARDS_DIFFER),
        {"data": 1, "merge": 2, "remove": 3, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/disjunction/forward-stale-result": (
        False, "full", (3, "data", _OTHER_PRODUCER),
        {"data": 2, "forwarding": 2, "merge": 2, "remove": 6, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/disjunction/execute-ignores-hazard": (
        False, "full", (2, "data", _OTHER_PRODUCER),
        {"data": 1, "merge": 2, "remove": 3, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/disjunction/retire-without-result": (
        False, "full", (2, "data", _NO_ITE_ALU),
        {"data": 1, "merge": 2, "remove": 3, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/disjunction/retire-out-of-order": (
        False, "full", (1, "reorder", _OVERLAP),
        {},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/disjunction/retire-ignores-valid": (
        False, "full", (2, "merge", _NOT_COMPLEMENTARY),
        {"data": 1, "merge": 1, "remove": 3, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/disjunction/pc-single-increment": (
        True, "full", None,
        {"data": 3, "forwarding": 4, "merge": 2, "remove": 8, "reorder": 1},
        "9020b6dc0d862bfe",
    ),
    "reg-reg/N3k2/case_split/None": (
        True, "full", None,
        {"data": 3, "forwarding": 4, "merge": 2, "remove": 8, "reorder": 1},
        "3461a8c57f100b41",
    ),
    "reg-reg/N3k2/case_split/forward-wrong-source": (
        False, "full", (2, "data", _GUARDS_DIFFER),
        {"data": 1, "merge": 2, "remove": 3, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/case_split/forward-stale-result": (
        False, "full", (3, "data", _OTHER_PRODUCER),
        {"data": 2, "forwarding": 2, "merge": 2, "remove": 6, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/case_split/execute-ignores-hazard": (
        False, "full", (2, "data", _OTHER_PRODUCER),
        {"data": 1, "merge": 2, "remove": 3, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/case_split/retire-without-result": (
        False, "full", (2, "data", _NO_ITE_ALU),
        {"data": 1, "merge": 2, "remove": 3, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/case_split/retire-out-of-order": (
        False, "full", (1, "reorder", _OVERLAP),
        {},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/case_split/retire-ignores-valid": (
        False, "full", (2, "merge", _NOT_COMPLEMENTARY),
        {"data": 1, "merge": 1, "remove": 3, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "reg-reg/N3k2/case_split/pc-single-increment": (
        True, "full", None,
        {"data": 3, "forwarding": 4, "merge": 2, "remove": 8, "reorder": 1},
        "f1215b12ff68afba",
    ),
    "branch/N3k2/disjunction/None": (
        True, "none", None,
        {"fallback": 1},
        "77303a66b359a1e0",
    ),
    "branch/N3k2/disjunction/forward-wrong-source": (
        True, "none", None,
        {"fallback": 1},
        "46d47c0bee94a54b",
    ),
    "branch/N3k2/disjunction/forward-stale-result": (
        True, "none", None,
        {"fallback": 1},
        "77f4f30cbada02d2",
    ),
    "branch/N3k2/disjunction/execute-ignores-hazard": (
        True, "none", None,
        {"fallback": 1},
        "690b416a003a7a8d",
    ),
    "branch/N3k2/disjunction/retire-without-result": (
        True, "none", None,
        {"fallback": 1},
        "0b60a1e480f614cc",
    ),
    "branch/N3k2/disjunction/retire-out-of-order": (
        True, "none", None,
        {"fallback": 1},
        "bab3d37780a6c66f",
    ),
    "branch/N3k2/disjunction/retire-ignores-valid": (
        True, "none", None,
        {"fallback": 1},
        "5180dc969bff72b3",
    ),
    "branch/N3k2/disjunction/pc-single-increment": (
        True, "none", None,
        {"fallback": 1},
        "02b389cf3903d75e",
    ),
    "branch/N3k2/disjunction/wrong-path-retire": (
        True, "none", None,
        {"fallback": 1},
        "e8b550ddf168a47c",
    ),
    "branch/N3k2/disjunction/dropped-flush": (
        True, "none", None,
        {"fallback": 1},
        "b1fe15a82731d209",
    ),
    "mem/N3k2/disjunction/None": (
        True, "full", None,
        {"data": 6, "forwarding": 8, "merge": 4, "remove": 16, "reorder": 2},
        "98bf58ab7f385dd1",
    ),
    "mem/N3k2/disjunction/forward-wrong-source": (
        False, "full", (2, "data", _GUARDS_DIFFER),
        {"data": 2, "forwarding": 1, "merge": 4, "remove": 6, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/disjunction/forward-stale-result": (
        False, "full", (3, "data", _OTHER_PRODUCER),
        {"data": 4, "forwarding": 5, "merge": 4, "remove": 12, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/disjunction/execute-ignores-hazard": (
        False, "full", (2, "data", _OTHER_PRODUCER),
        {"data": 2, "forwarding": 1, "merge": 4, "remove": 6, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/disjunction/retire-without-result": (
        False, "full", (2, "data", _NO_ITE_LOAD),
        {"data": 2, "merge": 4, "remove": 6, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/disjunction/retire-out-of-order": (
        False, "full", (1, "reorder", _OVERLAP),
        {},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/disjunction/retire-ignores-valid": (
        False, "full", (2, "merge", _NOT_COMPLEMENTARY),
        {"data": 2, "merge": 2, "remove": 6, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/disjunction/pc-single-increment": (
        True, "full", None,
        {"data": 6, "forwarding": 8, "merge": 4, "remove": 16, "reorder": 2},
        "d8b4f08221be0eff",
    ),
    "mem/N3k2/disjunction/stale-load-forward": (
        False, "full", (3, "data", _NOT_RESULT),
        {"data": 4, "forwarding": 4, "merge": 4, "remove": 12, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/disjunction/store-order": (
        False, "full", (1, "reorder", _DMEM_NOT_AT_HEAD),
        {"merge": 1, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/case_split/None": (
        True, "full", None,
        {"data": 6, "forwarding": 8, "merge": 4, "remove": 16, "reorder": 2},
        "41434b62e38ae7e6",
    ),
    "mem/N3k2/case_split/forward-wrong-source": (
        False, "full", (2, "data", _GUARDS_DIFFER),
        {"data": 2, "forwarding": 1, "merge": 4, "remove": 6, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/case_split/forward-stale-result": (
        False, "full", (3, "data", _OTHER_PRODUCER),
        {"data": 4, "forwarding": 5, "merge": 4, "remove": 12, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/case_split/execute-ignores-hazard": (
        False, "full", (2, "data", _OTHER_PRODUCER),
        {"data": 2, "forwarding": 1, "merge": 4, "remove": 6, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/case_split/retire-without-result": (
        False, "full", (2, "data", _NO_ITE_LOAD),
        {"data": 2, "merge": 4, "remove": 6, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/case_split/retire-out-of-order": (
        False, "full", (1, "reorder", _OVERLAP),
        {},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/case_split/retire-ignores-valid": (
        False, "full", (2, "merge", _NOT_COMPLEMENTARY),
        {"data": 2, "merge": 2, "remove": 6, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/case_split/pc-single-increment": (
        True, "full", None,
        {"data": 6, "forwarding": 8, "merge": 4, "remove": 16, "reorder": 2},
        "c58f81514af0c1ca",
    ),
    "mem/N3k2/case_split/stale-load-forward": (
        False, "full", (3, "data", _NOT_RESULT),
        {"data": 4, "forwarding": 4, "merge": 4, "remove": 12, "reorder": 2},
        "cb3f91d54eee30e5",
    ),
    "mem/N3k2/case_split/store-order": (
        False, "full", (1, "reorder", _DMEM_NOT_AT_HEAD),
        {"merge": 1, "reorder": 1},
        "cb3f91d54eee30e5",
    ),
    "mixed/N3k2/disjunction/None": (
        True, "none", None,
        {"fallback": 1},
        "9727ec684db42010",
    ),
    "mixed/N3k2/disjunction/forward-wrong-source": (
        True, "none", None,
        {"fallback": 1},
        "400798770e475810",
    ),
    "mixed/N3k2/disjunction/forward-stale-result": (
        True, "none", None,
        {"fallback": 1},
        "a6298961f37384d0",
    ),
    "mixed/N3k2/disjunction/execute-ignores-hazard": (
        True, "none", None,
        {"fallback": 1},
        "e874ef10a1fcfbd4",
    ),
    "mixed/N3k2/disjunction/retire-without-result": (
        True, "none", None,
        {"fallback": 1},
        "35572232ddff9a9e",
    ),
    "mixed/N3k2/disjunction/retire-out-of-order": (
        True, "none", None,
        {"fallback": 1},
        "9d20f1e4479f3991",
    ),
    "mixed/N3k2/disjunction/retire-ignores-valid": (
        True, "none", None,
        {"fallback": 1},
        "5d24fc0900e02747",
    ),
    "mixed/N3k2/disjunction/pc-single-increment": (
        True, "none", None,
        {"fallback": 1},
        "a6deb6ca2369864b",
    ),
    "mixed/N3k2/disjunction/wrong-path-retire": (
        True, "none", None,
        {"fallback": 1},
        "73def145eeed6799",
    ),
    "mixed/N3k2/disjunction/dropped-flush": (
        True, "none", None,
        {"fallback": 1},
        "1932efcd50c7e9d9",
    ),
    "mixed/N3k2/disjunction/stale-load-forward": (
        True, "none", None,
        {"fallback": 1},
        "7319adce1a88fe7b",
    ),
    "mixed/N3k2/disjunction/store-order": (
        True, "none", None,
        {"fallback": 1},
        "94d66e8ce62d5113",
    ),
    "reg-reg/N16k4/disjunction/None": (
        True, "full", None,
        {"data": 16, "forwarding": 30, "merge": 4, "remove": 36, "reorder": 6},
        "53db9c0b585e2479",
    ),
    "mem/N8k2/disjunction/None": (
        True, "full", None,
        {"data": 16, "forwarding": 28, "merge": 4, "remove": 36, "reorder": 2},
        "98bf58ab7f385dd1",
    ),
}

@pytest.mark.parametrize(
    "config",
    list(_configurations()),
    ids=lambda config: _key(*config),
)
def test_rewrite_matches_golden_outcome(config):
    assert _outcome(*config) == GOLDEN[_key(*config)]


def test_every_configuration_is_pinned():
    assert len(GOLDEN) == len(list(_configurations())) == 60
