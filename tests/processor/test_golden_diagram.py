"""Golden digests of the simulated Burch–Dill diagram.

``run_diagram`` must build the same formulas node for node: the same
shapes *and* the same operand order.  ``and_``, ``or_`` and ``eq`` sort
their operands by node uid, so the order in which the simulator creates
nodes is observable in every conjunction, disjunction and equation — and
through them in the CNF and the SAT search.  Each configuration's outputs
are hashed as a Merkle DAG (a node's digest covers its kind, its
name/symbol/value and its children's digests in stored order) and
compared with values pinned from a known-good build.
"""

import hashlib

import pytest

from repro.eufm import clear_intern_cache
from repro.processor import Bug, BugKind, ProcessorConfig, run_diagram
from repro.processor.families import FAMILIES, family_names

#: entry each bug kind is planted at (N=3): the stale-forwarding kinds
#: need two older producers, every other kind reaches entry 2.
_ENTRY = {BugKind.FORWARD_STALE_RESULT: 3, BugKind.STALE_LOAD_FORWARD: 3}


def _configurations():
    for family in family_names():
        yield family, None
        for kind in FAMILIES[family].bug_kinds:
            yield family, kind


def _merkle(roots):
    """Digest of ``roots`` (expressions, lists of them, or ``None``)."""
    memo = {}

    def node_digest(root):
        stack = [root]
        while stack:
            node = stack[-1]
            if node.uid in memo:
                stack.pop()
                continue
            pending = [c for c in node.children if c.uid not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            label = getattr(node, "name", None)
            if label is None:
                label = getattr(node, "symbol", getattr(node, "value", ""))
            h = hashlib.sha256(f"{node.kind}|{label}".encode())
            for child in node.children:
                h.update(memo[child.uid])
            memo[node.uid] = h.digest()
        return memo[root.uid]

    total = hashlib.sha256()
    for root in roots:
        total.update(b"-" if root is None else node_digest(root))
    return total.hexdigest()[:16]


def _diagram_digest(family, kind):
    clear_intern_cache()
    bug = None if kind is None else Bug(kind, entry=_ENTRY.get(kind, 2))
    artifacts = run_diagram(ProcessorConfig(3, 2, family=family), bug=bug)
    roots = [
        artifacts.pc_impl,
        artifacts.rf_impl,
        artifacts.rf_impl_mid,
        artifacts.dmem_impl,
        artifacts.dmem_impl_mid,
        *artifacts.fetch_conditions,
    ]
    for state in artifacts.spec_states:
        roots += [state.pc, state.reg_file, state.dmem]
    return _merkle(roots)


GOLDEN = {
    "reg-reg/None": "133fa12bc91b2f9b",
    "reg-reg/forward-wrong-source": "fb0b4f6769b9e5cc",
    "reg-reg/forward-stale-result": "207157f349a575bd",
    "reg-reg/execute-ignores-hazard": "3fee192c6b1f98fd",
    "reg-reg/retire-without-result": "4de71d949ad3ef12",
    "reg-reg/retire-out-of-order": "a410e3c2389b563a",
    "reg-reg/retire-ignores-valid": "3331871194bfcfe6",
    "reg-reg/pc-single-increment": "38e2a02c4a27e7fb",
    "branch/None": "ce6fecc8e7700ecd",
    "branch/forward-wrong-source": "b8c0a2e423fa8969",
    "branch/forward-stale-result": "4f534ff7f68e728e",
    "branch/execute-ignores-hazard": "bb7fa84bf56ee0bb",
    "branch/retire-without-result": "22e9d4dd6481daa7",
    "branch/retire-out-of-order": "774e1b4f1faead63",
    "branch/retire-ignores-valid": "e3e512041103ab6b",
    "branch/pc-single-increment": "1504021ef5cdbd59",
    "branch/wrong-path-retire": "db1686e2c19e9e54",
    "branch/dropped-flush": "56f4ad745688029c",
    "mem/None": "6b5c62ffa7240dce",
    "mem/forward-wrong-source": "dca21487a681805d",
    "mem/forward-stale-result": "8b4e56ac37ffb866",
    "mem/execute-ignores-hazard": "c3ef61a74c4a8039",
    "mem/retire-without-result": "e8f4e223afd60ddf",
    "mem/retire-out-of-order": "1f54fa0f31853ae1",
    "mem/retire-ignores-valid": "bec51ade6bcad83c",
    "mem/pc-single-increment": "906be393bd95e59e",
    "mem/stale-load-forward": "55c75d6bd2b5013b",
    "mem/store-order": "7f64674d8a3db9cd",
    "mixed/None": "221ed79b9baf266a",
    "mixed/forward-wrong-source": "a1cbcad302f5947d",
    "mixed/forward-stale-result": "fdd26ec5273ae9cd",
    "mixed/execute-ignores-hazard": "a1076442a1e3e34c",
    "mixed/retire-without-result": "4ad010b4bb399567",
    "mixed/retire-out-of-order": "b433c18b758211c6",
    "mixed/retire-ignores-valid": "f67035251c6e2034",
    "mixed/pc-single-increment": "88d11777884cecad",
    "mixed/wrong-path-retire": "4f481a342259f811",
    "mixed/dropped-flush": "2166abb13ca57c87",
    "mixed/stale-load-forward": "5e6c39a25f554178",
    "mixed/store-order": "b3890df1af3ad8da",
}


@pytest.mark.parametrize(
    "family,kind",
    list(_configurations()),
    ids=lambda value: value or "none",
)
def test_diagram_matches_golden_digest(family, kind):
    assert _diagram_digest(family, kind) == GOLDEN[f"{family}/{kind}"]


def test_every_configuration_is_pinned():
    assert len(GOLDEN) == len(list(_configurations())) == 40
