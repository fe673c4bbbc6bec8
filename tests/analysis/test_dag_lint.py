"""DAG hygiene: hash-consing and stage residue."""

from repro.analysis import (
    ERROR,
    audit_hash_consing,
    audit_memory_free,
    audit_propositional,
)
from repro.eufm import and_, bvar, eq, ite_formula, not_, or_, read, tvar, write
from repro.eufm.ast import TermVar


def errors(diagnostics):
    return [d for d in diagnostics if d.severity == ERROR]


def checks(diagnostics):
    return {d.check for d in diagnostics}


def _rogue_tvar(name, uid=10 ** 9):
    """A structurally valid TermVar built behind intern_node's back."""
    node = object.__new__(TermVar)
    node._init(name)
    node.uid = uid
    return node


class TestHashConsing:
    def test_builder_output_is_clean(self):
        phi = and_(
            eq(tvar("x"), tvar("y")),
            or_(not_(eq(tvar("x"), tvar("y"))), bvar("p")),
        )
        assert audit_hash_consing(phi) == []

    def test_rogue_duplicate_is_error(self):
        legit = tvar("dup")
        rogue = _rogue_tvar("dup")
        assert rogue is not legit
        phi = and_(eq(legit, tvar("z")), eq(rogue, tvar("z")))
        findings = audit_hash_consing(phi)
        assert "dag.non-hash-consed-duplicate" in checks(errors(findings))

    def test_duplicate_detected_across_roots(self):
        legit = tvar("dup2")
        rogue = _rogue_tvar("dup2", uid=10 ** 9 + 1)
        findings = audit_hash_consing(
            eq(legit, tvar("a")), eq(rogue, tvar("b"))
        )
        assert "dag.non-hash-consed-duplicate" in checks(errors(findings))


class TestStageResidue:
    def test_memory_free_formula_passes(self):
        assert audit_memory_free(eq(tvar("x"), tvar("y"))) == []

    def test_surviving_read_write_is_error(self):
        m = tvar("m")
        phi = eq(read(write(m, tvar("a"), tvar("d")), tvar("b")), tvar("v"))
        findings = audit_memory_free(phi, stage="encode")
        assert findings
        assert all(d.check == "dag.memory-op-after-elimination"
                   for d in findings)
        assert all(d.stage == "encode" for d in findings)

    def test_propositional_formula_passes(self):
        phi = ite_formula(bvar("p"), and_(bvar("q"), bvar("r")),
                          not_(bvar("q")))
        assert audit_propositional(phi) == []

    def test_equation_residue_is_error(self):
        phi = and_(bvar("p"), eq(tvar("x"), tvar("y")))
        findings = audit_propositional(phi)
        assert "dag.non-propositional-residue" in checks(errors(findings))
        assert any("equation escaped" in d.message for d in findings)
