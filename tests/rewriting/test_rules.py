"""Unit tests for the structural rewriting rules."""

import pytest

from repro.eufm import (
    FALSE,
    TRUE,
    and_,
    bvar,
    eq,
    ite_formula,
    ite_term,
    not_,
    or_,
    read,
    tvar,
    write,
)
from repro.rewriting import (
    RuleViolation,
    conjuncts,
    contexts_disjoint,
    decompose_chain,
    merge_contexts,
    prove_forwarding_matches_read,
    split_on_guard,
)


class TestConjuncts:
    def test_true_is_empty(self):
        assert conjuncts(TRUE) == frozenset()

    def test_atom_is_singleton(self):
        p = bvar("p")
        assert conjuncts(p) == frozenset((p,))

    def test_conjunction_flattens(self):
        p, q, r = bvar("p"), bvar("q"), bvar("r")
        assert conjuncts(and_(p, and_(q, r))) == frozenset((p, q, r))


class TestContextsDisjoint:
    def test_direct_complement(self):
        p, q = bvar("p"), bvar("q")
        assert contexts_disjoint(and_(p, q), and_(p, not_(q)))

    def test_retirement_shape(self):
        """Valid_i & NOT retire_i vs Valid_j & retire_j where retire_j's
        conjuncts include retire_i's — the in-order-retirement shape."""
        or1, or2 = bvar("or1"), bvar("or2")
        retire_1 = or1
        retire_2 = and_(or1, or2)
        v1, v2 = bvar("Valid1"), bvar("Valid2")
        ctx_flush_1 = and_(v1, not_(retire_1))
        ctx_retire_2 = and_(v2, retire_2)
        assert contexts_disjoint(ctx_flush_1, ctx_retire_2)
        assert contexts_disjoint(ctx_retire_2, ctx_flush_1)

    def test_overlapping_contexts(self):
        p, q = bvar("p"), bvar("q")
        assert not contexts_disjoint(p, q)

    def test_same_context_not_disjoint(self):
        p = bvar("p")
        assert not contexts_disjoint(p, p)


class TestMergeContexts:
    def test_paper_shape(self):
        valid = bvar("Valid1")
        retire = bvar("retire1")
        merged = merge_contexts(and_(valid, retire), and_(valid, not_(retire)))
        assert merged is not None
        context, residual = merged
        assert context is valid
        assert residual is retire

    def test_compound_residual(self):
        valid = bvar("Valid2")
        or1, or2 = bvar("or1"), bvar("or2")
        retire = and_(or1, or2)
        merged = merge_contexts(and_(valid, retire), and_(valid, not_(retire)))
        assert merged is not None
        context, residual = merged
        assert context is valid
        assert residual is retire

    def test_non_complementary_rejected(self):
        p, q, r = bvar("p"), bvar("q"), bvar("r")
        assert merge_contexts(and_(p, q), and_(p, r)) is None

    def test_mismatched_common_part_rejected(self):
        p, q, r = bvar("p"), bvar("q"), bvar("r")
        assert merge_contexts(and_(p, q), and_(r, not_(q))) is None


class TestSplitOnGuard:
    def test_plain_ite(self):
        g, t, e = bvar("g"), bvar("t"), bvar("e")
        node = ite_formula(g, t, e)
        assert split_on_guard(node, g) == (t, e)

    def test_or_with_negated_guard(self):
        g, t = bvar("g"), bvar("t")
        node = or_(not_(g), t)  # ITE(g, t, TRUE)
        assert split_on_guard(node, g) == (t, TRUE)

    def test_or_with_guard(self):
        g, e = bvar("g"), bvar("e")
        node = or_(g, e)  # ITE(g, TRUE, e)
        assert split_on_guard(node, g) == (TRUE, e)

    def test_and_with_guard(self):
        g, t = bvar("g"), bvar("t")
        node = and_(g, t)  # ITE(g, t, FALSE)
        assert split_on_guard(node, g) == (t, FALSE)

    def test_no_match(self):
        assert split_on_guard(bvar("p"), bvar("g")) is None


class TestForwardingWalk:
    def _chains(self, producers):
        """Build matched forwarding / availability chains over producers
        ``j`` (oldest first), and the specification-side read of the same
        register from the guarded write chain of their updates."""
        src = tvar("SrcX")
        rf = tvar("RF")
        fwd, mem, avail = read(rf, src), rf, TRUE
        for j in producers:
            valid = bvar(f"V{j}")
            vres = bvar(f"VR{j}")
            dest = tvar(f"D{j}")
            result = tvar(f"R{j}")
            spec_data = ite_term(vres, result, tvar(f"Computed{j}"))
            match = and_(valid, eq(dest, src))
            fwd = ite_term(match, result, fwd)
            mem = ite_term(valid, write(mem, dest, spec_data), mem)
            avail = ite_formula(match, vres, avail)
        return fwd, read(mem, src), avail

    @staticmethod
    def _prove(fwd, spec, avail):
        """The walk against the chain ``spec`` reads, decomposed as the
        engine does: once, keyed by its final state."""
        prove_forwarding_matches_read(
            fwd, spec, avail, {spec.mem: decompose_chain(spec.mem)}
        )

    def test_single_producer(self):
        fwd, spec, avail = self._chains([1])
        self._prove(fwd, spec, avail)

    def test_three_producers(self):
        fwd, spec, avail = self._chains([1, 2, 3])
        self._prove(fwd, spec, avail)

    def test_empty_chain(self):
        fwd, spec, avail = self._chains([])
        self._prove(fwd, spec, avail)

    def test_wrong_guard_rejected(self):
        fwd, spec, avail = self._chains([1, 2])
        # Tamper: change the outermost guard of the forwarding chain.
        bad = ite_term(bvar("other_guard"), fwd.then, fwd.els)
        with pytest.raises(RuleViolation):
            self._prove(bad, spec, avail)

    def test_wrong_result_rejected(self):
        fwd, spec, avail = self._chains([1, 2])
        bad = ite_term(fwd.cond, tvar("WrongResult"), fwd.els)
        with pytest.raises(RuleViolation):
            self._prove(bad, spec, avail)

    def test_wrong_availability_rejected(self):
        fwd, spec, avail = self._chains([1])
        with pytest.raises(RuleViolation):
            self._prove(fwd, spec, bvar("unrelated"))

    def test_chain_one_level_short_rejected(self):
        # The forwarding chain skips the oldest producer's update.
        fwd, _, _ = self._chains([2, 3])
        _, spec, avail = self._chains([1, 2, 3])
        with pytest.raises(RuleViolation, match="level 2: chain shapes"):
            self._prove(fwd, spec, avail)

    def test_chain_one_level_too_long_rejected(self):
        # The forwarding chain tests a producer the specification side
        # never wrote.
        fwd, _, avail = self._chains([1, 2, 3])
        _, spec, _ = self._chains([2, 3])
        with pytest.raises(RuleViolation, match="level 2: chain shapes"):
            self._prove(fwd, spec, avail)

    def test_read_from_an_undecomposed_state_rejected(self):
        # The prefixes hold another chain than the one the read is from.
        fwd, spec, avail = self._chains([1, 2])
        _, other, _ = self._chains([1])
        with pytest.raises(RuleViolation, match="not from a decomposed"):
            prove_forwarding_matches_read(
                fwd, spec, avail, {other.mem: decompose_chain(other.mem)}
            )
