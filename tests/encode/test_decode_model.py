"""Tests for counterexample decoding and encoding statistics."""

from repro.encode import check_validity, decode_model, encode_validity
from repro.eufm import and_, bvar, eq, implies, not_, or_, tvar, uf


class TestDecodeModel:
    def test_propositional_counterexample(self):
        phi = implies(bvar("p"), bvar("q"))
        result = check_validity(phi)
        assert not result.valid
        assert result.counterexample["p"] is True
        assert result.counterexample["q"] is False

    def test_eij_appears_in_counterexample(self):
        x, y = tvar("x"), tvar("y")
        # Invalid: f(x) = f(y) does not imply x = y.  x and y only occur
        # positively, so they are p-variables: maximal diversity makes them
        # distinct without an e_ij variable, and the counterexample sets
        # the comparison between the two fresh f-application variables to
        # True (f(x) = f(y) while x != y).
        phi = implies(eq(uf("f", [x]), uf("f", [y])), eq(x, y))
        result = check_validity(phi)
        assert not result.valid
        eij_entries = {
            name: value
            for name, value in result.counterexample.items()
            if name.startswith("eij!")
        }
        assert eij_entries
        assert any(value is True for value in eij_entries.values())
        encoded = result.encoded
        diverse = encoded.eij.diverse_pairs
        assert any({x, y} == set(pair) for pair in diverse)

    def test_counterexample_respects_transitivity(self):
        x, y, z = tvar("x"), tvar("y"), tvar("z")
        # Invalid formula whose counterexamples must still satisfy
        # transitivity among the three comparisons.
        phi = or_(
            not_(eq(x, y)), not_(eq(y, z)), eq(x, z), bvar("p")
        )  # valid actually: transitivity makes it valid
        assert check_validity(phi).valid

    def test_valid_formula_has_no_counterexample(self):
        result = check_validity(eq(tvar("x"), tvar("x")))
        assert result.valid
        assert result.counterexample is None


class TestEncodingStats:
    def test_constant_formula_shortcut(self):
        from repro.eufm import TRUE

        encoded = encode_validity(TRUE)
        assert encoded.constant_validity is True
        result = check_validity(TRUE)
        assert result.valid and result.sat_result is None

    def test_invalid_constant(self):
        from repro.eufm import FALSE

        assert check_validity(FALSE).valid is False

    def test_unknown_memory_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            encode_validity(eq(tvar("x"), tvar("y")), memory_mode="magic")


class TestDecodeModelDontCares:
    def test_unassigned_variables_decode_to_none(self):
        phi = implies(bvar("p"), bvar("q"))
        encoded = encode_validity(phi)
        # A partial model: only p decided.
        p_index = next(
            index
            for var, index in encoded.tseitin.var_map.items()
            if var.name == "p"
        )
        assignment = decode_model(encoded, {p_index: True})
        assert assignment["p"] is True
        assert assignment["q"] is None

    def test_every_known_variable_appears(self):
        phi = implies(and_(bvar("p"), bvar("q")), bvar("r"))
        encoded = encode_validity(phi)
        assignment = decode_model(encoded, {})
        assert set(assignment) == {
            var.name for var in encoded.tseitin.var_map
        }
        assert all(value is None for value in assignment.values())

    def test_constant_collapse_decodes_to_empty(self):
        # A constant formula never reaches the solver; every variable the
        # (empty) translation knows decodes, i.e. none.
        from repro.eufm import TRUE

        encoded = encode_validity(TRUE)
        assert encoded.constant_validity is True
        assert decode_model(encoded, {}) == {}

    def test_missing_translation_raises(self):
        import dataclasses

        import pytest

        from repro.errors import EncodingError

        encoded = encode_validity(implies(bvar("p"), bvar("q")))
        bare = dataclasses.replace(encoded, tseitin=None)
        with pytest.raises(EncodingError):
            decode_model(bare, {})

    def test_real_counterexample_distinguishes_false_from_undecided(self):
        phi = implies(bvar("p"), bvar("q"))
        result = check_validity(phi)
        values = set(result.counterexample.values())
        # p=True, q=False are decided; None may appear for untouched vars.
        assert True in values and False in values
