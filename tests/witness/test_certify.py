"""End-to-end tests for ``verify(certify=True)`` and certify_result."""

import pytest

from repro.core import verify
from repro.errors import WitnessError
from repro.processor.bugs import Bug
from repro.processor.params import ProcessorConfig
from repro.witness import check_drup, certify_result


CONFIG = ProcessorConfig(n_rob=4, issue_width=2)


class TestCorrectDesign:
    def test_unsat_proof_witness_validates(self):
        result = verify(CONFIG, certify=True)
        assert result.correct
        witness = result.witness
        assert witness is not None
        assert witness.kind == "unsat-proof"
        assert witness.validated
        assert witness.proof is not None
        assert witness.proof.ends_with_empty_clause
        assert witness.check.ok
        assert witness.cnf_vars == result.validity.encoded.cnf.num_vars

    def test_proof_rechecks_independently(self):
        result = verify(CONFIG, certify=True)
        outcome = check_drup(
            result.validity.encoded.cnf, result.witness.proof
        )
        assert outcome.ok

    def test_proof_survives_text_round_trip(self):
        from repro.witness import DrupProof

        result = verify(CONFIG, certify=True)
        reparsed = DrupProof.from_text(result.witness.proof.to_text())
        assert reparsed.digest() == result.witness.proof.digest()
        assert check_drup(result.validity.encoded.cnf, reparsed).ok

    def test_without_certify_no_witness_and_no_proof(self):
        result = verify(CONFIG)
        assert result.witness is None
        assert result.validity.sat_result.proof is None

    def test_positive_equality_method_also_certifies(self):
        result = verify(
            ProcessorConfig(n_rob=2, issue_width=1),
            method="positive_equality",
            certify=True,
        )
        assert result.correct
        assert result.witness.kind in ("unsat-proof", "trivial")
        assert result.witness.validated


class TestBuggyDesign:
    def test_counterexample_witness_replays_and_shrinks(self):
        result = verify(
            CONFIG, bug=Bug("pc-single-increment"), certify=True
        )
        assert not result.correct
        witness = result.witness
        assert witness.kind == "counterexample"
        assert witness.validated
        cex = witness.counterexample
        assert cex.replayed_false
        # The acceptance bar: minimization must strictly shrink the raw
        # model for this seeded bug.
        assert cex.minimized_size < cex.raw_size
        assert cex.disagreements

    def test_rewrite_flag_witness_when_no_sat_artifact(self):
        result = verify(
            CONFIG, bug=Bug("forward-wrong-source", entry=2), certify=True
        )
        assert not result.correct
        witness = result.witness
        assert witness.kind == "rewrite-flag"
        assert not witness.validated
        assert "slice 2" in witness.detail

    def test_witness_digest_depends_on_kind(self):
        proved = verify(CONFIG, certify=True)
        buggy = verify(
            CONFIG, bug=Bug("pc-single-increment"), certify=True
        )
        assert proved.witness.digest() != buggy.witness.digest()


class TestCertifyResult:
    def test_uncertified_result_raises(self):
        result = verify(CONFIG)
        with pytest.raises(WitnessError):
            certify_result(result)

    def test_summary_dict_round_trips_as_json(self):
        import json

        for kwargs in ({}, {"bug": Bug("pc-single-increment")}):
            result = verify(CONFIG, certify=True, **kwargs)
            payload = json.loads(json.dumps(result.witness.summary_dict()))
            assert payload["kind"] == result.witness.kind
            assert payload["validated"] == result.witness.validated
            assert payload["digest"] == result.witness.digest()

    def test_witness_spans_recorded_in_trace(self):
        result = verify(CONFIG, certify=True)
        names = {span.name for span in result.trace.children}
        assert "witness" in names
        witness_span = next(
            span for span in result.trace.children if span.name == "witness"
        )
        child_names = {span.name for span in witness_span.children}
        assert "witness.check_proof" in child_names
