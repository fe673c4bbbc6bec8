"""Artifact-store tests (repro.service.store), including the
``--certify`` round-trip: real witness artifacts must come back from the
store byte-identical."""

import os

import pytest

from repro import Bug, ProcessorConfig, verify
from repro.service.store import ArtifactStore, ArtifactStoringVerify

DIGEST_A = "ab12" * 4
DIGEST_B = "cd34" * 4


class TestBlobSemantics:
    def test_put_get_byte_identical(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        payload = b"p drup\n1 2 0\nd 1 0\n"
        assert store.put(DIGEST_A, payload, "text/x-drup") == DIGEST_A
        assert store.get(DIGEST_A) == payload
        assert store.media_type(DIGEST_A) == "text/x-drup"

    def test_put_is_idempotent_and_immutable(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(DIGEST_A, b"first", "text/plain")
        store.put(DIGEST_A, b"second attempt ignored", "text/plain")
        assert store.get(DIGEST_A) == b"first"
        assert len(store) == 1

    def test_missing_digest_is_none(self, tmp_path):
        assert ArtifactStore(str(tmp_path)).get(DIGEST_A) is None
        assert ArtifactStore(str(tmp_path)).has(DIGEST_A) is False

    def test_put_fsyncs_the_blob_and_its_media_type(
        self, tmp_path, monkeypatch
    ):
        # A crash must not keep a blob whose .meta was lost: both writes
        # reach the disk before put returns.
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        ArtifactStore(str(tmp_path)).put(DIGEST_A, b"x", "text/x-drup")
        assert len(synced) == 2
        assert not list(tmp_path.glob("*/*.tmp"))

    def test_media_type_defaults_without_sidecar(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(DIGEST_A, b"x", "text/plain")
        (tmp_path / DIGEST_A[:2] / (DIGEST_A + ".meta")).unlink()
        assert store.media_type(DIGEST_A) == "application/octet-stream"

    def test_digests_scan(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(DIGEST_A, b"a")
        store.put(DIGEST_B, b"b")
        assert sorted(store.digests()) == sorted([DIGEST_A, DIGEST_B])
        assert len(store) == 2

    @pytest.mark.parametrize("bad", ["", "xy", "../../evil", "GG" * 8])
    def test_malformed_digests_are_rejected(self, tmp_path, bad):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.put(bad, b"x")
        with pytest.raises(ValueError):
            store.get(bad)
        assert store.has(bad) is False


class TestCertifyRoundtrip:
    def test_drup_proof_roundtrips_byte_identical(self, tmp_path):
        result = verify(ProcessorConfig(2, 1), certify=True)
        witness = result.witness
        assert witness is not None and witness.validated
        payload = witness.artifact_bytes()
        assert payload  # a real DRUP proof, not a placeholder

        store = ArtifactStore(str(tmp_path))
        store.put(witness.digest(), payload,
                  media_type=witness.artifact_media_type)
        assert store.get(witness.digest()) == payload
        assert store.media_type(witness.digest()) == "text/x-drup"

    def test_counterexample_roundtrips_byte_identical(self, tmp_path):
        result = verify(
            ProcessorConfig(3, 1),
            bug=Bug("forward-wrong-source", entry=2),
            certify=True,
        )
        witness = result.witness
        assert witness is not None
        payload = witness.artifact_bytes()
        store = ArtifactStore(str(tmp_path))
        store.put(witness.digest(), payload,
                  media_type=witness.artifact_media_type)
        assert store.get(witness.digest()) == payload
        assert store.media_type(witness.digest()) == "application/json"


class TestArtifactStoringVerify:
    def test_wrapper_persists_the_witness_under_its_digest(self, tmp_path):
        wrapper = ArtifactStoringVerify(str(tmp_path))
        result = wrapper(ProcessorConfig(2, 1), certify=True)
        assert result.correct
        witness = result.witness
        store = ArtifactStore(str(tmp_path))
        assert store.has(witness.digest())
        assert store.get(witness.digest()) == witness.artifact_bytes()

    def test_wrapper_is_a_no_op_without_a_witness(self, tmp_path):
        wrapper = ArtifactStoringVerify(str(tmp_path))
        result = wrapper(ProcessorConfig(2, 1))  # no certify: no witness
        assert result.correct
        assert len(ArtifactStore(str(tmp_path))) == 0

    def test_wrapper_pickles(self, tmp_path):
        import pickle

        wrapper = ArtifactStoringVerify(str(tmp_path))
        clone = pickle.loads(pickle.dumps(wrapper))
        assert clone.store_root == wrapper.store_root
