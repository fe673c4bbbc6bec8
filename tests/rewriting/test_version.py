"""Registry fingerprint tests (repro.rewriting.version)."""

import re

from repro.rewriting.version import registry_fingerprint, registry_version


def test_version_format():
    assert re.fullmatch(r"\d+r-[0-9a-f]{12}", registry_version())


def test_version_counts_the_registry():
    from repro.analysis.rules import REGISTRY

    assert registry_version().startswith(f"{len(REGISTRY)}r-")


def test_version_tail_is_the_fingerprint_prefix():
    assert registry_version().split("-", 1)[1] == registry_fingerprint()[:12]


def test_fingerprint_is_deterministic_within_a_process():
    assert registry_fingerprint() == registry_fingerprint()
    assert registry_version() == registry_version()


def test_fingerprint_is_full_sha256_hex():
    digest = registry_fingerprint()
    assert len(digest) == 64
    assert all(c in "0123456789abcdef" for c in digest)
