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


def test_registry_version_is_pinned():
    # Service cache keys fold this value in, so any change drops every
    # cached verdict.  A deliberate rule change updates the pin.
    assert registry_version() == "5r-6f868c6c16c8"
