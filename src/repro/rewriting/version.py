"""Version fingerprint of the rewrite-rule registry.

A verification verdict depends on the exact rewriting rules in force:
two runs of the same processor configuration are interchangeable only
when they ran under the same registry.  :func:`registry_version` distills
the registry (:data:`repro.analysis.rules.REGISTRY`, the rule set
``repro lint`` checks) into a short stable fingerprint — a SHA-256 over
every rule's name, description and *built schematic instance* (left- and
right-hand sides, guards and declared generalization allowances,
rendered to canonical s-expressions) — so any semantic change to a rule
changes the fingerprint even when the rule's name does not.

The service layer's content-addressed result cache
(:mod:`repro.service.cache`) folds this fingerprint into every cache key
(:func:`repro.core.keys.canonical_key`): a registry change silently
invalidates every cached verdict instead of serving results proved under
different rules.  ``python -m repro --version`` prints it so clients and
stored artifacts can record provenance.
"""

from __future__ import annotations

import hashlib
from typing import Optional

__all__ = ["registry_version", "registry_fingerprint"]

_cached: Optional[str] = None


def registry_fingerprint() -> str:
    """Full SHA-256 hex digest of the canonical registry serialization."""
    # Imported lazily: repro.analysis imports repro.rewriting at module
    # level, so a module-level import here would be circular.
    from ..analysis.rules import REGISTRY
    from ..eufm.printer import to_sexpr

    parts = []
    for spec in sorted(REGISTRY, key=lambda spec: spec.name):
        instance = spec.build()
        parts.append("\n".join((
            f"name={spec.name}",
            f"description={spec.description}",
            f"lhs={to_sexpr(instance.lhs)}",
            f"rhs={to_sexpr(instance.rhs)}",
            f"pattern_vars={','.join(instance.pattern_vars)}",
            "guards=" + ";".join(to_sexpr(g) for g in instance.guards),
            f"may_generalize={','.join(instance.may_generalize)}",
        )))
    payload = "\n--\n".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def registry_version() -> str:
    """Short registry fingerprint, e.g. ``"5r-1a2b3c4d5e6f"``.

    The leading count makes adding/removing a rule visible at a glance;
    the 12-hex-digit digest tail tracks every semantic change.  Stable
    across processes and field orderings (the serialization is sorted
    and canonical), cached after the first call.
    """
    global _cached
    if _cached is None:
        from ..analysis.rules import REGISTRY

        _cached = f"{len(REGISTRY)}r-{registry_fingerprint()[:12]}"
    return _cached
