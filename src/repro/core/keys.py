"""Canonical content keys for verification work.

A verification verdict is a pure function of three inputs: the processor
configuration, the encoding/verification options, and the rewrite-rule
registry in force.  :func:`canonical_key` hashes exactly those three
into a stable SHA-256 hex key, so any two requests with the same key are
interchangeable — the foundation of the service layer's
content-addressed result cache (:mod:`repro.service.cache`).

Stability contract (unit-tested in ``tests/core/test_keys.py``):

* equal inputs hash equal across process restarts — no ``id()``,
  ``hash()`` randomization, or dict-order dependence leaks in;
* field order never matters — all mappings are serialized sorted;
* ``None``-valued options are dropped, so an absent option and an
  explicitly-``None`` option agree;
* budgets (conflicts/seconds/memory) are *not* part of the key: they
  bound the search, not the verdict, and cached entries only ever hold
  definitive outcomes (see :class:`repro.service.cache.ResultCache`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional, Union

from ..processor.params import ProcessorConfig

__all__ = ["canonical_key", "config_dict"]


def config_dict(config: Union[ProcessorConfig, Mapping[str, Any]]) -> dict:
    """The canonical plain-dict form of a processor configuration."""
    if isinstance(config, ProcessorConfig):
        return {
            "n_rob": config.n_rob,
            "issue_width": config.issue_width,
            "retire_width": config.retire_width,
            "family": config.family,
        }
    data = dict(config)
    # Normalize through the dataclass so defaulting (retire_width=None
    # means "same as issue width", absent family means the default
    # register-register family) cannot split the key space.
    kwargs = {}
    if data.get("family") is not None:
        kwargs["family"] = str(data["family"])
    return config_dict(ProcessorConfig(
        n_rob=int(data["n_rob"]),
        issue_width=int(data["issue_width"]),
        retire_width=data.get("retire_width"),
        **kwargs,
    ))


def canonical_key(
    config: Union[ProcessorConfig, Mapping[str, Any]],
    options: Optional[Mapping[str, Any]] = None,
    registry_version: Optional[str] = None,
) -> str:
    """Stable SHA-256 key of (config, options, rule-registry version).

    Args:
        config: a :class:`~repro.processor.params.ProcessorConfig` or an
            equivalent mapping (``n_rob`` / ``issue_width`` /
            ``retire_width`` / ``family``); both forms produce the same
            key, and an absent ``family`` means the default
            register-register family.
        options: encoding/verification options that change the verdict
            or its evidence (``method``, ``criterion``, bug fields,
            ``certify``, ...).  ``None`` values are dropped; insertion
            order is irrelevant.
        registry_version: the rewrite-rule registry fingerprint
            (:func:`repro.rewriting.version.registry_version`); defaults
            to the live registry's version.
    """
    if registry_version is None:
        from ..rewriting.version import registry_version as live_version

        registry_version = live_version()
    clean_options = {
        str(name): value
        for name, value in (options or {}).items()
        if value is not None
    }
    payload = json.dumps(
        {
            "config": config_dict(config),
            "options": clean_options,
            "registry": registry_version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
