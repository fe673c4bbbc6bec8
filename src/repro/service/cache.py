"""Content-addressed, disk-persistent verification result cache.

Every entry is one terminal verification verdict, addressed by
:func:`repro.core.keys.canonical_key` — a SHA-256 over the processor
configuration, the verdict-relevant options, and the rewrite-rule
registry version.  Two requests with the same key are interchangeable
by construction, so the service answers the second from disk without
touching the solver; a registry change rolls every key over and the
stale entries are simply never hit again.

Storage layout (under the cache root)::

    ab/abcdef....json          # one JSON document per key, sharded by
                               # the key's first two hex digits

Writes are atomic (temp file + ``os.replace``) and idempotent — losing
a race to another writer leaves the same bytes either way, so the cache
needs no lock.  A SIGKILL can at worst leave a ``*.tmp`` orphan, which
is ignored by readers and overwritten by the next writer.

Only *definitive* outcomes are cached — ``PROVED`` and ``BUG_FOUND``.
``INCONCLUSIVE`` means "the budget ran out", a property of the request's
budgets rather than of the configuration, and budgets are deliberately
not part of the key; caching it would serve one client's exhaustion as
another client's verdict.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .store import write_durably

__all__ = ["CacheEntry", "ResultCache", "CACHEABLE_STATES"]

#: Statuses worth caching; see the module docstring for the argument.
CACHEABLE_STATES = ("PROVED", "BUG_FOUND")


@dataclass
class CacheEntry:
    """One cached verdict plus its provenance."""

    key: str
    #: the terminal :meth:`repro.campaign.jobs.JobResult.to_dict` record.
    result: Dict[str, Any]
    #: canonical config/options the key was derived from (debuggability:
    #: a cache file is self-describing without reversing the hash).
    config: Dict[str, Any] = field(default_factory=dict)
    options: Dict[str, Any] = field(default_factory=dict)
    registry_version: str = ""
    repro_version: str = ""
    #: digests of artifacts in the :class:`~repro.service.store
    #: .ArtifactStore` this entry references (witness proof, ...).
    artifacts: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "result": self.result,
            "config": self.config,
            "options": self.options,
            "registry_version": self.registry_version,
            "repro_version": self.repro_version,
            "artifacts": self.artifacts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CacheEntry":
        return cls(
            key=data["key"],
            result=dict(data.get("result", {})),
            config=dict(data.get("config", {})),
            options=dict(data.get("options", {})),
            registry_version=str(data.get("registry_version", "")),
            repro_version=str(data.get("repro_version", "")),
            artifacts=list(data.get("artifacts", [])),
        )


class ResultCache:
    """Disk-backed content-addressed verdict cache; see module docs."""

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------

    def _path(self, key: str) -> str:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"not a canonical cache key: {key!r}")
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[CacheEntry]:
        """The cached entry for ``key``, or ``None`` on a miss.

        Unreadable or torn entries count as misses — the caller recomputes
        and overwrites them — so a corrupt file can never wedge a key.
        """
        path = self._path(key)  # malformed keys raise, they never miss
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (FileNotFoundError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("key") != key:
            return None
        try:
            return CacheEntry.from_dict(data)
        except (KeyError, TypeError):
            return None

    def put(self, entry: CacheEntry) -> bool:
        """Persist one entry; returns False when its status is uncacheable.

        Atomic and last-writer-wins: concurrent writers of the same key
        are writing the same verdict (the key pins every input), so
        either ordering leaves a valid entry.
        """
        status = entry.result.get("status")
        if status not in CACHEABLE_STATES:
            return False
        payload = json.dumps(entry.to_dict(), sort_keys=True, indent=1)
        write_durably(self._path(entry.key), payload.encode("utf-8"))
        return True

    # ------------------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """Every cached key (directory scan; for stats and tests)."""
        try:
            shards = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield name[: -len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())
