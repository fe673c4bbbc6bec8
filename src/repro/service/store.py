"""Persistent content-addressed artifact store for witness evidence.

DRUP proofs and counterexample witnesses are the heavyweight outputs of
``certify`` runs; the campaign journal deliberately records only their
digests.  The service persists the full artifact bytes here so the
``GET /v1/artifacts/{digest}`` endpoint can serve them long after the
producing session ended — and so a cache hit on a certified verdict can
still hand out its proof.

Artifacts are addressed by the *witness digest*
(:meth:`repro.witness.types.Witness.digest` — a SHA-256 prefix of the
canonical evidence), which is exactly the digest journaled in campaign
finish records and echoed in result payloads: clients read the digest
off a result and fetch the artifact with it, no extra mapping required.
Writes are atomic and idempotent like the result cache's; a stored
artifact is immutable.

:class:`ArtifactStoringVerify` is the seam that feeds the store: a
picklable ``verify_fn`` wrapper the session installs in the campaign
runner, so artifact persistence works identically in-process and in
``--session-workers`` worker processes (each worker re-opens the store
by path; the blobs are content-addressed, so concurrent writers of the
same artifact commute).

:func:`write_durably` is the one temp-file + ``fsync`` + rename writer
behind every file the service keeps: cache entries, artifact blobs and
their ``.meta`` media types, and session request documents.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional

__all__ = ["ArtifactStore", "ArtifactStoringVerify", "write_durably"]


def write_durably(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically and durably.

    The bytes go to a temp file in the target directory, which is
    flushed and fsynced before ``os.replace`` renames it over ``path``:
    a crash leaves either the old file or the whole new one, plus at
    worst a ``*.tmp`` orphan that readers ignore.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class ArtifactStore:
    """Immutable content-addressed blob store; see the module docstring."""

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, digest: str) -> str:
        if len(digest) < 3 or not all(
            c in "0123456789abcdef" for c in digest
        ):
            raise ValueError(f"not an artifact digest: {digest!r}")
        return os.path.join(self.root, digest[:2], digest)

    def put(
        self, digest: str, data: bytes,
        media_type: str = "application/octet-stream",
    ) -> str:
        """Store ``data`` under ``digest``; idempotent, returns digest."""
        path = self._path(digest)
        if os.path.exists(path):
            return digest
        write_durably(path, data)
        meta = {"media_type": media_type, "size": len(data)}
        write_durably(
            path + ".meta", json.dumps(meta, sort_keys=True).encode("utf-8")
        )
        return digest

    def get(self, digest: str) -> Optional[bytes]:
        path = self._path(digest)  # malformed digests raise, never miss
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def media_type(self, digest: str) -> str:
        try:
            with open(self._path(digest) + ".meta", encoding="utf-8") as fh:
                return str(json.load(fh).get(
                    "media_type", "application/octet-stream"
                ))
        except (FileNotFoundError, ValueError):
            return "application/octet-stream"

    def has(self, digest: str) -> bool:
        try:
            return os.path.exists(self._path(digest))
        except ValueError:
            return False

    def digests(self):
        """Every stored digest (directory scan)."""
        try:
            shards = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith((".tmp", ".meta")):
                    yield name

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())


class ArtifactStoringVerify:
    """A picklable ``verify_fn`` that archives witness artifacts.

    Behaves exactly like :func:`repro.core.verify` — same signature,
    same result, same exceptions — but when the result carries a witness
    (``certify=True`` runs), its full evidence bytes are persisted to
    the artifact store under the witness digest *before* the result is
    returned, so the digest journaled with the finish record is always
    fetchable.  Holds only the store path, so it pickles cleanly into
    campaign worker processes.
    """

    def __init__(self, store_root: str) -> None:
        self.store_root = os.fspath(store_root)

    def __call__(self, config: Any, **kwargs: Any) -> Any:
        from ..core.verifier import verify

        result = verify(config, **kwargs)
        witness = getattr(result, "witness", None)
        if witness is not None:
            store = ArtifactStore(self.store_root)
            store.put(
                witness.digest(),
                witness.artifact_bytes(),
                media_type=witness.artifact_media_type,
            )
        return result
