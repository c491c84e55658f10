"""Content-addressed on-disk pickle store, keyed by source fingerprint.

:class:`InstanceCache` maps ``(kind, key)`` to a pickled value under one
root directory.  Every key is serialized canonically (JSON, sorted keys),
combined with the :func:`code_version` fingerprint, and hashed, so there
is nothing to invalidate by hand: touching any fingerprinted source file
changes ``code_version`` and orphans the old entries.

The serve engine's result cache (:mod:`repro.serve.engine`) is its user;
the experiment runner caches nothing and recomputes every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import tempfile
from typing import Any, Dict, Optional, Sequence

__all__ = ["InstanceCache", "code_version"]

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Source files whose content defines the validity of cached artifacts:
#: every module of the package, as sorted posix paths relative to it.
#: Cached results depend on the generators, the core algorithm, the
#: simulator and the harnesses alike, and a hand-kept subset goes stale
#: as soon as a module outside it changes.  Editing any source
#: invalidates every cache entry.
_FINGERPRINTED_SOURCES = tuple(sorted(
    p.relative_to(_PACKAGE_ROOT).as_posix() for p in _PACKAGE_ROOT.rglob("*.py")
))

_computed_version: Optional[str] = None


def code_version() -> str:
    """Fingerprint of the package sources (16 hex chars).

    Pass ``version=`` to :class:`InstanceCache` to pin another one.
    """
    global _computed_version
    if _computed_version is None:
        digest = hashlib.sha256()
        for rel in _FINGERPRINTED_SOURCES:
            digest.update(rel.encode())
            digest.update((_PACKAGE_ROOT / rel).read_bytes())
        _computed_version = digest.hexdigest()[:16]
    return _computed_version


class InstanceCache:
    """Content-addressed pickle store under one root directory.

    Parameters
    ----------
    root:
        Directory for the entries (created on first write); ``repro
        serve`` uses ``benchmarks/.cache/`` when run from the repo root.
    enabled:
        When false every lookup misses and nothing is written —
        ``repro serve --no-cache`` keeps the same code shape.
    version:
        Cache-key fingerprint; defaults to :func:`code_version`.
    """

    def __init__(
        self,
        root: "pathlib.Path | str",
        *,
        enabled: bool = True,
        version: Optional[str] = None,
    ):
        self.root = pathlib.Path(root)
        self.enabled = enabled
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, kind: str, key: Sequence[Any]) -> pathlib.Path:
        payload = json.dumps([kind, list(key), self.version], sort_keys=True, default=str)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return self.root / kind / digest[:2] / f"{digest}.pkl"

    def get(self, kind: str, key: Sequence[Any]):
        """Return ``(hit, value)``; a corrupt entry reads as a miss."""
        if not self.enabled:
            return False, None
        path = self._path(kind, key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, kind: str, key: Sequence[Any], value: Any) -> None:
        """Store atomically (tempfile + rename) so concurrent writers of
        the same key cannot leave a torn entry."""
        if not self.enabled:
            return
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> Dict[str, Any]:
        """Hit/miss counters (the serve engine reports them in its stats)."""
        return {"enabled": self.enabled, "hits": self.hits, "misses": self.misses}

