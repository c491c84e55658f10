"""Content-addressed on-disk caching for the experiment runner.

Regenerating the DESIGN.md §4 tables rebuilds the same instances over and
over: the scaling-series graphs, their diameters (all-pairs BFS — the
single most expensive precomputation at n = 1600), the whole-graph
shortcut structures the :class:`~repro.congest.ledger.CostModel` is seeded
with, and — because every algorithm in :mod:`repro.core` is deterministic
— even the experiment rows themselves.  This module provides the cache
those layers share.

Two layers use it (see ``docs/BENCHMARKS.md`` for the contract):

* **instance artifacts** — generated graphs, diameters and shortcut
  qualities, keyed by ``(family, n, seed, code_version)``;
* **unit results** — the row payload of one experiment unit, keyed by
  ``(experiment, unit, params, code_version)``.

Every key is serialized canonically (JSON, sorted keys), combined with the
:func:`code_version` fingerprint, and hashed — the cache is
content-addressed, so there is nothing to invalidate by hand: touching any
fingerprinted source file changes ``code_version`` and orphans the old
entries, and ``--no-cache`` (or simply deleting ``benchmarks/.cache/``)
bypasses them.

The cache is *opt-in*: library calls never touch the disk unless a cache
has been activated via :func:`set_cache` (the experiment runner and the
benchmark harness do; plain ``repro.analysis.experiments.e1_...()`` calls
do not).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import tempfile
from typing import Any, Callable, Dict, Optional, Sequence

__all__ = [
    "CODE_VERSION_ENV",
    "InstanceCache",
    "cached",
    "code_version",
    "get_cache",
    "set_cache",
]

#: Override the computed code fingerprint (used by tests and by workers
#: that must agree with their parent about the active version).
CODE_VERSION_ENV = "REPRO_BENCH_CODE_VERSION"

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Source files whose content defines the validity of cached artifacts:
#: every module of the package, as sorted posix paths relative to it.
#: Cached instances and unit results depend on the generators, the core
#: algorithm, the simulator and the harnesses alike, and a hand-kept
#: subset goes stale as soon as a module outside it changes.  Editing any
#: source invalidates every cache entry.
_FINGERPRINTED_SOURCES = tuple(sorted(
    p.relative_to(_PACKAGE_ROOT).as_posix() for p in _PACKAGE_ROOT.rglob("*.py")
))

_computed_version: Optional[str] = None


def code_version() -> str:
    """Fingerprint of the artifact-producing sources (16 hex chars).

    The environment variable :data:`CODE_VERSION_ENV`, when set, wins —
    that is how tests exercise invalidation and how pool workers inherit
    the parent's resolved version.
    """
    env = os.environ.get(CODE_VERSION_ENV)
    if env:
        return env
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
        Directory for the entries (created on first write); the benchmark
        harness uses ``benchmarks/.cache/``.
    enabled:
        When false every lookup misses and nothing is written —
        the ``--no-cache`` path keeps the same code shape.
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

    def get_or_compute(self, kind: str, key: Sequence[Any], compute: Callable[[], Any]):
        """The memoization primitive every cached layer goes through."""
        hit, value = self.get(kind, key)
        if hit:
            return value
        value = compute()
        self.put(kind, key, value)
        return value

    def stats(self) -> Dict[str, Any]:
        """Hit/miss counters for the artifact's ``trace_stats`` block."""
        return {"enabled": self.enabled, "hits": self.hits, "misses": self.misses}


# -- the process-wide active cache ------------------------------------------

_active: Optional[InstanceCache] = None


def set_cache(cache: Optional[InstanceCache]) -> Optional[InstanceCache]:
    """Install (or clear, with ``None``) the active cache; returns the
    previous one so callers can restore it."""
    global _active
    previous = _active
    _active = cache
    return previous


def get_cache() -> Optional[InstanceCache]:
    """The active cache, or ``None`` when caching is off (the default)."""
    return _active


def cached(kind: str, key: Sequence[Any], compute: Callable[[], Any]):
    """Memoize ``compute()`` under the active cache; compute directly when
    no cache is active."""
    cache = get_cache()
    if cache is None or not cache.enabled:
        return compute()
    return cache.get_or_compute(kind, key, compute)
