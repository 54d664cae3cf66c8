"""Persistent fingerprint-keyed store of compiled engine artifacts.

The decision procedures are pure functions of the schema, so their
compiled form (dense transition tables, inhabited sets, schema graphs —
everything an :class:`~repro.engine.EngineArtifact` carries) is cacheable
*forever*: across requests, across daemon restarts, across process-pool
workers.  :class:`ArtifactStore` is that cache's durable tier.

Layout
------

One artifact per registered schema, keyed by the schema fingerprint::

    <cache-dir>/<version-tag>/<fingerprint>.art    pickle payload
    <cache-dir>/<version-tag>/<fingerprint>.json   index sidecar

The version tag folds together :data:`~repro.automata.compiled.PICKLE_VERSION`,
:data:`~repro.engine.artifact.ARTIFACT_VERSION`, and the library version,
so *invalidation is structural*: a process that speaks a different pickle
layout simply looks in a different directory and never reads a stale
blob.  Opening a store reaps superseded version directories — only
names matching the tag scheme, only versions strictly older than this
process, and only when unused for :data:`SWEEP_GRACE_SECONDS` — and
counts their blobs as invalidations, at any depth (tags before ``art2``
nested their blobs one directory level deeper).  Anything else under
the cache root (say, the rest of ``~/.cache`` if the user points the
store at a shared directory) is never touched.

The JSON sidecar records the schema hash, entry count, byte size, and
creation time — enough for ``repro warm`` and ``/stats`` to
describe the store without unpickling anything.

Durability rules
----------------

* **Atomic writes.**  Payloads land via tmp-file + ``os.replace``, so a
  concurrent reader never observes a half-written artifact and two
  writers storing the same schema race benignly (last writer wins with
  byte-identical content).  Each writer's tmp name carries its pid *and*
  thread id, so threads of one process never share a tmp file.
* **Corruption is a miss, never a crash.**  A truncated, foreign, or
  stale blob bumps the ``corrupt`` counter, is deleted, and reads as a
  miss; the caller recompiles exactly as if the store were cold.
* **Bounded size.**  ``max_bytes`` caps the payload bytes per
  ``<version-tag>`` directory; the least-recently-*used*
  artifact (mtime order — hits refresh mtime) is evicted first.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .. import __version__ as _library_version
from ..automata.compiled import PICKLE_VERSION
from .artifact import ARTIFACT_VERSION, ArtifactError, EngineArtifact

#: Environment variable naming the cache directory (CLI/daemon default).
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Default size bound per <version-tag> directory (payload bytes).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Version directories used within this window are never swept, so an
#: older-version process sharing the cache root keeps its artifacts.
SWEEP_GRACE_SECONDS = 24 * 60 * 60

#: The only directory names the sweeper will ever touch.  Anything else
#: under the cache root — a user's unrelated data if they point
#: ``$REPRO_CACHE_DIR`` at a shared directory like ``~/.cache`` — is not
#: ours and must never be deleted.
_TAG_RE = re.compile(r"^pickle(\d+)-art(\d+)-lib(.+)$")


def _tag_sort_key(name: str) -> Optional[Tuple]:
    """A comparable version key for a tag-shaped directory name.

    Returns None for names that don't follow the version-tag scheme.
    Library version parts compare numerically where they are numeric
    (``lib1.10.0`` > ``lib1.9.0``) and lexically otherwise, with every
    non-numeric part ordering after every numeric one so mixed tags
    still compare deterministically.
    """
    match = _TAG_RE.match(name)
    if match is None:
        return None
    lib = tuple(
        (0, int(part), "") if part.isdigit() else (1, 0, part)
        for part in match.group(3).split(".")
    )
    return (int(match.group(1)), int(match.group(2)), lib)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def version_tag() -> str:
    """The directory name under which this process's artifacts live."""
    return f"pickle{PICKLE_VERSION}-art{ARTIFACT_VERSION}-lib{_library_version}"


class ArtifactStore:
    """A bounded, versioned, corruption-tolerant on-disk artifact cache.

    Args:
        root: cache directory (default: :func:`default_cache_dir`).
        max_bytes: payload-byte bound for this store's directory; the
            oldest-mtime artifact is evicted once a put would exceed it.
        sweep_stale: reap superseded version directories at open time
            (tag-named, strictly older, unused past the grace window;
            counted as invalidations).

    Thread-safe: one lock guards the counters and the eviction scan;
    file-level atomicity (``os.replace``) covers cross-process races.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        sweep_stale: bool = True,
    ):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = max_bytes
        self.tag = version_tag()
        self.dir = self.root / self.tag
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt = 0
        self._evictions = 0
        self._invalidations = 0
        self._deletes = 0
        if sweep_stale:
            self._sweep_stale_versions()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path:
        return self.dir / f"{fingerprint}.art"

    def _meta_path(self, fingerprint: str) -> Path:
        return self.dir / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Versioned invalidation
    # ------------------------------------------------------------------

    def _sweep_stale_versions(self) -> None:
        """Reap version directories superseded by this process's version.

        Every ``.art`` blob removed counts as one invalidation: it was a
        valid artifact under some other pickle/library version, and no
        process of *this* version could ever load it.

        Three guards keep the sweep from destroying anything that is not
        provably ours and dead:

        * only directories *named* like a version tag are candidates —
          a cache root pointed at a shared directory (``~/.cache``) has
          its unrelated subdirectories left strictly alone;
        * only tags strictly *older* than this process's version are
          reaped, so a newer deployment warming the same root is never
          clobbered by an old daemon;
        * a directory used within :data:`SWEEP_GRACE_SECONDS` is kept —
          a still-running older-version process sharing the root keeps
          its artifacts instead of losing them on every open here.
        """
        current = _tag_sort_key(self.tag)
        cutoff = time.time() - SWEEP_GRACE_SECONDS
        try:
            children = list(self.root.iterdir())
        except OSError:
            return
        for child in children:
            if child.name == self.tag or not child.is_dir():
                continue
            key = _tag_sort_key(child.name)
            if key is None or current is None or not key < current:
                continue  # not a version dir of ours, or not superseded
            blobs = list(child.rglob("*.art"))
            try:
                newest = max(
                    [child.stat().st_mtime]
                    + [blob.stat().st_mtime for blob in blobs]
                )
            except OSError:
                continue  # racing its owner; leave it for next time
            if newest > cutoff:
                continue  # recently used — an older version is still live
            stale = len(blobs)
            try:
                shutil.rmtree(child)
            except OSError:
                continue
            with self._lock:
                self._invalidations += stale

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[EngineArtifact]:
        """The stored artifact for ``fingerprint``, or None on a miss.

        A hit refreshes the blob's mtime (the LRU recency signal).  Any
        unreadable, undecodable, or mismatched blob is deleted, counted
        under ``corrupt``, and reported as a miss — the store never
        raises on bad disk state.
        """
        path = self.path_for(fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
            with self._lock:
                self._misses += 1
            return None
        try:
            artifact = EngineArtifact.from_bytes(data)
            if artifact.fingerprint() != fingerprint:
                raise ArtifactError(
                    f"stored artifact fingerprint {artifact.fingerprint()!r} "
                    f"does not match its key {fingerprint!r}"
                )
        except Exception:
            # ArtifactError covers the diagnosed corruptions, but a blob
            # that unpickles into the right *shape* with wrong field
            # types (a non-Schema ``schema``, say) surfaces as whatever
            # the validation above tripped over — still a miss, never a
            # crash, per the store's contract.
            self._discard(fingerprint)
            with self._lock:
                self._corrupt += 1
                self._misses += 1
            return None
        now = time.time()
        try:
            os.utime(path, (now, now))
        except OSError:
            pass  # recency refresh is best-effort
        with self._lock:
            self._hits += 1
        return artifact

    def contains(self, fingerprint: str) -> bool:
        """Whether a blob exists under this key (no validity check)."""
        return self.path_for(fingerprint).exists()

    def __contains__(self, fingerprint: str) -> bool:
        return self.contains(fingerprint)

    def fingerprints(self) -> List[str]:
        """Stored keys, least-recently-used first (mtime order)."""
        blobs = []
        for path in self.dir.glob("*.art"):
            try:
                blobs.append((path.stat().st_mtime, path.stem))
            except OSError:
                continue  # racing eviction/put
        return [stem for _, stem in sorted(blobs)]

    def __len__(self) -> int:
        return len(list(self.dir.glob("*.art")))

    def meta(self, fingerprint: str) -> Dict[str, object]:
        """The JSON index sidecar for ``fingerprint`` ({} if unreadable)."""
        try:
            payload = json.loads(self._meta_path(fingerprint).read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return payload if isinstance(payload, dict) else {}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put(
        self,
        artifact: EngineArtifact,
        syntax: str = "scmdl",
        data: Optional[bytes] = None,
    ) -> Path:
        """Persist ``artifact`` atomically; returns the blob path.

        ``data`` lets a caller that already serialized the artifact (for
        a determinism check, say) avoid pickling twice.  The write goes
        tmp-file + ``os.replace`` so readers and racing writers only ever
        observe complete payloads; the sidecar is written after the blob
        (it is advisory — a missing sidecar never blocks a load).
        """
        fingerprint = artifact.fingerprint()
        payload = data if data is not None else artifact.to_bytes()
        path = self.path_for(fingerprint)
        writer = f"{os.getpid()}-{threading.get_ident()}"
        tmp = path.with_suffix(f".tmp-{writer}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        index = {
            "fingerprint": fingerprint,
            "syntax": syntax,
            "schema_root": artifact.schema.root,
            "entries": len(artifact),
            "bytes": len(payload),
            "created_at": time.time(),
            "pickle_version": PICKLE_VERSION,
            "artifact_version": ARTIFACT_VERSION,
            "library_version": _library_version,
        }
        meta_tmp = self._meta_path(fingerprint).with_suffix(f".jtmp-{writer}")
        meta_tmp.write_text(json.dumps(index, indent=2) + "\n")
        os.replace(meta_tmp, self._meta_path(fingerprint))
        with self._lock:
            self._puts += 1
        self._enforce_bound(keep=fingerprint)
        return path

    def delete(self, fingerprint: str) -> bool:
        """Explicitly drop a stored artifact (schema unregistered/migrated).

        Returns True when a blob existed under the key.  Counted under
        ``deletes`` — distinct from ``evictions`` (LRU bound pressure)
        and ``corrupt`` (failed reads), so ``/stats`` can tell a caller's
        retention decision apart from the store's own housekeeping.
        """
        existed = self.contains(fingerprint)
        self._discard(fingerprint)
        if existed:
            with self._lock:
                self._deletes += 1
        return existed

    def _discard(self, fingerprint: str) -> None:
        for path in (self.path_for(fingerprint), self._meta_path(fingerprint)):
            try:
                path.unlink()
            except OSError:
                pass

    def _enforce_bound(self, keep: Optional[str] = None) -> None:
        """Evict oldest-mtime artifacts until payload bytes fit the bound.

        ``keep`` names a fingerprint that is never evicted — the blob a
        ``put()`` just wrote, so the Path it returns stays valid even
        when that single payload exceeds ``max_bytes`` on its own (the
        bound is then overshot by one artifact rather than lied about
        with a dangling path).
        """
        blobs = []
        total = 0
        for path in self.dir.glob("*.art"):
            try:
                stat = path.stat()
            except OSError:
                continue
            blobs.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        blobs.sort()
        for _, size, path in blobs:
            if total <= self.max_bytes:
                break
            if path.stem == keep:
                continue
            self._discard(path.stem)
            total -= size
            with self._lock:
                self._evictions += 1

    def clear(self) -> int:
        """Drop every artifact in this store's directory; returns the count."""
        dropped = 0
        for path in list(self.dir.glob("*.art")):
            self._discard(path.stem)
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters plus the current on-disk footprint."""
        total = 0
        count = 0
        for path in self.dir.glob("*.art"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            count += 1
        with self._lock:
            return {
                "dir": str(self.dir),
                "version_tag": self.tag,
                "artifacts": count,
                "bytes": total,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "corrupt": self._corrupt,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "deletes": self._deletes,
            }

    def __repr__(self) -> str:
        return (
            f"ArtifactStore(dir={str(self.dir)!r}, "
            f"artifacts={len(self)})"
        )
