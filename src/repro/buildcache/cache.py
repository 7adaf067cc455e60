"""On-disk content-hash cache for per-TU program databases.

Layout under the cache root::

    manifests/<mkey>.json   dependency list of one (options, main-TU) pair
    objects/<ckey>.pdb      cached per-TU PDB text
    objects/<ckey>.json     metadata (item count, warning count, deps)

``mkey`` identifies *what is being built* — a hash of the options
fingerprint and the main file name.  The manifest records which files
the preprocessor consumed the last time this TU was compiled.  ``ckey``
identifies *the exact inputs* — a hash over the fingerprint, the main
file name, and the (name, content-hash) pair of every consumed file, in
consumption order.

A lookup reads the manifest, hashes the *current* content of every
recorded dependency, and probes ``objects/`` with the resulting key.
This is the classic ccache/depfile argument: if the include structure
changed (a header gained or lost an ``#include``), some already-recorded
file's text must have changed, so the probe misses and the manifest is
rewritten on store.  Changing the instantiation mode, the ``-I`` list,
predefined macros, or the analyzer pass selection changes the
fingerprint, which changes both keys — a guaranteed miss.

Writes go through a temp file + ``os.replace`` so concurrent builds
sharing one cache directory never observe a torn entry.

The cache is additionally *self-healing*: entry metadata records a
sha256 of the stored PDB text, lookups verify it, and any entry that is
corrupt, truncated, or unreadable (other than plainly absent) is evicted
on the spot and recompiled — counted in :attr:`CacheStats.evictions`.  A
damaged cache therefore costs one rebuild, never a wrong or failed
build.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


def content_hash(text: str) -> str:
    """Content hash of one source file's text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


@dataclass
class CacheEntry:
    """One cached per-TU compilation.

    ``errors`` holds the rendered diagnostics of a TU that compiled in
    error-recovery mode; replaying the entry reproduces the build output
    a fresh compile would have printed."""

    pdb_text: str
    items: int = 0
    warnings: int = 0
    deps: list[tuple[str, str]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one build.

    ``evictions`` counts entries dropped by the self-healing checks:
    corrupt manifests, half-present or truncated objects, hash
    mismatches, unreadable files.  An edited dependency is a plain miss."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class BuildCache:
    """Content-addressed store of per-TU PDBs (see module docstring)."""

    def __init__(self, root: str):
        self.root = Path(root)
        self.manifests = self.root / "manifests"
        self.objects = self.root / "objects"
        self.manifests.mkdir(parents=True, exist_ok=True)
        self.objects.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    # -- keys ---------------------------------------------------------

    @staticmethod
    def manifest_key(fingerprint: str, main: str) -> str:
        return _digest("manifest", fingerprint, main)

    @staticmethod
    def object_key(
        fingerprint: str, main: str, dep_hashes: list[tuple[str, str]]
    ) -> str:
        parts = ["object", fingerprint, main]
        for name, h in dep_hashes:
            parts.append(name)
            parts.append(h)
        return _digest(*parts)

    # -- lookup -------------------------------------------------------

    def lookup(
        self,
        fingerprint: str,
        main: str,
        read_content: Callable[[str], Optional[str]],
    ) -> Optional[CacheEntry]:
        """Probe the cache for ``main`` compiled under ``fingerprint``.

        ``read_content`` maps a dependency name to its *current* text
        (or None if it no longer resolves).  Returns a :class:`CacheEntry`
        on a hit, None on a miss; counts either way in :attr:`stats`.
        """
        entry = self._lookup(fingerprint, main, read_content)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def _lookup(
        self,
        fingerprint: str,
        main: str,
        read_content: Callable[[str], Optional[str]],
    ) -> Optional[CacheEntry]:
        mpath = self.manifests / (self.manifest_key(fingerprint, main) + ".json")
        try:
            manifest = json.loads(mpath.read_text())
        except FileNotFoundError:
            return None  # never built: a plain miss, nothing to heal
        except (OSError, ValueError):
            # unreadable or corrupt manifest: evict so the re-store
            # rewrites it from scratch instead of tripping forever
            self._evict(mpath)
            return None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("deps"), list):
            self._evict(mpath)
            return None
        dep_hashes: list[tuple[str, str]] = []
        for name in manifest["deps"]:
            text = read_content(name)
            if text is None:
                return None
            dep_hashes.append((name, content_hash(text)))
        ckey = self.object_key(fingerprint, main, dep_hashes)
        opath = self.objects / (ckey + ".pdb")
        meta_path = self.objects / (ckey + ".json")
        try:
            pdb_text = opath.read_text()
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError:
            if not opath.exists() and not meta_path.exists():
                # a dependency changed since the store: these inputs were
                # never built, a plain miss (the re-store rewrites the
                # manifest)
                return None
            # a half-present entry is damage, not a routine miss
            self._evict(mpath, opath, meta_path)
            return None
        except (OSError, ValueError):
            self._evict(opath, meta_path)
            return None
        if not isinstance(meta, dict):
            self._evict(opath, meta_path)
            return None
        expected = meta.get("sha256")
        if expected is not None and content_hash(pdb_text) != expected:
            # truncated write or bit flip: drop the entry and recompile
            self._evict(opath, meta_path)
            return None
        return CacheEntry(
            pdb_text=pdb_text,
            items=int(meta.get("items", 0)),
            warnings=int(meta.get("warnings", 0)),
            deps=dep_hashes,
            errors=[str(e) for e in meta.get("errors", [])],
        )

    # -- store --------------------------------------------------------

    def store(
        self,
        fingerprint: str,
        main: str,
        dep_hashes: list[tuple[str, str]],
        pdb_text: str,
        items: int = 0,
        warnings: int = 0,
        errors: Optional[list[str]] = None,
    ) -> str:
        """Record a finished compilation; returns the object key."""
        mpath = self.manifests / (self.manifest_key(fingerprint, main) + ".json")
        manifest = {"main": main, "deps": [name for name, _ in dep_hashes]}
        _atomic_write(mpath, json.dumps(manifest, indent=1))
        ckey = self.object_key(fingerprint, main, dep_hashes)
        meta = {
            "main": main,
            "items": items,
            "warnings": warnings,
            "deps": dep_hashes,
            "sha256": content_hash(pdb_text),
            "errors": errors or [],
        }
        _atomic_write(self.objects / (ckey + ".pdb"), pdb_text)
        _atomic_write(self.objects / (ckey + ".json"), json.dumps(meta, indent=1))
        return ckey

    # -- self-healing -------------------------------------------------

    def _evict(self, *paths: Path) -> None:
        """Remove the files of one damaged entry; count a single eviction.

        Best-effort: an entry we cannot unlink (e.g. permissions) still
        counts — the lookup already treats it as a miss, so the build
        proceeds by recompiling either way."""
        for p in paths:
            try:
                p.unlink()
            except OSError:
                pass
        self.stats.evictions += 1

    # -- maintenance --------------------------------------------------

    def entry_count(self) -> int:
        """Number of cached per-TU PDBs."""
        return sum(1 for _ in self.objects.glob("*.pdb"))

    def clear(self) -> None:
        """Drop every entry (the directories survive)."""
        for d in (self.manifests, self.objects):
            for p in d.iterdir():
                p.unlink()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
