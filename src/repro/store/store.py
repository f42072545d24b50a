"""The on-disk index store: atomic writes, manifests, LRU, quarantine.

Layout: every entry is two files in ``cache_dir``::

    <fingerprint>-<structure>-<digest12>.npz    # the index archive (io v3)
    <fingerprint>-<structure>-<digest12>.json   # the manifest

The filename stem (:func:`store_key_id`) is derived from the full
:class:`~repro.engine.registry.IndexKey` -- fingerprint, structure, and
the canonical JSON of the build params -- so two parameterisations of
the same dataset never collide, and every file name leads with the
fingerprint so invalidation can delete a dataset's entries without
reading a single manifest.

Durability and integrity:

* **Atomic writes.** Archives and manifests are written to a temp file
  in the cache directory and ``os.replace``d into place, so a crashed
  writer can leave a stray temp file but never a torn entry.
* **Checksums.** The archive embeds a payload checksum (io format v3)
  and the manifest records the same digest; :meth:`IndexStore.get`
  verifies on load and **quarantines** a failing file (moved to
  ``quarantine/``, manifest deleted) instead of serving bad data --
  the registry then rebuilds transparently.
* **Byte-budget LRU.** ``budget_bytes`` caps the directory; the
  evictor drops the least-recently-*used* entries (mtime, refreshed on
  every hit) until the total fits.  :meth:`gc` runs it on demand.

Resilience: with a :class:`~repro.resilience.RetryPolicy` attached,
:meth:`IndexStore.get` retries a failing load (backoff with seeded
jitter) before quarantining -- a transient read error heals, a torn
file still ends up in ``quarantine/`` and the registry rebuilds.  An
optional :class:`~repro.resilience.FaultInjector` is consulted at the
``store.load`` site inside the retry loop, so injected corruption
exercises the very same retry -> quarantine -> rebuild path.

All methods are thread-safe under one lock; the store never holds the
registry's lock, so disk I/O cannot deadlock the serving path.  An
optional ``observer`` callback receives one event name per counter
increment (``disk_hit``, ``disk_miss``, ``spill``,
``corrupt_eviction``, ``disk_eviction``, ``load_retry``) -- the engine
points it at :meth:`EngineStats.event <repro.counters.Counters.event>`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..structures.io import load_structure, save_structure

__all__ = ["IndexStore", "StoreEntry", "store_key_id"]

_MANIFEST_VERSION = 1


def store_key_id(key) -> str:
    """Deterministic filename stem for an index key.

    ``key`` needs ``fingerprint``/``structure``/``params`` attributes
    (duck-typed so the store does not import the engine).  The digest
    covers the canonical JSON of the params, so it is stable across
    processes and Python versions.
    """
    params_json = json.dumps(sorted((str(k), v) for k, v in key.params),
                             sort_keys=True, default=str)
    digest = hashlib.sha256(
        f"{key.fingerprint}|{key.structure}|{params_json}".encode()
    ).hexdigest()[:12]
    return f"{key.fingerprint}-{key.structure}-{digest}"


@dataclass
class StoreEntry:
    """One store entry as described by its manifest (or its filename)."""

    key_id: str
    path: str
    fingerprint: str
    structure: str
    params: Dict[str, object] = field(default_factory=dict)
    size_bytes: int = 0
    mtime: float = 0.0
    checksum: Optional[str] = None
    build_steps: float = 0.0
    build_primitives: int = 0
    num_lines: int = 0


class IndexStore:
    """Fingerprint-addressed persistent cache of built indexes."""

    QUARANTINE = "quarantine"

    def __init__(self, cache_dir, budget_bytes: Optional[int] = None,
                 observer: Optional[Callable[[str], None]] = None,
                 retry=None, injector=None, readonly: bool = False):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.cache_dir = os.fspath(cache_dir)
        self.budget_bytes = budget_bytes
        #: a read-only store never writes: no spills, no mtime refresh
        #: on hit, and a corrupt file is reported as a miss instead of
        #: quarantined.  Process-pool workers open the parent's cache
        #: dir this way, so concurrent workers cannot race the owning
        #: engine's GC/quarantine and shutdown spills happen exactly
        #: once -- in the parent.
        self.readonly = bool(readonly)
        self._observer = observer
        self.retry = retry            # Optional[resilience.RetryPolicy]
        self._injector = injector     # Optional[resilience.FaultInjector]
        self._retry_rng = random.Random(0x5EED)
        self._lock = threading.RLock()
        os.makedirs(self.cache_dir, exist_ok=True)
        self.disk_hits = 0
        self.disk_misses = 0
        self.spills = 0
        self.corrupt_evictions = 0
        self.disk_evictions = 0
        self.load_retries = 0
        self.orphan_temps_removed = 0
        if not self.readonly:
            # a writer that crashed mid-_atomic_* leaves a ``.tmp-``
            # file that os.replace never claimed; sweep them on open so
            # a kill -9 cannot leak disk forever
            self._sweep_orphan_temps()

    # -- paths -----------------------------------------------------------

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.cache_dir, self.QUARANTINE)

    def path_for(self, key) -> str:
        return os.path.join(self.cache_dir, store_key_id(key) + ".npz")

    def manifest_path_for(self, key) -> str:
        return os.path.join(self.cache_dir, store_key_id(key) + ".json")

    def contains(self, key) -> bool:
        return os.path.exists(self.path_for(key))

    # -- write / read ----------------------------------------------------

    def put(self, key, tree, build_steps: float = 0.0,
            build_primitives: int = 0, num_lines: int = 0) -> str:
        """Persist one built index atomically; returns the archive path.

        The build accounting rides in the manifest so a later disk hit
        can report the original build cost instead of zeros.
        """
        if self.readonly:
            raise RuntimeError("IndexStore is read-only; put() refused")
        key_id = store_key_id(key)
        if self._injector is not None:
            self._injector.fire("store.put", key_id=key_id)
        final = os.path.join(self.cache_dir, key_id + ".npz")
        with self._lock:
            checksum = self._atomic_archive(final, tree, dict(key.params))
            manifest = {
                "manifest_version": _MANIFEST_VERSION,
                "key_id": key_id,
                "fingerprint": key.fingerprint,
                "structure": key.structure,
                "params": {str(k): v for k, v in key.params},
                "checksum": checksum,
                "size_bytes": os.path.getsize(final),
                "created": time.time(),
                "build_steps": float(build_steps),
                "build_primitives": int(build_primitives),
                "num_lines": int(num_lines),
            }
            self._atomic_json(os.path.join(self.cache_dir, key_id + ".json"),
                              manifest)
            self.spills += 1
            if self.budget_bytes is not None:
                self._gc_locked(self.budget_bytes)
        self._notify("spill")
        return final

    def get(self, key) -> Optional[Tuple[object, Dict[str, object]]]:
        """Load one entry; ``None`` on miss or after quarantining.

        Returns ``(tree, manifest)`` on success and refreshes the
        entry's mtime so the LRU evictor sees the use.  A failing load
        -- truncated zip, checksum mismatch, unknown kind, transient
        read error -- is retried under the attached
        :class:`~repro.resilience.RetryPolicy` (one bare attempt with
        none); once the budget is spent the file is moved to
        ``quarantine/`` and reported as a miss, so the caller falls
        back to a rebuild instead of crashing or serving bad data.
        """
        key_id = store_key_id(key)
        path = os.path.join(self.cache_dir, key_id + ".npz")
        with self._lock:
            if not os.path.exists(path):
                self.disk_misses += 1
                event = "disk_miss"
            else:
                tree = self._load_with_retry(path, key_id)
                if tree is None:
                    if self.readonly:
                        # leave the file for the owning engine's
                        # quarantine machinery; to this reader it is
                        # just a miss (caller rebuilds)
                        self.disk_misses += 1
                        event = "disk_miss"
                    else:
                        self._quarantine_locked(key_id)
                        self.corrupt_evictions += 1
                        event = "corrupt_eviction"
                else:
                    manifest = self._read_manifest(key_id) or {}
                    if not self.readonly:
                        os.utime(path)
                    self.disk_hits += 1
                    self._notify("disk_hit")
                    return tree, manifest
        self._notify(event)
        return None

    def _load_with_retry(self, path: str, key_id: str):
        """Verified load under the retry budget; ``None`` when spent.

        The backoff naps hold the store lock -- delays are a few
        milliseconds against disk I/O already serialized by the same
        lock, so contention cannot invert: a competing reader would
        block on the I/O either way.
        """
        attempts = self.retry.attempts if self.retry is not None else 1
        for attempt in range(attempts):
            try:
                if self._injector is not None:
                    self._injector.fire("store.load", key_id=key_id)
                return load_structure(path, verify=True)
            except Exception:
                if attempt + 1 >= attempts:
                    return None
                self.load_retries += 1
                self._notify("load_retry")
                time.sleep(self.retry.delay(attempt, self._retry_rng))
        return None

    # -- deletion / eviction ---------------------------------------------

    def delete(self, key) -> bool:
        """Remove one entry (archive + manifest); True if it existed."""
        with self._lock:
            return self._remove(store_key_id(key))

    def delete_fingerprint(self, fingerprint: str) -> int:
        """Remove every entry of one dataset; returns the count.

        Works purely off filenames (they lead with the fingerprint),
        so entries whose manifest was lost are still deleted.
        """
        prefix = f"{fingerprint}-"
        with self._lock:
            doomed = [name[:-4] for name in self._archive_names()
                      if name.startswith(prefix)]
            return sum(self._remove(key_id) for key_id in doomed)

    def clear(self) -> int:
        """Remove every entry and the quarantine; returns entries removed."""
        with self._lock:
            n = sum(self._remove(name[:-4]) for name in self._archive_names())
            qdir = self.quarantine_dir
            if os.path.isdir(qdir):
                for name in os.listdir(qdir):
                    _unlink(os.path.join(qdir, name))
                os.rmdir(qdir)
            return n

    def gc(self, budget_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Evict least-recently-used entries down to the byte budget.

        Returns ``(entries removed, bytes freed)``.  With no explicit
        budget the store's configured one applies; no budget at all
        makes this a no-op.
        """
        budget = self.budget_bytes if budget_bytes is None else budget_bytes
        if budget is None:
            return 0, 0
        if budget < 0:
            raise ValueError("budget_bytes must be >= 0")
        with self._lock:
            if not self.readonly:
                self._sweep_orphan_temps()
            return self._gc_locked(budget)

    # -- introspection ---------------------------------------------------

    def entries(self) -> List[StoreEntry]:
        """Every entry, oldest (least recently used) first.

        Entries with a lost or unreadable manifest still appear --
        fingerprint and structure are recovered from the filename.
        """
        out = []
        with self._lock:
            for name in self._archive_names():
                key_id = name[:-4]
                path = os.path.join(self.cache_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                manifest = self._read_manifest(key_id) or {}
                fp, _, rest = key_id.partition("-")
                structure = rest.rpartition("-")[0]
                out.append(StoreEntry(
                    key_id=key_id, path=path,
                    fingerprint=manifest.get("fingerprint", fp),
                    structure=manifest.get("structure", structure),
                    params=manifest.get("params", {}),
                    size_bytes=st.st_size, mtime=st.st_mtime,
                    checksum=manifest.get("checksum"),
                    build_steps=float(manifest.get("build_steps", 0.0)),
                    build_primitives=int(manifest.get("build_primitives", 0)),
                    num_lines=int(manifest.get("num_lines", 0)),
                ))
        out.sort(key=lambda e: (e.mtime, e.key_id))
        return out

    def total_bytes(self) -> int:
        with self._lock:
            return sum(os.path.getsize(os.path.join(self.cache_dir, name))
                       for name in self._archive_names())

    def quarantined(self) -> List[str]:
        qdir = self.quarantine_dir
        if not os.path.isdir(qdir):
            return []
        return sorted(os.listdir(qdir))

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            names = self._archive_names()
            total = sum(os.path.getsize(os.path.join(self.cache_dir, n))
                        for n in names)
            return {
                "cache_dir": self.cache_dir,
                "entries": len(names),
                "total_bytes": total,
                "budget_bytes": self.budget_bytes,
                "quarantined": len(self.quarantined()),
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "spills": self.spills,
                "corrupt_evictions": self.corrupt_evictions,
                "disk_evictions": self.disk_evictions,
                "load_retries": self.load_retries,
                "orphan_temps_removed": self.orphan_temps_removed,
            }

    # -- internals -------------------------------------------------------

    def _notify(self, event: str) -> None:
        if self._observer is not None:
            self._observer(event)

    def _archive_names(self) -> List[str]:
        return sorted(name for name in os.listdir(self.cache_dir)
                      if name.endswith(".npz")
                      and not name.startswith(".tmp-"))

    def _sweep_orphan_temps(self) -> int:
        """Delete ``.tmp-`` leftovers of crashed atomic writers."""
        removed = 0
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return 0
        for name in names:
            if name.startswith(".tmp-"):
                if _unlink(os.path.join(self.cache_dir, name)):
                    removed += 1
        self.orphan_temps_removed += removed
        return removed

    def _atomic_archive(self, final: str, tree, params: dict) -> str:
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=".tmp-",
                                   suffix=".npz")
        try:
            with os.fdopen(fd, "wb") as fh:
                checksum = save_structure(tree, fh, params=params)
            os.replace(tmp, final)
        except BaseException:
            _unlink(tmp)
            raise
        return checksum

    def _atomic_json(self, final: str, payload: dict) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=".tmp-",
                                   suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
            os.replace(tmp, final)
        except BaseException:
            _unlink(tmp)
            raise

    def _read_manifest(self, key_id: str) -> Optional[dict]:
        try:
            with open(os.path.join(self.cache_dir, key_id + ".json")) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def _remove(self, key_id: str) -> bool:
        existed = _unlink(os.path.join(self.cache_dir, key_id + ".npz"))
        _unlink(os.path.join(self.cache_dir, key_id + ".json"))
        return existed

    def _quarantine_locked(self, key_id: str) -> None:
        os.makedirs(self.quarantine_dir, exist_ok=True)
        src = os.path.join(self.cache_dir, key_id + ".npz")
        dst = os.path.join(self.quarantine_dir, key_id + ".npz")
        try:
            os.replace(src, dst)
        except OSError:
            _unlink(src)
        _unlink(os.path.join(self.cache_dir, key_id + ".json"))

    def _gc_locked(self, budget: int) -> Tuple[int, int]:
        sized = []
        for name in self._archive_names():
            path = os.path.join(self.cache_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            sized.append((st.st_mtime, name[:-4], st.st_size))
        sized.sort()
        total = sum(size for _, _, size in sized)
        removed = freed = 0
        for _, key_id, size in sized:
            if total <= budget:
                break
            if self._remove(key_id):
                total -= size
                freed += size
                removed += 1
                self.disk_evictions += 1
                self._notify("disk_eviction")
        return removed, freed


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False
