"""Fingerprint-keyed index registry with an LRU cache.

The serving layer's indexes are pure functions of ``(dataset,
structure, build parameters)``: the PM1 and bucket PMR decompositions
are shape-deterministic (DESIGN.md Section 5) and the R-tree build is
seeded only by its input order.  That determinism is what makes
caching safe -- a fingerprint of the segment array plus the canonical
parameter tuple fully identifies the built structure, so concurrent
readers can share one immutable index without coordination.

The registry therefore keeps two maps:

* ``datasets``: fingerprint -> the registered segment array (held
  read-only so a misbehaving caller cannot mutate data under a cached
  index), and
* an LRU-ordered cache of built indexes, capped at ``capacity``.

With a :class:`~repro.store.IndexStore` attached the cache grows a
second, persistent tier: an index evicted from memory *spills* to disk
instead of being dropped, a memory miss probes the store before paying
a rebuild (the disk hit restores the original build accounting from
the entry's manifest), and a corrupted store file is quarantined and
rebuilt transparently.

Dynamic updates are **versioned** (MVCC for indexes).  Every dataset
fingerprint belongs to a *chain* anchored at its root (the fingerprint
of version 0); :meth:`IndexRegistry.mutate` commits a delete-then-insert
batch as a new chain entry whose content fingerprint is computed the
usual way, so snapshot isolation falls out of content addressing: a
reader that resolved the chain before the commit keeps querying the old
content fingerprint and cannot observe the new version.  Any
fingerprint in a chain :meth:`resolve`\\ s to the chain's *latest*
version -- clients keep using the handle they first registered and
always read their writes.

Commits are **lazy**: no index is built and no cached tree is touched
at mutation time.  The first read of the new version either *repairs*
the previous version's sharded index (:func:`repair_sharded`, rebuilding
only the curve ranges the mutation touched) when the parent tree is
still in the memory tier, or pays one canonical build.  The last
``versions_retained`` versions stay warm in both tiers; older versions
are collected -- datasets, cached indexes, and store entries -- unless
:meth:`pin`\\ ned by an in-flight read, in which case collection is
deferred to the last :meth:`unpin`.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..machine import Machine, use_machine
from ..resilience.faults import InjectedFault
from ..shm import INDEX_PREFIX, attach_payload
from ..store import store_key_id
from ..structures import (build_bucket_pmr, build_pm1, build_rtree,
                          build_sharded)
from ..structures.io import payload_to_tree
from ..structures.sharded import ShardedIndex, repair_sharded

__all__ = ["dataset_fingerprint", "IndexKey", "BuiltIndex", "VersionInfo",
           "IndexRegistry"]


def dataset_fingerprint(lines: np.ndarray) -> str:
    """Stable content hash of a segment array.

    Canonicalises to a C-contiguous float64 ``(n, 4)`` array so the
    fingerprint depends only on the values, not on layout or dtype.
    """
    arr = np.ascontiguousarray(np.asarray(lines, dtype=np.float64).reshape(-1, 4))
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class IndexKey:
    """Cache key: what was indexed, how, and with which parameters."""

    fingerprint: str
    structure: str
    params: Tuple[Tuple[str, object], ...]

    @classmethod
    def make(cls, fingerprint: str, structure: str, **params) -> "IndexKey":
        return cls(fingerprint, structure, tuple(sorted(params.items())))


@dataclass
class BuiltIndex:
    """A cached immutable index plus its build accounting.

    ``repaired_from``/``repair`` record provenance when the tree came
    from an incremental shard repair of the named parent version rather
    than a canonical build (answers are identical either way -- the
    differential invariant).
    """

    key: IndexKey
    tree: object
    build_steps: float
    build_primitives: int
    num_lines: int
    repaired_from: Optional[str] = None
    repair: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class VersionInfo:
    """One resolved position in a dataset's version chain."""

    root: str          # the chain's handle: version 0's fingerprint
    version: int       # 0-based position in the chain
    fingerprint: str   # content fingerprint of this version
    num_lines: int


def _next_pow2(x: float) -> int:
    n = 1
    while n < x:
        n *= 2
    return n


class IndexRegistry:
    """Thread-safe build-on-demand index cache with LRU eviction.

    Parameters
    ----------
    capacity:
        Maximum number of *built indexes* kept in memory (datasets are
        retained until :meth:`forget`); least-recently-used entries are
        evicted first -- spilled to ``store`` when one is attached,
        dropped otherwise.
    store:
        Optional :class:`repro.store.IndexStore` used as the persistent
        second cache tier.
    injector:
        Optional :class:`repro.resilience.FaultInjector`; consulted at
        the ``registry.get`` site on every lookup so chaos tests can
        simulate failing builds and wedged loaders.
    """

    #: structure name -> builder(lines, domain, **params) -> tree
    BUILDERS: Dict[str, Callable] = {}

    def __init__(self, capacity: int = 8, store=None, injector=None,
                 versions_retained: int = 2):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if versions_retained < 1:
            raise ValueError("versions_retained must be >= 1")
        self.capacity = capacity
        self.store = store
        self.injector = injector
        self.versions_retained = versions_retained
        #: optional :class:`~repro.shm.ShmArena` -- when the engine
        #: attaches one, retiring a fingerprint also unlinks its
        #: published shared-memory blocks so workers cannot map stale
        #: datasets or index payloads
        self.arena = None
        self._lock = threading.RLock()
        self._datasets: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._domains: Dict[str, int] = {}
        self._cache: "OrderedDict[IndexKey, BuiltIndex]" = OrderedDict()
        #: id(array) -> (weakref, fingerprint): skips re-hashing when the
        #: same (now read-only) array object is registered repeatedly
        self._fp_cache: Dict[int, Tuple[weakref.ref, str]] = {}
        # -- version chains (MVCC) ----------------------------------------
        self._roots: Dict[str, str] = {}          # any chain fp -> root fp
        self._chains: Dict[str, List[str]] = {}   # root -> fps, idx = version
        self._pins: Dict[str, int] = {}           # fp -> in-flight readers
        self._doomed: set = set()                 # retired fps awaiting unpin
        #: child fp -> (parent fp, deleted old ids, inserted row count)
        self._repair_hints: Dict[str, Tuple[str, np.ndarray, int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.spills = 0
        self.disk_hits = 0
        self.repairs = 0
        self.repair_full_rebuilds = 0
        self.shm_rehydrations = 0
        self.versions_committed = 0
        self.versions_collected = 0

    # -- datasets --------------------------------------------------------

    def register(self, lines: np.ndarray, domain: Optional[int] = None) -> str:
        """Register a segment array; returns its fingerprint.

        ``domain`` (the power-of-two space side the quadtree builders
        need) defaults to the smallest power of two covering every
        coordinate.  The fingerprint is memoised per array *object*:
        re-registering the same array skips the full re-hash.  That is
        safe only because registration freezes the array -- the cache
        is populated exclusively for arrays this registry made
        read-only, so the cached hash can never go stale under a
        mutation.
        """
        with self._lock:
            cached = self._fp_cache.get(id(lines))
        if cached is not None and cached[0]() is lines:
            arr, fp = lines, cached[1]
        else:
            arr = np.asarray(lines)
            if not (arr.dtype == np.float64 and arr.ndim == 2
                    and arr.shape[1:] == (4,) and arr.flags.c_contiguous):
                arr = np.ascontiguousarray(
                    np.asarray(lines, dtype=np.float64).reshape(-1, 4))
            arr.setflags(write=False)
            fp = dataset_fingerprint(arr)
            if arr is lines:
                # canonical input, frozen above: identity-cacheable.
                # the weakref callback evicts the slot before the id
                # can be reused by a new object.
                key = id(arr)
                cache = self._fp_cache
                ref = weakref.ref(arr,
                                  lambda _, k=key: cache.pop(k, None))
                with self._lock:
                    self._fp_cache[key] = (ref, fp)
        if domain is None:
            top = float(arr.max()) if arr.size else 1.0
            domain = _next_pow2(max(top, 1.0))
        with self._lock:
            self._datasets[fp] = arr
            self._domains[fp] = int(domain)
            if fp not in self._roots:
                # a fresh dataset anchors its own version chain
                self._roots[fp] = fp
                self._chains[fp] = [fp]
        return fp

    def dataset(self, fingerprint: str) -> np.ndarray:
        with self._lock:
            try:
                return self._datasets[fingerprint]
            except KeyError:
                raise KeyError(f"unknown dataset fingerprint {fingerprint!r}")

    def domain(self, fingerprint: str) -> int:
        with self._lock:
            return self._domains[fingerprint]

    def dataset_snapshot(self, fingerprint: str):
        """``(lines, domain)`` for shipping to a process-pool worker.

        The array is the registered read-only canonical form, so it
        pickles as-is and the worker's rebuild is bit-identical to a
        parent-side build of the same key.
        """
        with self._lock:
            try:
                return self._datasets[fingerprint], self._domains[fingerprint]
            except KeyError:
                raise KeyError(f"unknown dataset fingerprint {fingerprint!r}")

    def datasets_info(self):
        """Registration order, one row per dataset -- what a network
        client needs to address probes (the ``datasets`` request kind)."""
        with self._lock:
            rows = []
            for fp, arr in self._datasets.items():
                root = self._roots.get(fp, fp)
                chain = self._chains.get(root, [fp])
                version = chain.index(fp) if fp in chain else -1
                rows.append({"fingerprint": fp,
                             "num_lines": int(arr.shape[0]),
                             "domain": int(self._domains[fp]),
                             "root": root, "version": version,
                             "latest": chain[-1] == fp})
            return rows

    def forget(self, fingerprint: str) -> None:
        """Drop a dataset, every index built from it, and its chain slot."""
        with self._lock:
            self._datasets.pop(fingerprint, None)
            self._domains.pop(fingerprint, None)
            self._repair_hints.pop(fingerprint, None)
            root = self._roots.pop(fingerprint, None)
            chain = self._chains.get(root) if root is not None else None
            if chain is not None:
                if fingerprint in chain:
                    chain.remove(fingerprint)
                if not chain:
                    self._chains.pop(root, None)
        self.invalidate(fingerprint)
        if self.arena is not None:
            self.arena.release_fingerprint(fingerprint)

    # -- version chains (MVCC) -------------------------------------------

    def resolve(self, fingerprint: str) -> VersionInfo:
        """The *latest* version of the chain ``fingerprint`` belongs to.

        Any fingerprint ever part of the chain -- including retired
        versions whose data was collected -- resolves, so a client can
        keep addressing probes by the handle it first registered
        (read-your-writes across mutations).
        """
        with self._lock:
            root = self._roots.get(fingerprint)
            if root is None:
                raise KeyError(
                    f"unknown dataset fingerprint {fingerprint!r}")
            chain = self._chains[root]
            cur = chain[-1]
            return VersionInfo(root, len(chain) - 1, cur,
                               int(self._datasets[cur].shape[0]))

    def version_of(self, fingerprint: str) -> int:
        """Chain position of this exact content fingerprint (-1: unknown)."""
        with self._lock:
            root = self._roots.get(fingerprint)
            if root is None:
                return -1
            try:
                return self._chains[root].index(fingerprint)
            except ValueError:
                return -1   # staged but never activated

    def pin(self, fingerprint: str) -> None:
        """Hold a version's data live for an in-flight read."""
        with self._lock:
            self._pins[fingerprint] = self._pins.get(fingerprint, 0) + 1

    def unpin(self, fingerprint: str) -> None:
        """Release one pin; collects the version if retirement waited."""
        reap = False
        with self._lock:
            n = self._pins.get(fingerprint, 0) - 1
            if n > 0:
                self._pins[fingerprint] = n
            else:
                self._pins.pop(fingerprint, None)
                if fingerprint in self._doomed:
                    self._doomed.discard(fingerprint)
                    reap = True
        if reap:
            self._collect(fingerprint)

    def stage_version(self, fingerprint: str, new_lines: np.ndarray,
                      delete_ids=None, n_inserted: int = 0) -> VersionInfo:
        """Register a mutated dataset as the chain's *candidate* next
        version without flipping reads to it.

        The new content is registered (and its repair hint recorded)
        but the chain is not extended: :meth:`resolve` keeps returning
        the old version until :meth:`activate_version`, so the engine
        can warm the new index first and a failed build leaves the
        readable snapshot untouched (:meth:`abandon_version`).  Returns
        the prospective :class:`VersionInfo`; a no-op mutation (content
        unchanged) returns the current version instead.
        """
        cur = self.resolve(fingerprint)
        new_lines = np.ascontiguousarray(
            np.asarray(new_lines, dtype=np.float64).reshape(-1, 4))
        # the domain can only grow: an insert outside the old space
        # re-covers it with the next power of two (triggering one full
        # rebuild); staying put keeps decompositions comparable
        old_dom = self.domain(cur.fingerprint)
        top = float(new_lines.max()) if new_lines.size else 1.0
        new_fp = self.register(new_lines,
                               domain=max(old_dom, _next_pow2(max(top, 1.0))))
        with self._lock:
            if new_fp == cur.fingerprint:
                return cur
            chain = self._chains[cur.root]
            if self._roots.get(new_fp) == new_fp \
                    and self._chains.get(new_fp) == [new_fp] \
                    and new_fp not in chain:
                # fresh content: re-anchor it from its own singleton
                # chain onto this dataset's chain
                self._chains.pop(new_fp)
                self._roots[new_fp] = cur.root
            del_ids = (np.unique(np.asarray(delete_ids,
                                            dtype=np.int64).reshape(-1))
                       if delete_ids is not None
                       else np.zeros(0, dtype=np.int64))
            self._repair_hints[new_fp] = (cur.fingerprint, del_ids,
                                          int(n_inserted))
            return VersionInfo(cur.root, cur.version + 1, new_fp,
                               int(new_lines.shape[0]))

    def activate_version(self, fingerprint: str) -> VersionInfo:
        """Flip the chain's latest version to a staged fingerprint.

        New :meth:`resolve` calls see the new version from here on.
        Versions older than the retention window are collected from
        both tiers -- deferred per-version while :meth:`pin`\\ s hold
        them for in-flight reads.
        """
        with self._lock:
            root = self._roots.get(fingerprint)
            if root is None:
                raise KeyError(f"unknown staged fingerprint {fingerprint!r}")
            chain = self._chains[root]
            if fingerprint not in chain:
                chain.append(fingerprint)
                self.versions_committed += 1
            retired = [fp for fp in chain[:-self.versions_retained]
                       if fp in self._datasets]
            pinned = [fp for fp in retired if self._pins.get(fp, 0) > 0]
            self._doomed.update(pinned)
        for fp in retired:
            if fp not in pinned:
                self._collect(fp)
        return self.resolve(fingerprint)

    def adopt_root(self, alias: str, fingerprint: str) -> None:
        """Point an old chain handle at another (recovered) chain.

        Crash recovery replays a journal onto the chain anchored at the
        checkpoint's fingerprint, but clients keep addressing probes by
        the handle they learned before the crash -- the journal
        directory's root.  Aliasing re-routes :meth:`resolve` for the
        old handle onto the recovered chain; an ``alias`` that already
        anchors real history (a non-singleton chain) is refused, since
        recovery must run before new mutations.
        """
        with self._lock:
            root = self._roots.get(fingerprint)
            if root is None:
                raise KeyError(
                    f"unknown dataset fingerprint {fingerprint!r}")
            if self._roots.get(alias) == root:
                return
            chain = self._chains.get(alias)
            if chain is not None and chain != [alias]:
                raise ValueError(
                    f"cannot alias {alias!r}: it anchors a chain with "
                    f"{len(chain)} versions")
            self._chains.pop(alias, None)
            self._roots[alias] = root

    def abandon_version(self, fingerprint: str) -> None:
        """Discard a staged version whose index build failed.

        Never touches an *activated* version: the readable snapshot and
        the chain stay exactly as they were before the staging.
        """
        with self._lock:
            root = self._roots.get(fingerprint)
            if root is None or fingerprint in self._chains.get(root, ()):
                return
            self._roots.pop(fingerprint, None)
            self._repair_hints.pop(fingerprint, None)
            self._datasets.pop(fingerprint, None)
            self._domains.pop(fingerprint, None)

    def _collect(self, fingerprint: str) -> None:
        """Reclaim a retired version: dataset, cached indexes, store
        entries, and any repair hint that names it as a parent."""
        with self._lock:
            self._datasets.pop(fingerprint, None)
            self._domains.pop(fingerprint, None)
            self._repair_hints.pop(fingerprint, None)
            for child in [c for c, h in self._repair_hints.items()
                          if h[0] == fingerprint]:
                del self._repair_hints[child]
            for key in [k for k in self._cache
                        if k.fingerprint == fingerprint]:
                del self._cache[key]
            self.versions_collected += 1
        if self.store is not None:
            self.store.delete_fingerprint(fingerprint)
        if self.arena is not None:
            self.arena.release_fingerprint(fingerprint)

    def mutate(self, fingerprint: str, insert=None,
               delete_ids=None) -> VersionInfo:
        """Commit one delete-then-insert batch as the new active version.

        Deletes name row ids of the *current* version and are applied
        first; inserted rows are appended after the survivors.  Lazy:
        no index is built here -- the first read pays a repair or one
        canonical build -- and the previous version stays readable
        until the retention window pushes it out.
        """
        cur = self.resolve(fingerprint)
        old = self.dataset(cur.fingerprint)
        del_ids = (np.unique(np.asarray(delete_ids,
                                        dtype=np.int64).reshape(-1))
                   if delete_ids is not None
                   else np.zeros(0, dtype=np.int64))
        if del_ids.size and (del_ids[0] < 0
                             or del_ids[-1] >= old.shape[0]):
            raise IndexError(
                f"delete ids out of range for {old.shape[0]} lines")
        ins = (np.asarray(insert, dtype=np.float64).reshape(-1, 4)
               if insert is not None else np.zeros((0, 4)))
        if not del_ids.size and not ins.shape[0]:
            return cur
        keep = np.ones(old.shape[0], dtype=bool)
        keep[del_ids] = False
        new_lines = np.vstack([old[keep], ins])
        staged = self.stage_version(fingerprint, new_lines,
                                    delete_ids=del_ids,
                                    n_inserted=ins.shape[0])
        if staged.fingerprint == cur.fingerprint:
            return cur
        return self.activate_version(staged.fingerprint)

    # -- indexes ---------------------------------------------------------

    def get(self, fingerprint: str, structure: str, **params) -> BuiltIndex:
        """Return the cached index, loading or building it on a miss.

        Miss path with a store attached: probe the disk tier first --
        a verified load is counted as a ``disk_hit`` and re-enters the
        memory cache with its original build accounting; a missing or
        quarantined file falls through to a fresh build.
        """
        if structure not in self.BUILDERS:
            raise ValueError(f"unknown structure {structure!r}; "
                             f"available: {sorted(self.BUILDERS)}")
        if self.injector is not None:
            # fires even on a cache hit: an injected error here models
            # any failing index lookup, not just a failing build
            self.injector.fire("registry.get", fingerprint=fingerprint,
                               structure=structure)
        key = IndexKey.make(fingerprint, structure, **params)
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            lines = self.dataset(fingerprint)
            dom = self._domains[fingerprint]
        # load / build outside the lock: builds are deterministic, so a
        # racing duplicate wastes work but never yields a wrong entry.
        # The arena tier comes first: for a *repaired* index published
        # by a mutation commit it holds the exact pages the workers
        # map, so an evicted parent entry reloads the same cuts the
        # fan-out plan must agree with -- a rebuild here could not
        # guarantee that
        if self.arena is not None:
            entry = self._rehydrate_from_arena(key, lines)
            if entry is not None:
                self._insert(entry)
                return entry
        if self.store is not None:
            probe = self.store.get(key)
            if probe is not None:
                tree, manifest = probe
                entry = BuiltIndex(
                    key, tree,
                    float(manifest.get("build_steps", 0.0)),
                    int(manifest.get("build_primitives", 0)),
                    int(manifest.get("num_lines", lines.shape[0])))
                with self._lock:
                    self.disk_hits += 1
                self._insert(entry)
                return entry
        entry = self._repair_from_parent(key, lines, dom, params)
        if entry is None:
            machine = Machine()
            with use_machine(machine):
                tree = self.BUILDERS[structure](lines, dom, **params)
            entry = BuiltIndex(key, tree, machine.steps,
                               machine.total_primitives,
                               int(lines.shape[0]))
        self._insert(entry)
        return entry

    def _repair_from_parent(self, key: IndexKey, lines: np.ndarray,
                            dom: int, params: Dict) -> Optional[BuiltIndex]:
        """Incremental build from the parent version's cached shards.

        Applies only when this fingerprint is a committed mutation of a
        parent whose *same-key* sharded index is still in the memory
        tier -- then only the curve ranges the mutation touched are
        rebuilt.  Any miss in that chain of conditions (no hint, parent
        evicted, unsharded key) returns ``None`` and the caller pays the
        canonical build.
        """
        if int(params.get("shards", 1)) <= 1:
            return None
        with self._lock:
            hint = self._repair_hints.get(key.fingerprint)
            if hint is None:
                return None
            parent_fp, del_ids, n_inserted = hint
            parent = self._cache.get(
                IndexKey.make(parent_fp, key.structure, **params))
        if parent is None or not isinstance(parent.tree, ShardedIndex):
            return None
        machine = Machine()
        try:
            with use_machine(machine):
                tree, rstats = repair_sharded(
                    parent.tree, lines, del_ids, n_inserted,
                    shards=int(params["shards"]),
                    capacity=int(params.get("capacity", 8)),
                    min_fill=int(params.get("min_fill", 2)),
                    max_depth=params.get("max_depth"),
                    domain=float(dom))
        except Exception:
            return None   # any surprise falls back to the canonical build
        with self._lock:
            self.repairs += 1
            if rstats["full_rebuild"]:
                self.repair_full_rebuilds += 1
        return BuiltIndex(key, tree, machine.steps,
                          machine.total_primitives, int(lines.shape[0]),
                          repaired_from=parent_fp, repair=rstats)

    def _rehydrate_from_arena(self, key: IndexKey,
                              lines: np.ndarray) -> Optional[BuiltIndex]:
        """Reload an evicted index from its own published arena payload.

        The rebuilt tree's arrays alias the mapped shared pages, so the
        attachment is pinned on the tree object to keep the mapping
        alive for the tree's lifetime.  Any failure (block gone, bad
        checksum) returns ``None`` and the caller falls through to the
        store / build tiers.
        """
        handle = self.arena.handle(INDEX_PREFIX + store_key_id(key))
        if handle is None:
            return None
        try:
            att = attach_payload(handle)
            tree = payload_to_tree(att.value)
        except Exception:  # noqa: BLE001 - degrade to store/build
            return None
        try:
            tree._shm_attachment = att
        except AttributeError:
            return None   # slotted tree type: cannot pin, do not risk it
        with self._lock:
            self.shm_rehydrations += 1
        return BuiltIndex(key, tree, 0.0, 0, int(lines.shape[0]))

    def peek(self, key: IndexKey) -> Optional[BuiltIndex]:
        """Memory-tier lookup without miss accounting, LRU touch, or
        build -- what the adaptive controller's balance watchdog reads
        (an index nobody keeps warm is not worth rebalancing)."""
        with self._lock:
            return self._cache.get(key)

    def discard(self, key: IndexKey) -> bool:
        """Drop one memory-tier entry (no store/arena side effects).

        The commit path uses this to retract a repaired tree it could
        not make worker-visible before rebuilding canonically.
        """
        with self._lock:
            return self._cache.pop(key, None) is not None

    def drop_repair_hint(self, fingerprint: str) -> None:
        """Forget a staged version's repair lineage so the next
        :meth:`get` pays the canonical build instead of a repair."""
        with self._lock:
            self._repair_hints.pop(fingerprint, None)

    def _insert(self, entry: BuiltIndex) -> None:
        """Admit one entry to the memory tier, spilling any evictees.

        The spill happens under the registry lock so an eviction can
        never interleave with :meth:`invalidate` deleting the same
        fingerprint's store entries and resurrect a doomed index.
        """
        with self._lock:
            self._cache[entry.key] = entry
            self._cache.move_to_end(entry.key)
            while len(self._cache) > self.capacity:
                _, victim = self._cache.popitem(last=False)
                self.evictions += 1
                if self.store is not None:
                    try:
                        self._put(victim)
                        self.spills += 1
                    except (OSError, InjectedFault):
                        pass   # disk full / unwritable: plain eviction

    def _put(self, entry: BuiltIndex) -> str:
        """Write one built index, with its build accounting, to the
        store; returns the archive path (store errors propagate)."""
        return self.store.put(entry.key, entry.tree,
                              build_steps=entry.build_steps,
                              build_primitives=entry.build_primitives,
                              num_lines=entry.num_lines)

    def persist(self, fingerprint: str, structure: str, **params) -> str:
        """Build (or fetch) an index and write it to the store now.

        The warm-up hook behind ``repro store prefetch``: unlike the
        spill-on-evict path this writes unconditionally, so a cache
        directory can be seeded ahead of serving.  Returns the archive
        path.
        """
        if self.store is None:
            raise RuntimeError("no IndexStore attached to this registry")
        return self._put(self.get(fingerprint, structure, **params))

    def spill_all(self) -> int:
        """Spill every in-memory index not already on disk; returns count.

        Called on engine shutdown so the next process warm-starts from
        the store instead of rebuilding.
        """
        if self.store is None:
            return 0
        with self._lock:
            entries = list(self._cache.values())
        n = 0
        for entry in entries:
            if self.store.contains(entry.key):
                continue   # deterministic content: the bytes match
            try:
                self._put(entry)
            except (OSError, InjectedFault):
                continue
            with self._lock:
                self.spills += 1
            n += 1
        return n

    def invalidate(self, fingerprint: Optional[str] = None) -> int:
        """Drop cached indexes (all of them, or one dataset's); returns count.

        This is the hook :mod:`repro.structures.dynamic` updates call
        through -- after an insert/delete the old fingerprint's trees
        must never be served again.  Both tiers are covered: the store's
        entries for the fingerprint are deleted too, so a disk probe can
        never resurrect a stale tree.
        """
        with self._lock:
            if fingerprint is None:
                n = len(self._cache)
                self._cache.clear()
            else:
                doomed = [k for k in self._cache if k.fingerprint == fingerprint]
                for k in doomed:
                    del self._cache[k]
                n = len(doomed)
            self.invalidations += n
            if self.store is not None:
                if fingerprint is None:
                    self.store.clear()
                else:
                    self.store.delete_fingerprint(fingerprint)
            if self.arena is not None:
                # stale index payloads must never be mapped again; the
                # dataset block (if any) is handled by _collect/forget
                self.arena.release_indexes(fingerprint)
            return n

    def insert_lines(self, fingerprint: str, new_lines: np.ndarray) -> str:
        """Append segments as a new chain version; returns its fingerprint.

        Lazy (:meth:`mutate`): nothing is built or invalidated here,
        and the previous version keeps serving until retention GC.
        """
        return self.mutate(fingerprint, insert=new_lines).fingerprint

    def delete_lines(self, fingerprint: str, ids) -> str:
        """Remove segments by current-version id; returns the new
        chain version's fingerprint (lazy, like :meth:`insert_lines`)."""
        return self.mutate(fingerprint, delete_ids=ids).fingerprint

    # -- stats -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            total = self.hits + self.misses
            out = {
                "datasets": float(len(self._datasets)),
                "cached_indexes": float(len(self._cache)),
                "capacity": float(self.capacity),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "hit_rate": (self.hits / total) if total else 0.0,
                "evictions": float(self.evictions),
                "invalidations": float(self.invalidations),
                "spills": float(self.spills),
                "disk_hits": float(self.disk_hits),
                "repairs": float(self.repairs),
                "repair_full_rebuilds": float(self.repair_full_rebuilds),
                "shm_rehydrations": float(self.shm_rehydrations),
                "versions_committed": float(self.versions_committed),
                "versions_collected": float(self.versions_collected),
                "versions_retained": float(self.versions_retained),
                "pinned_versions": float(len(self._pins)),
            }
        if self.store is not None:
            out["store"] = self.store.snapshot()
        return out

    def cached_keys(self):
        """LRU-ordered cache keys, oldest first (for tests/introspection)."""
        with self._lock:
            return list(self._cache)


# ``gen`` is the online re-shard generation: it never changes what is
# built (the canonical cut of (data, shards, ordering) is unique), only
# the cache/store/arena *key*, so a rebalance mints fresh entries in
# every tier instead of colliding with the old decomposition


def _build_pmr(lines, domain, capacity: int = 8, max_depth=None,
               shards: int = 1, ordering: str = "morton", gen: int = 0):
    if int(shards) > 1:
        return build_sharded(lines, domain, structure="pmr", shards=shards,
                             ordering=ordering, capacity=capacity,
                             max_depth=max_depth)
    tree, _ = build_bucket_pmr(lines, domain, capacity, max_depth=max_depth)
    return tree


def _build_pm1(lines, domain, max_depth=None,
               shards: int = 1, ordering: str = "morton", gen: int = 0):
    if int(shards) > 1:
        return build_sharded(lines, domain, structure="pm1", shards=shards,
                             ordering=ordering, max_depth=max_depth)
    tree, _ = build_pm1(lines, domain, max_depth=max_depth)
    return tree


def _build_rtree(lines, domain, min_fill: int = 2, capacity: int = 8,
                 shards: int = 1, ordering: str = "morton", gen: int = 0):
    # domain is irrelevant to the R-tree itself but keys the shard cut
    if int(shards) > 1:
        return build_sharded(lines, domain, structure="rtree", shards=shards,
                             ordering=ordering, capacity=capacity,
                             min_fill=min_fill)
    tree, _ = build_rtree(lines, min_fill, capacity)
    return tree


IndexRegistry.BUILDERS = {
    "pmr": _build_pmr,
    "pm1": _build_pm1,
    "rtree": _build_rtree,
}
