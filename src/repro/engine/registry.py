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

Dynamic updates are **versioned** (MVCC for indexes): a built index is
addressed by *content* (its dataset's fingerprint), a version by
*position*.  Every dataset anchors a *chain* at its root (the
fingerprint of version 0) and a commit appends one position to it
whether or not that content was seen before -- insert X then delete X
is version 2, holding version 0's content and sharing its cached index.
:meth:`resolve` maps any handle to the chain's latest position, so
clients keep the handle they first registered and read their writes; a
reader that resolved before a commit keeps querying the content
fingerprint it got and cannot observe the new version (snapshot
isolation).

The write path is :meth:`stage_version` (the batch becomes content:
delete-then-insert over the head, the domain only grows, the lineage is
remembered for shard repair) followed by :meth:`activate_version` (the
flip); :meth:`mutate`, the engine's commit and journal replay are all
that pair.  Commits are **lazy**: no index is built at mutation time.
The first read of new content either *repairs* the parent content's
index when that tree is still in the memory tier -- through
:func:`~repro.structures.sharded.repair_index`, the one commit path: a
sharded index re-derives only the curve ranges the batch touched, a
plain PMR / PM1 tree warm-starts -- or pays one canonical build, the
only full rebuild a commit ever gets.  Everything held about one
content -- rows, domain, pins, lineage -- is one record; it is
collected from both tiers once no position inside the last
``versions_retained`` of *any* chain, no staged commit and no
:meth:`pin` names it.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..machine import Machine, use_machine
from ..resilience.faults import InjectedFault
from ..structures.batch import FAMILY
from ..structures.sharded import build_index, repair_index

__all__ = ["dataset_fingerprint", "IndexKey", "index_params", "BuiltIndex",
           "VersionInfo", "IndexRegistry"]


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

    def __post_init__(self):
        # hashed on every coalescer group lookup and registry get: once
        # here, not per call; not a field, so outside eq and repr
        object.__setattr__(self, "_hash",
                           hash((self.fingerprint, self.structure,
                                 self.params)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def make(cls, fingerprint: str, structure: str, **params) -> "IndexKey":
        return cls(fingerprint, structure, tuple(sorted(params.items())))


def index_params(structure: str, capacity: int, min_fill: int, shards: int,
                 ordering: str) -> Dict[str, object]:
    """The build parameters one served index is keyed by.

    The engine's probes and ``repro store prefetch`` both call this, so
    a seeded cache directory holds exactly the keys serving looks up.
    """
    params: Dict[str, object] = {}
    if structure in ("pmr", "rtree"):
        params["capacity"] = capacity
    if structure == "rtree":
        params["min_fill"] = min_fill
    if shards > 1:
        params.update(shards=shards, ordering=ordering)
    return params


@dataclass
class BuiltIndex:
    """A cached immutable index plus its build accounting.

    ``repaired_from``/``repair`` record provenance when the tree came
    from an incremental repair of the named parent version; both stay
    ``None`` for a canonical build (answers are identical either way --
    the differential invariant).
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


@dataclass
class _Content:
    """Everything the registry holds about one content fingerprint."""

    lines: np.ndarray      # read-only canonical (n, 4) float64 rows
    domain: int            # power-of-two space side it is indexed under
    pins: int = 0          # in-flight reads holding it live
    doomed: bool = False   # named by no window: goes with the last unpin
    #: how a cached parent's shards repair into this content:
    #: (parent fp, deleted parent row ids, inserted row count)
    lineage: Optional[Tuple[str, np.ndarray, int]] = None


def _covering_domain(lines: np.ndarray) -> int:
    """Smallest power-of-two space side covering every coordinate."""
    side, top = 1, float(lines.max()) if lines.size else 1.0
    while side < top:
        side *= 2
    return side


def _last_position(chain, fingerprint: str) -> int:
    """Latest chain position holding ``fingerprint`` (-1: none)."""
    for pos in range(len(chain) - 1, -1, -1):
        if chain[pos] == fingerprint:
            return pos
    return -1


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

    #: structure name -> builder(lines, domain, **params) -> tree: the
    #: shared :func:`build_index`, one entry per structure so a test can
    #: wrap one structure's builds
    BUILDERS: Dict[str, Callable] = {
        name: partial(build_index, structure=name) for name in FAMILY}

    def __init__(self, capacity: int = 8, store=None, injector=None,
                 versions_retained: int = 2,
                 on_collect: Optional[Callable[[str], None]] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if versions_retained < 1:
            raise ValueError("versions_retained must be >= 1")
        self.capacity = capacity
        self.store = store
        self.injector = injector
        self.versions_retained = versions_retained
        #: observer called with each fingerprint whose content the
        #: registry just dropped, so per-content state kept elsewhere
        #: (the engine's breakers, shard timings) can go with it
        self.on_collect = on_collect
        self._lock = threading.RLock()
        self._datasets: "OrderedDict[str, _Content]" = OrderedDict()
        self._cache: "OrderedDict[IndexKey, BuiltIndex]" = OrderedDict()
        #: id(array) -> (weakref, fingerprint): skips re-hashing when the
        #: same (now read-only) array object is registered repeatedly
        self._fp_cache: Dict[int, Tuple[weakref.ref, str]] = {}
        # -- version chains (MVCC) ----------------------------------------
        self._roots: Dict[str, str] = {}          # handle fp -> root fp
        self._chains: Dict[str, List[str]] = {}   # root -> fps, idx = version
        self._staged: Dict[str, str] = {}         # root -> candidate next fp
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.spills = 0
        self.disk_hits = 0
        self.repairs = 0
        self.repair_full_rebuilds = 0
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
            domain = _covering_domain(arr)
        with self._lock:
            rec = self._datasets.setdefault(fp, _Content(arr, int(domain)))
            rec.domain = int(domain)   # a re-registration may restate it
            if fp not in self._roots:
                # a fresh dataset anchors its own version chain
                self._roots[fp] = fp
                self._chains[fp] = [fp]
        return fp

    def _content(self, fingerprint: str) -> _Content:
        try:
            return self._datasets[fingerprint]
        except KeyError:
            raise KeyError(f"unknown dataset fingerprint {fingerprint!r}")

    def dataset(self, fingerprint: str) -> np.ndarray:
        with self._lock:
            return self._content(fingerprint).lines

    def domain(self, fingerprint: str) -> int:
        with self._lock:
            return self._content(fingerprint).domain

    def datasets_info(self):
        """Registration order, one row per dataset -- what a network
        client needs to address probes (the ``datasets`` request kind).
        ``version`` is the latest chain position holding that content
        (-1: staged, not yet committed)."""
        with self._lock:
            rows = []
            for fp, rec in self._datasets.items():
                root = self._roots.get(fp, fp)
                chain = self._chains.get(root, ())
                rows.append({"fingerprint": fp,
                             "num_lines": int(rec.lines.shape[0]),
                             "domain": rec.domain, "root": root,
                             "version": _last_position(chain, fp),
                             "latest": bool(chain) and chain[-1] == fp})
            return rows

    def forget(self, fingerprint: str) -> None:
        """Drop a dataset, every index built from it, and its chain slots."""
        with self._lock:
            root = self._roots.pop(fingerprint, None)
            chain = self._chains.get(root)
            if chain is not None:
                chain[:] = [fp for fp in chain if fp != fingerprint]
                if not chain:
                    del self._chains[root]
            self.invalidate(fingerprint)   # counts the dropped indexes
            self._collect(fingerprint, counted=False)

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
                               int(self._datasets[cur].lines.shape[0]))

    def history(self, fingerprint: str) -> Tuple[str, ...]:
        """Content fingerprint at every position of the chain
        ``fingerprint`` belongs to (index = version)."""
        with self._lock:
            return tuple(self._chains[self.resolve(fingerprint).root])

    def version_of(self, fingerprint: str) -> int:
        """Latest position holding this content in the chain the
        fingerprint is a handle of (-1: unknown, or staged only)."""
        with self._lock:
            chain = self._chains.get(self._roots.get(fingerprint), ())
            return _last_position(chain, fingerprint)

    def pin(self, fingerprint: str) -> None:
        """Hold a version's data live for an in-flight read."""
        with self._lock:
            self._content(fingerprint).pins += 1

    def pin_head(self, fingerprint: str) -> Tuple[str, int, int, int]:
        """:meth:`resolve` then :meth:`pin` the head, under one lock.

        Returns the head's ``(content fingerprint, version, domain, line
        count)``: everything a read needs from the registry at submit
        time.
        """
        with self._lock:
            root = self._roots.get(fingerprint)
            if root is None:
                raise KeyError(
                    f"unknown dataset fingerprint {fingerprint!r}")
            chain = self._chains[root]
            cur = chain[-1]
            rec = self._datasets[cur]
            rec.pins += 1
            return cur, len(chain) - 1, rec.domain, rec.lines.shape[0]

    def unpin(self, fingerprint: str, n: int = 1) -> None:
        """Release ``n`` pins; collects the content if retirement waited."""
        with self._lock:
            rec = self._datasets.get(fingerprint)
            if rec is None:
                return   # forgotten while the read was in flight
            rec.pins = max(rec.pins - n, 0)
            if rec.doomed and not rec.pins:
                self._retire((fingerprint,))

    def stage_version(self, fingerprint: str, insert=None,
                      delete_ids=None) -> Tuple[VersionInfo, VersionInfo]:
        """Turn one delete-then-insert batch over the chain's head into
        its *candidate* next version, without flipping reads to it.

        The one place a batch becomes content: ``delete_ids`` name rows
        of the current head (``IndexError`` when out of range) and go
        first, ``insert`` rows are appended after the survivors, the
        domain only grows, and the new content remembers its lineage so
        the first read can repair the parent's shards.  :meth:`resolve`
        keeps returning the old version until :meth:`activate_version`,
        so the engine can journal and warm the new index first and a
        failure leaves the readable snapshot untouched
        (:meth:`abandon_version`).  Returns ``(current, staged)``; a
        batch that leaves the content unchanged stages nothing and
        returns the current version twice.
        """
        cur = self.resolve(fingerprint)
        with self._lock:
            rec = self._content(cur.fingerprint)
            old, old_dom = rec.lines, rec.domain
        ids = np.unique(np.asarray(
            () if delete_ids is None else delete_ids,
            dtype=np.int64).reshape(-1))
        if ids.size and (ids[0] < 0 or ids[-1] >= old.shape[0]):
            raise IndexError(
                f"delete ids out of range for {old.shape[0]} lines "
                f"(version {cur.version})")
        ins = np.asarray(() if insert is None else insert,
                         dtype=np.float64).reshape(-1, 4)
        keep = np.ones(old.shape[0], dtype=bool)
        keep[ids] = False
        new = np.vstack([old[keep], ins])
        new.setflags(write=False)
        fp = dataset_fingerprint(new)
        if fp == cur.fingerprint:
            return cur, cur
        with self._lock:
            rec = self._datasets.get(fp)
            if rec is None:
                # an insert outside the old space re-covers it with the
                # next power of two (one full rebuild); staying put
                # keeps decompositions comparable.  Content already
                # held (a revisit) keeps the domain its indexes have.
                rec = self._datasets[fp] = _Content(
                    new, max(old_dom, _covering_domain(new)))
            rec.lineage = (cur.fingerprint, ids, int(ins.shape[0]))
            replaced = self._staged.get(cur.root)
            self._staged[cur.root] = fp
            if replaced is not None:
                self._retire((replaced,), counted=False)
            return cur, VersionInfo(cur.root, cur.version + 1, fp,
                                    int(new.shape[0]))

    def _unstage(self, fingerprint: str) -> Optional[str]:
        """Clear the staged slot holding ``fingerprint``; its root."""
        for root, fp in self._staged.items():
            if fp == fingerprint:
                del self._staged[root]
                return root
        return None

    def activate_version(self, fingerprint: str) -> VersionInfo:
        """Flip a chain to its staged version: one more position.

        The append is unconditional -- content the chain (or another
        chain) held before is a new version like any other.  New
        :meth:`resolve` calls see it from here on, and the position the
        append pushed out of the retention window is retired.
        """
        with self._lock:
            root = self._unstage(fingerprint)
            if root is None:
                raise KeyError(f"unknown staged fingerprint {fingerprint!r}")
            chain = self._chains[root]
            chain.append(fingerprint)
            # a handle stays with the chain that claimed it first
            self._roots.setdefault(fingerprint, root)
            self.versions_committed += 1
            keep = self.versions_retained
            self._retire(chain[-keep - 1:-keep])
            return VersionInfo(
                root, len(chain) - 1, fingerprint,
                int(self._datasets[fingerprint].lines.shape[0]))

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
        """Discard a staged version whose journal append or index build
        failed.  Never touches an *activated* version: the chain is as
        it was, and content a retention window names survives."""
        with self._lock:
            if self._unstage(fingerprint) is not None:
                self._retire((fingerprint,), counted=False)

    def _retire(self, fingerprints, counted: bool = True) -> None:
        """Collect each content nothing names any more.

        A content is named by a position inside the retention window of
        *any* chain, by a staged commit, or by a pin -- the last only
        defers: the content is marked doomed and goes with its final
        :meth:`unpin`.
        """
        with self._lock:
            named = set(self._staged.values())
            for chain in self._chains.values():
                named.update(chain[-self.versions_retained:])
            for fp in fingerprints:
                rec = self._datasets.get(fp)
                if rec is not None:
                    rec.doomed = fp not in named and rec.pins > 0
                    if fp not in named and not rec.pins:
                        self._collect(fp, counted)

    def _collect(self, fingerprint: str, counted: bool) -> None:
        """Reclaim one content: record, cached indexes, store entries.
        The caller holds the lock throughout, so a commit staging the
        same content again cannot interleave with this."""
        self._datasets.pop(fingerprint, None)
        for key in [k for k in self._cache if k.fingerprint == fingerprint]:
            del self._cache[key]
        self.versions_collected += counted
        if self.store is not None:
            self.store.delete_fingerprint(fingerprint)
        if self.on_collect is not None:
            self.on_collect(fingerprint)

    def mutate(self, fingerprint: str, insert=None,
               delete_ids=None) -> VersionInfo:
        """Commit one delete-then-insert batch as the new active version.

        :meth:`stage_version` then :meth:`activate_version`.  Lazy: no
        index is built here -- the first read pays a repair or one
        canonical build -- and the previous version stays readable
        until the retention window pushes it out.
        """
        cur, staged = self.stage_version(fingerprint, insert, delete_ids)
        if staged is cur:
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
            rec = self._content(fingerprint)
            lines, dom = rec.lines, rec.domain
        # load / build outside the lock: builds are deterministic, so a
        # racing duplicate wastes work but never yields a wrong entry
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
        """Incremental build from the parent version's cached index.

        Applies only when this fingerprint is a committed mutation of a
        parent whose *same-key* index is still in the memory tier; the
        repair itself is :func:`repair_index`'s.  ``None`` -- no
        lineage, parent evicted, or a repair declined (counted in
        ``repair_full_rebuilds``) -- and the caller pays the canonical
        build.
        """
        with self._lock:
            rec = self._datasets.get(key.fingerprint)
            if rec is None or rec.lineage is None:
                return None
            parent_fp, del_ids, n_inserted = rec.lineage
            parent = self._cache.get(
                IndexKey.make(parent_fp, key.structure, **params))
        if parent is None:
            return None
        machine = Machine()
        try:
            with use_machine(machine):
                out = repair_index(parent.tree, lines, del_ids, n_inserted,
                                   dom, key.structure, **params)
        except Exception:
            out = None   # any surprise falls back to the canonical build
        with self._lock:
            if out is None:
                self.repair_full_rebuilds += 1
                return None
            self.repairs += 1
        return BuiltIndex(key, out[0], machine.steps,
                          machine.total_primitives, int(lines.shape[0]),
                          repaired_from=parent_fp, repair=out[1])

    def peek(self, key: IndexKey) -> Optional[BuiltIndex]:
        """Memory-tier lookup without miss accounting, LRU touch, or
        build."""
        with self._lock:
            return self._cache.get(key)

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
                "versions_committed": float(self.versions_committed),
                "versions_collected": float(self.versions_collected),
                "versions_retained": float(self.versions_retained),
                "pinned_versions": float(sum(
                    1 for rec in self._datasets.values() if rec.pins)),
            }
        if self.store is not None:
            out["store"] = self.store.snapshot()
        return out

    def cached_keys(self):
        """LRU-ordered cache keys, oldest first (for tests/introspection)."""
        with self._lock:
            return list(self._cache)

