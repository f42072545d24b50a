"""Sharded spatial indexes: space-sorted segment ranges, one tree each.

The paper's structures decompose *space*; this module decomposes the
*dataset*.  Segments are sorted by the Morton or Hilbert code of their
midpoint cell (:mod:`repro.machine.ordering`), cut into ``K``
contiguous ranges of near-equal size, and each range gets its own
PM1 / bucket-PMR / R-tree plus the minimum bounding rectangle of its
segments.  Because the ranges follow a space-filling curve, shards are
spatially coherent and their MBRs overlap little, so most probes touch
a small subset of shards.

Query semantics (the invariants the differential harness checks):

* every segment belongs to **exactly one** shard -- segments are
  assigned whole by their midpoint's curve position, never clipped --
  so the merge cannot manufacture cross-shard duplicates; a shard's
  own answers are still deduplicated because its quadtree may hold
  several q-edges of one segment;
* within a shard, segments are reordered by **ascending global id**,
  so the per-shard nearest tie-break (lowest local id) coincides with
  the global tie-break (lowest global id) and the merged nearest
  answer is identical to the unsharded and brute-force answers;
* ``point_query`` is answered as the *exact* degenerate window
  ``[px, py, px, py]``: a shard's leaf decomposition differs from the
  unsharded tree's, so the leaf-content ("candidate") semantics of
  :meth:`Quadtree.point_query` are not decomposition-independent --
  the exact refinement is, and matches ``brute_point_query``;
* ``nearest`` runs two rounds: the shards whose MBR contains the
  probe plus its nearest-MBR shard, then only the shards whose MBR
  lower bound reaches the round-one distance;
* ``K = 1`` degenerates to the unsharded tree wrapped in one shard.

The engine answers a wave of probes on a sharded index with
:meth:`ShardedIndex.query_wave`, inside one job: the K shards are K
groups of one wave, not K jobs.  It plans the wave by MBR culling, runs
:meth:`ShardedIndex.query_shard_batch` -- the structure table's kernel
(:func:`~repro.structures.batch.wave_core`) on one shard, ids lifted
to global ones -- per planned shard, and packs the wave's answer with
one :func:`~repro.structures.csr.pack_csr`.  :func:`index_wave` is the
one place that picks between that and a plain tree's kernel, for the
engine's batch jobs, for :func:`~repro.structures.join.index_join` and
for :func:`~repro.structures.batch.one_probe`, which answers every
scalar query of a plain tree or a sharded index as a wave of one row.
:func:`build_index` is the one builder of a servable index, plain or
sharded, and :func:`repair_index` the one commit path from a parent's
index to its child's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..geometry.distance import points_rects_distance
from ..geometry.rect import rects_from_segments
from ..machine import Machine
from ..machine.ordering import hilbert_encode, morton_encode
from .batch import (FAMILY, NEAREST, POINT, WINDOW, _cat, one_probe,
                    wave_core, wave_kinds, wave_rows)
from .bucket_pmr import build_bucket_pmr
from .csr import pack_csr
from .dynamic import apply_batch
from .pm1 import build_pm1
from .quadblock import Quadtree
from .rtree import RTree, build_rtree

__all__ = ["Shard", "ShardedIndex", "build_index", "build_sharded",
           "index_wave", "repair_index", "repair_sharded", "shard_keys",
           "ORDERINGS"]

ORDERINGS = ("morton", "hilbert")

_KEY_BITS = 16


def shard_keys(lines: np.ndarray, domain: float, ordering: str = "morton",
               bits: int = _KEY_BITS) -> np.ndarray:
    """Space-filling-curve key of each segment's midpoint cell.

    Midpoints are scaled onto a ``2^bits`` x ``2^bits`` cell grid over
    ``[0, domain]^2`` and encoded with the chosen curve.  The key decides
    shard membership only; resolution beyond the shard count is free.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; choose from {ORDERINGS}")
    lines = np.asarray(lines, dtype=float).reshape(-1, 4)
    side = 1 << bits
    mids = 0.5 * (lines[:, 0:2] + lines[:, 2:4])
    cells = np.clip((mids / float(domain) * side).astype(np.int64), 0, side - 1)
    encode = morton_encode if ordering == "morton" else hilbert_encode
    return encode(cells[:, 0], cells[:, 1], bits)


@dataclass
class Shard:
    """One contiguous curve range: its global ids, MBR, and tree."""

    ids: np.ndarray    # ascending global line ids
    mbr: np.ndarray    # (4,) bounding rectangle of the shard's segments
    tree: object       # Quadtree | RTree over the shard's segments
    max_key: Optional[int] = None   # largest curve key; None until first needed


@dataclass
class ShardedIndex:
    """K per-range trees answering queries shard by shard, merged."""

    lines: np.ndarray
    domain: float
    structure: str
    ordering: str
    shards: List[Shard]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def family(self) -> str:
        return FAMILY[self.structure]

    @property
    def num_lines(self) -> int:
        return int(self.lines.shape[0])

    def shard_mbrs(self) -> np.ndarray:
        """``(K, 4)`` array of shard bounding rectangles."""
        if not self.shards:
            return np.zeros((0, 4))
        return np.stack([s.mbr for s in self.shards])

    def shard_sizes(self) -> np.ndarray:
        return np.array([s.ids.size for s in self.shards], dtype=np.int64)

    def shard_max_keys(self) -> np.ndarray:
        """Largest curve key per shard: the sorted insert-routing table.

        Computed once per shard and kept on it, so a repair pays for the
        keys of the shards it rebuilt last time, not of every old line.
        """
        for s in self.shards:
            if s.max_key is None:
                s.max_key = int(shard_keys(self.lines[s.ids], self.domain,
                                           self.ordering).max())
        return np.array([s.max_key for s in self.shards])

    # -- scalar queries: one-probe waves ---------------------------------

    def window_query(self, rect, exact: bool = True,
                     deadline: Optional[float] = None) -> np.ndarray:
        """Global ids of lines intersecting the closed rectangle.

        With ``exact`` the answer is set-identical to the unsharded tree
        and to brute force; without it each shard contributes its own
        candidate set (decomposition-dependent).

        With a ``deadline`` (relative seconds) the query degrades
        gracefully by the wave's rule: when the budget runs out with
        planned shards still unqueried, the merge of the shards visited
        so far comes back wrapped in a
        :class:`~repro.resilience.PartialResult` (``shards_dropped``
        counts the rest) instead of raising.
        """
        return one_probe(self, WINDOW, rect, exact, deadline_at=(
            time.monotonic() + deadline if deadline is not None else None))

    def point_query(self, px: float, py: float) -> np.ndarray:
        """Global ids of lines passing through the point (always exact)."""
        return one_probe(self, POINT, (px, py))

    def nearest(self, px: float, py: float) -> Tuple[int, float]:
        """Closest line to the point; ties broken by lowest global id."""
        return one_probe(self, NEAREST, (px, py))

    # -- batch waves (the engine's sharded core) --------------------------

    def plan_windows(self, rects: np.ndarray) -> np.ndarray:
        """``(K, B)`` mask: shard k can hold hits of window b (MBR cull)."""
        rects = np.asarray(rects, dtype=float).reshape(-1, 4)
        mbrs = self.shard_mbrs()
        return ((mbrs[:, None, 0] <= rects[None, :, 2])
                & (rects[None, :, 0] <= mbrs[:, None, 2])
                & (mbrs[:, None, 1] <= rects[None, :, 3])
                & (rects[None, :, 1] <= mbrs[:, None, 3]))

    def nearest_bounds(self, points: np.ndarray) -> np.ndarray:
        """``(K, B)`` point-to-shard-MBR lower bounds (0 when inside)."""
        p, r = np.asarray(points, dtype=float).reshape(-1, 2), self.shard_mbrs()
        return points_rects_distance(np.tile(p, (len(r), 1)),
                                     r.repeat(len(p), axis=0)).reshape(len(r), len(p))

    def query_shard_batch(self, k: int, kinds, payloads: np.ndarray,
                          exact: bool = True,
                          machine: Optional[Machine] = None):
        """One shard's answers for a wave's sub-batch: the wave core's
        ``(ids, ptr, nid, nd)`` (:func:`~repro.structures.batch.wave_core`)
        with the shard's local ids lifted to global ones.  A wave of
        points alone is always exact (see the module docstring)."""
        s = self.shards[k]
        kinds = wave_kinds(kinds, len(payloads))
        exact = exact or bool(kinds.size and (kinds == POINT).all())
        ids, ptr, nid, nd = wave_core(self.family, exact)(s.tree, payloads,
                                                          kinds, machine)
        return s.ids[ids], ptr, np.where(nid < 0, -1, s.ids[nid]), nd

    def query_wave(self, kinds, payloads: np.ndarray, exact: bool = True,
                   machine: Optional[Machine] = None,
                   deadline_at: Optional[float] = None,
                   on_shard: Optional[Callable[[int], None]] = None):
        """One wave of mixed probes, one call per planned shard per round.

        Window and point rows are planned by MBR culling and their hits
        packed with one :func:`pack_csr`, like an unsharded wave.
        Nearest rows join round one at each shard whose MBR contains the
        probe plus its argmin-bound shard; round two queries them at the
        shards whose lower bound reaches the round-one distance (``lb <=
        best``: an equidistant segment with a lower global id in another
        shard must win the tie).

        ``deadline_at`` (absolute ``time.monotonic`` seconds) is checked
        before every planned shard after the first -- like the scalar
        :meth:`window_query`, a wave always queries one shard.  Once it
        has passed, the rest of the plan is dropped and the answer is
        the merge of the shards run.  ``on_shard(k)`` is called before
        shard ``k`` runs (the engine's ``shard.query`` fault site).

        Returns ``(quad, counts)``: the wave core's ``(ids, ptr, nid,
        nd)`` over the whole wave, and ``(total, probed, dropped,
        completed)`` -- the index's shard count, the distinct shards the
        plan selected, the planned shard queries the deadline dropped,
        and the shard queries run (a shard counts once per round it is
        queried in).
        """
        rows = wave_rows(payloads)
        kinds = wave_kinds(kinds, rows.shape[0])
        near = kinds == NEAREST
        B, K = rows.shape[0], self.num_shards
        best_d = np.full(B, np.inf)
        best_g = np.full(B, -1, dtype=np.int64)
        ran = 0
        out: list = []
        probed: set = set()

        def run(mask) -> int:
            """Query each shard of ``mask`` in turn until the deadline,
            folding nearest rows into the running best (ties to the
            lower id); returns the planned queries dropped."""
            nonlocal ran
            plan = [(k, np.flatnonzero(mask[k])) for k in range(K)
                    if mask[k].any()]
            probed.update(k for k, _ in plan)
            for i, (k, sel) in enumerate(plan):
                if ran and deadline_at is not None \
                        and time.monotonic() >= deadline_at:
                    return len(plan) - i
                if on_shard is not None:
                    on_shard(k)
                gids, ptr, gnid, nd = self.query_shard_batch(
                    k, kinds[sel], rows[sel], exact, machine)
                out.append((sel, gids, ptr))
                ran += 1
                at = near[sel]
                q, gnid, nd = sel[at], gnid[at], nd[at]
                upd = (nd < best_d[q]) | ((nd == best_d[q]) & (gnid < best_g[q]))
                best_d[q[upd]] = nd[upd]
                best_g[q[upd]] = gnid[upd]
            return 0

        mask = self.plan_windows(rows)
        if near.any():
            if K == 0:
                raise ValueError("empty index has no nearest line")
            lb = self.nearest_bounds(rows[near, :2])   # (K, nearest rows)
            round1 = lb == 0.0
            round1[np.argmin(lb, axis=0), np.arange(lb.shape[1])] = True
            mask[:, near] = round1
        dropped = run(mask)
        if near.any() and not dropped:
            mask[:] = False
            mask[:, near] = (lb <= best_d[near]) & ~round1
            dropped = run(mask)
        qid = [np.repeat(sel, np.diff(ptr)) for sel, _, ptr in out]
        ids, ptr = pack_csr(_cat(qid), _cat([g for _, g, _ in out]), B,
                            self.num_lines)
        return (ids, ptr, best_g, best_d), (K, len(probed), dropped, ran)

    # -- validation ------------------------------------------------------

    def check(self) -> None:
        """Raise AssertionError on any sharding invariant violation."""
        seen = (np.concatenate([s.ids for s in self.shards])
                if self.shards else np.zeros(0, dtype=np.int64))
        assert np.array_equal(np.sort(seen), np.arange(self.num_lines)), \
            "shard ids must partition the global id space"
        for s in self.shards:
            assert s.ids.size > 0, "empty shards must not be materialised"
            assert np.all(np.diff(s.ids) > 0), "shard ids must be ascending"
            segs, box = self.lines[s.ids], _segment_mbr(self.lines[s.ids])
            assert (s.mbr[:2] <= box[:2]).all() and (s.mbr[2:] >= box[2:]).all(), \
                "shard MBR must cover its segments"
            assert np.array_equal(s.tree.lines, segs), \
                "shard tree must index exactly the shard's segments"


def index_wave(index, kinds, payloads: np.ndarray, exact: bool = True,
               machine: Optional[Machine] = None,
               deadline_at: Optional[float] = None,
               on_shard: Optional[Callable[[int], None]] = None):
    """One wave of probes over any servable index: a plain tree's
    :func:`~repro.structures.batch.wave_core` or a sharded index's
    :meth:`ShardedIndex.query_wave` (``deadline_at`` and ``on_shard``
    apply to shards only).  Returns the core's ``(ids, ptr, nid, nd)``
    and ``query_wave``'s shard counts (``()`` for a plain tree)."""
    if isinstance(index, ShardedIndex):
        return index.query_wave(kinds, payloads, exact, machine, deadline_at,
                                on_shard)
    if not isinstance(index, (Quadtree, RTree)):
        raise TypeError(f"cannot query {type(index).__name__}")
    family = "quadtree" if isinstance(index, Quadtree) else "rtree"
    return wave_core(family, exact)(index, payloads, kinds, machine), ()


def _segment_mbr(segs: np.ndarray) -> np.ndarray:
    boxes = rects_from_segments(segs)
    return np.concatenate([boxes[:, :2].min(axis=0), boxes[:, 2:].max(axis=0)])


def build_sharded(lines: np.ndarray, domain: float, structure: str = "pmr",
                  shards: int = 4, ordering: str = "morton",
                  capacity: int = 8, min_fill: int = 2,
                  max_depth=None) -> ShardedIndex:
    """Space-sort, cut into ``shards`` ranges, and build one tree per range.

    Ranges are near-equal-count cuts of the curve-sorted segment order;
    a request for more shards than segments yields one shard per
    segment (empty ranges are never materialised).
    """
    if structure not in FAMILY:
        raise ValueError(f"unknown structure {structure!r}; "
                         f"available: {sorted(FAMILY)}")
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; choose from {ORDERINGS}")
    shards = int(shards)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    lines = np.asarray(lines, dtype=np.float64).reshape(-1, 4)
    n = lines.shape[0]
    built: List[Shard] = []
    if n:
        keys = shard_keys(lines, domain, ordering)
        order = np.lexsort((np.arange(n), keys))
        cuts = [(i * n) // shards for i in range(shards + 1)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi <= lo:
                continue
            ids = np.sort(order[lo:hi])  # ascending global ids (tie-break!)
            segs = lines[ids]
            tree = _build_tree(segs, domain, structure,
                               capacity, min_fill, max_depth)
            built.append(Shard(ids=ids, mbr=_segment_mbr(segs), tree=tree,
                               max_key=int(keys[order[hi - 1]])))
    return ShardedIndex(lines=lines, domain=float(domain), structure=structure,
                        ordering=ordering, shards=built)


def _build_tree(segs: np.ndarray, domain: float, structure: str,
                capacity: int, min_fill: int, max_depth):
    """One structure's scan-model build: the only per-structure switch."""
    if structure == "pmr":
        return build_bucket_pmr(segs, domain, capacity, max_depth=max_depth)[0]
    if structure == "pm1":
        return build_pm1(segs, domain, max_depth=max_depth)[0]
    if structure == "rtree":
        return build_rtree(segs, min_fill, capacity)[0]
    raise ValueError(f"unknown structure {structure!r}; "
                     f"available: {sorted(FAMILY)}")


def build_index(lines: np.ndarray, domain: float, structure: str,
                shards: int = 1, ordering: str = "morton", capacity: int = 8,
                min_fill: int = 2, max_depth=None):
    """Build one servable index: the structure's tree, or with
    ``shards > 1`` a :class:`ShardedIndex` of them.

    The one builder behind every index the engine's registry serves.
    ``domain`` is ignored by an unsharded R-tree but keys a shard cut.
    """
    if int(shards) > 1:
        return build_sharded(lines, domain, structure, shards, ordering,
                             capacity, min_fill, max_depth)
    return _build_tree(lines, domain, structure, capacity, min_fill,
                       max_depth)


def repair_index(parent, new_lines: np.ndarray, delete_ids,
                 n_inserted: int, domain: float, structure: str,
                 **params):
    """Turn a cached parent index into its child's after one commit.

    The one commit path beside :func:`build_index`, the one builder:
    ``parent`` is what ``build_index(..., structure, **params)`` built
    for the parent content, and ``new_lines`` is the child's rows in the
    registry's delete-then-insert layout (see :func:`repair_sharded`).
    A sharded parent repairs its touched shards (:func:`repair_sharded`);
    a plain PMR / PM1 tree warm-starts from the parent's
    (:func:`~repro.structures.dynamic.apply_batch`, array-equal to a
    fresh build).  ``None`` means "build canonically": a plain R-tree
    (§5.3 has no local block to re-split), a grown domain, and every
    decline of :func:`repair_sharded`.

    Returns ``(index, stats)`` or ``None``; ``stats`` counts
    ``shards_reused`` / ``shards_rebuilt`` and the batch's ``deleted``
    / ``inserted`` rows.
    """
    capacity = int(params.get("capacity", 8))
    if isinstance(parent, ShardedIndex):
        return repair_sharded(parent, new_lines, delete_ids, n_inserted,
                              capacity=capacity,
                              min_fill=int(params.get("min_fill", 2)),
                              max_depth=params.get("max_depth"),
                              domain=domain)
    if structure == "rtree" or parent.domain != float(domain):
        return None
    del_ids = np.unique(np.asarray(delete_ids, dtype=np.int64).reshape(-1))
    keep = np.ones(parent.lines.shape[0], dtype=bool)
    keep[del_ids] = False
    new_lines = np.asarray(new_lines, dtype=np.float64).reshape(-1, 4)
    tree = apply_batch(parent, structure, keep,
                       new_lines[new_lines.shape[0] - int(n_inserted):],
                       capacity)
    return tree, {"shards_reused": 0, "shards_rebuilt": 1,
                  "deleted": int(del_ids.size), "inserted": int(n_inserted)}


#: a repair whose largest shard outgrows this many balanced shares
#: declines, so the canonical build re-cuts the curve
SKEW_BOUND = 4.0


def repair_sharded(index: ShardedIndex, new_lines: np.ndarray,
                   delete_ids, n_inserted: int,
                   capacity: int = 8, min_fill: int = 2,
                   max_depth=None, domain: Optional[float] = None
                   ) -> Optional[Tuple[ShardedIndex, dict]]:
    """Incrementally rebuild a sharded index after a mutation batch.

    ``new_lines`` must be the post-mutation segment array laid out as
    the survivors of ``index.lines`` (original order, rows named by
    ``delete_ids`` removed) followed by ``n_inserted`` appended rows --
    exactly the canonical delete-then-insert layout the registry's
    version commits produce.

    Untouched shards (no deleted segment, no insert routed into their
    curve range) are *reused*: the per-shard tree is shared with the
    old index and only the global-id array is remapped (the survivor
    remap is monotone, so ids stay ascending and the nearest tie-break
    invariant holds).  Every touched shard -- however many the batch
    touches -- is re-derived from its surviving and incoming segments:
    a quadtree shard warm-starts from its old tree
    (:func:`~repro.structures.dynamic.apply_batch`, array-equal to a
    fresh build), an R-tree shard is rebuilt alone.  Answers are
    decomposition-independent (the differential invariant), so a
    repaired index answers bit-identically to ``build_sharded`` on
    ``new_lines`` even though its cut points may differ.

    Returns ``(repaired ShardedIndex, stats dict)``, or ``None`` -- the
    caller builds canonically -- when the repair cannot stay
    incremental: an empty old or new index, a domain change (inserted
    coordinates outside the old power-of-two space), or post-repair
    skew (largest shard exceeding :data:`SKEW_BOUND` times the balanced
    size).
    """
    new_lines = np.asarray(new_lines, dtype=np.float64).reshape(-1, 4)
    n_old = index.num_lines
    n_new = new_lines.shape[0]
    n_inserted = int(n_inserted)
    del_ids = np.unique(np.asarray(delete_ids, dtype=np.int64).reshape(-1))
    if del_ids.size and (del_ids[0] < 0 or del_ids[-1] >= n_old):
        raise IndexError(f"delete ids out of range for {n_old} lines")
    if n_new != n_old - del_ids.size + n_inserted:
        raise ValueError(
            f"new_lines has {n_new} rows; expected "
            f"{n_old} - {del_ids.size} deleted + {n_inserted} inserted")
    K = index.num_shards
    dom = float(domain) if domain is not None else index.domain
    if K == 0 or n_new == 0 or dom != index.domain:
        return None
    stats = {"shards_reused": 0, "shards_rebuilt": 0,
             "deleted": int(del_ids.size), "inserted": n_inserted}

    # monotone survivor remap: old global id -> new global id (-1: deleted)
    keep = np.ones(n_old, dtype=bool)
    keep[del_ids] = False
    remap = np.cumsum(keep, dtype=np.int64) - 1
    remap[~keep] = -1

    # route each inserted segment to the shard whose curve range holds
    # its key; shard ranges are contiguous and ascending along the
    # curve, so the per-shard max key is a sorted routing table
    routed: List[List[int]] = [[] for _ in range(K)]
    ins_keys = target = np.zeros(0, dtype=np.int64)
    if n_inserted:
        max_keys = index.shard_max_keys()
        ins_keys = shard_keys(new_lines[n_new - n_inserted:], dom,
                              index.ordering)
        target = np.minimum(np.searchsorted(max_keys, ins_keys, side="left"),
                            K - 1)
        for j, k in enumerate(target):
            routed[int(k)].append(n_new - n_inserted + j)

    built: List[Shard] = []
    for k, s in enumerate(index.shards):
        kept = keep[s.ids]
        if kept.all() and not routed[k]:
            built.append(Shard(ids=remap[s.ids], mbr=s.mbr, tree=s.tree,
                               max_key=s.max_key))
            stats["shards_reused"] += 1
            continue
        # survivors keep their order and precede every inserted row
        incoming = np.asarray(routed[k], dtype=np.int64)
        ids = np.concatenate([remap[s.ids][kept], incoming])
        if ids.size == 0:
            continue   # fully emptied range: drop, never materialise
        segs = new_lines[ids]
        if index.family == "quadtree":
            tree = apply_batch(s.tree, index.structure, kept,
                               new_lines[incoming], capacity)
        else:
            tree = _build_tree(segs, dom, index.structure,
                               capacity, min_fill, max_depth)
        built.append(Shard(ids=ids, mbr=_segment_mbr(segs), tree=tree,
                           max_key=_repaired_max_key(
                               index, s, ~kept, ins_keys[target == k], segs)))
        stats["shards_rebuilt"] += 1
    if n_new > K and max(s.ids.size for s in built) \
            > SKEW_BOUND * -(-n_new // K):
        return None
    return (ShardedIndex(lines=new_lines, domain=dom,
                         structure=index.structure, ordering=index.ordering,
                         shards=built), stats)


def _repaired_max_key(index: ShardedIndex, shard: Shard, gone: np.ndarray,
                      ins_keys: np.ndarray, segs: np.ndarray) -> Optional[int]:
    """A repaired shard's largest curve key, encoding only the batch.

    The old maximum survives unless a deleted row held it; only then
    are the shard's rows re-encoded.  An old shard that never had its
    key computed stays lazy.
    """
    if shard.max_key is None:
        return None
    if gone.any() and int(shard_keys(index.lines[shard.ids[gone]], index.domain,
                                     index.ordering).max()) == shard.max_key:
        return int(shard_keys(segs, index.domain, index.ordering).max())
    return max(shard.max_key, int(ins_keys.max(initial=shard.max_key)))
