"""Data-parallel batch query processing.

The companion papers ([Hoel94b]'s "performance of data-parallel spatial
operations") process query *sets*, not single probes: one processor per
(query, node) pair, expanding level-synchronously.  This module provides
that style of bulk evaluation for the window query on both tree
families:

* the frontier is a vector of (query id, node id) pairs;
* each round every pair tests its query window against its node's
  rectangle in one whole-array step and expands into children;
* at the leaves, candidate (query, line) pairs are deduplicated (the
  paper's section 4.3 duplicate deletion: a bucket PMR quadtree stores
  a segment in every block it crosses, so one window meets it once per
  leaf) and only the distinct pairs take the one vectorised exact test.

An empty (inverted) window is swapped for ``EMPTY_RECT`` once, when
the frontier is seeded, so it leaves in the first round and every
round's prune is four closed-overlap comparisons with no emptiness
test (node boxes, level MBRs and entry boxes are never empty).

Results are identical to looping the scalar ``window_query`` (a test
invariant) but the work is whole-array per tree level -- O(height)
vector steps for any number of queries, each over the frontier: child
lists come from the tree's once-derived adjacency and the hit stream is
packed by one sort (:mod:`.csr`), so nothing a call does is proportional
to the map.  Each kernel has a CSR core returning ``(ids, ptr)``; the
public ``batch_*`` functions split it into per-query views at the edge.

:data:`FAMILY` and :func:`batch_core` are the structure table: the one
place that says which core serves a (structure family, probe kind,
exactness) triple.  The engine's batch jobs look their kernel up
there, on a plain tree and on each shard of a sharded wave alike.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..geometry.distance import (
    points_rects_distance,
    points_rects_max_distance,
    points_segments_distance,
)
from ..geometry.rect import EMPTY_RECT, contains_point_halfopen, validate_rects
from ..machine import Machine, get_machine
from .csr import distinct_pairs, gather_csr, pack_csr, pack_sorted, run_heads
from .quadblock import Quadtree
from .rtree import RTree

__all__ = [
    "batch_window_query_quadtree",
    "batch_window_query_rtree",
    "batch_point_query_quadtree",
    "batch_point_query_rtree",
    "batch_nearest_quadtree",
    "batch_nearest_rtree",
]

_NO_IDS = np.zeros(0, dtype=np.int64)


def _views(ids: np.ndarray, ptr: np.ndarray) -> List[np.ndarray]:
    """The public edge: per-query (read-only) views of a packed result."""
    cuts = ptr.tolist()
    return [ids[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _cat(parts: List[np.ndarray], empty: np.ndarray = _NO_IDS) -> np.ndarray:
    return np.concatenate(parts) if parts else empty


def _leaf_pairs(tree: Quadtree, leaf_q: np.ndarray, leaf_n: np.ndarray):
    """Candidate (query, line) pairs from the lines stored at each leaf."""
    counts, lines = gather_csr(tree.node_ptr, tree.node_lines, leaf_n)
    return np.repeat(leaf_q, counts), lines


def _seed(rects) -> np.ndarray:
    """The validated ``(n, 4)`` windows, each empty (inverted) one swapped
    for ``EMPTY_RECT``: its +-inf corners fail every :func:`_meets`, so
    it leaves the frontier in the first round like any window that
    misses the root."""
    rects = validate_rects(np.asarray(rects, dtype=float).reshape(-1, 4))
    empty = (rects[:, 0] > rects[:, 2]) | (rects[:, 1] > rects[:, 3])
    return np.where(empty[:, None], EMPTY_RECT, rects) if empty.any() else rects


def _meets(boxes: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Closed overlap of non-empty boxes with seeded windows, row-wise:
    four comparisons (:func:`~repro.geometry.rect.overlaps` without its
    emptiness tests, which :func:`_seed` made redundant)."""
    return ((boxes[:, 0] <= windows[:, 2]) & (windows[:, 0] <= boxes[:, 2])
            & (boxes[:, 1] <= windows[:, 3]) & (windows[:, 1] <= boxes[:, 3]))


def _prune_window(m: Machine, rects, q_frontier, n_frontier, boxes):
    """Drop the (query, node) pairs whose box misses the query window."""
    m.record("elementwise", q_frontier.size)
    alive = _meets(boxes, rects[q_frontier])
    return q_frontier[alive], n_frontier[alive]


def _verify_and_pack(m: Machine, tree, rects, qid, lid, exact: bool):
    """Dedupe the candidate pairs, exact-test the distinct ones, pack
    them per query.

    A quadtree window meets a segment once per leaf that stores it, so
    the dedupe comes first and the exact test runs on distinct pairs
    only; R-tree pairs are distinct already.  ``exact=False`` keeps
    every distinct candidate from the reached leaves, matching the
    scalar ``window_query``'s filter-step semantics.
    """
    q, ids = distinct_pairs(qid, lid, tree.lines.shape[0])
    if exact and q.size:
        m.record("elementwise", q.size)
        keep = segments_intersect_rects(tree.lines[ids], rects[q])
        q = q[keep]
        ids = ids[keep]
    return pack_sorted(q, ids, rects.shape[0])


def _window_quadtree(tree: Quadtree, rects, exact: bool,
                     machine: Optional[Machine]):
    m = machine or get_machine()
    rects = _seed(rects)
    nq = rects.shape[0]
    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    while q_frontier.size:
        q_frontier, n_frontier = _prune_window(
            m, rects, q_frontier, n_frontier, tree.boxes[n_frontier])
        if not q_frontier.size:
            break
        is_leaf = tree.children[n_frontier, 0] < 0
        # leaves: emit candidate (query, line) pairs
        leaf_q = q_frontier[is_leaf]
        if leaf_q.size:
            qid, lid = _leaf_pairs(tree, leaf_q, n_frontier[is_leaf])
            hit_q.append(qid)
            hit_l.append(lid)
        # internal: expand into all four children
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        m.record("permute", int_q.size * 4)
        q_frontier = np.repeat(int_q, 4)
        n_frontier = tree.children[int_n].reshape(-1)

    return _verify_and_pack(m, tree, rects, _cat(hit_q), _cat(hit_l), exact)


def batch_window_query_quadtree(tree: Quadtree, rects, exact: bool = True,
                                machine: Optional[Machine] = None
                                ) -> List[np.ndarray]:
    """All window queries against a quadtree in O(height) vector rounds."""
    return _views(*_window_quadtree(tree, rects, exact, machine))


def _window_rtree(tree: RTree, rects, exact: bool, machine: Optional[Machine]):
    m = machine or get_machine()
    rects = _seed(rects)
    nq = rects.shape[0]
    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    for level in range(tree.height - 1, 0, -1):
        q_frontier, n_frontier = _prune_window(
            m, rects, q_frontier, n_frontier, tree.level_mbr[level][n_frontier])
        if not q_frontier.size:
            break
        # expand to the children of every surviving node
        counts, n_frontier = gather_csr(*tree.adjacency[level], n_frontier)
        m.record("permute", n_frontier.size)
        q_frontier = np.repeat(q_frontier, counts)
    # leaf level: test the surviving (query, leaf) pairs, then entries
    if q_frontier.size:
        q_frontier, n_frontier = _prune_window(
            m, rects, q_frontier, n_frontier, tree.level_mbr[0][n_frontier])
    counts, lid = gather_csr(*tree.adjacency[0], n_frontier)
    qid = np.repeat(q_frontier, counts)
    if qid.size:
        m.record("elementwise", qid.size)
        keep = _meets(tree.entry_bbox[lid], rects[qid])
        qid = qid[keep]
        lid = lid[keep]
    return _verify_and_pack(m, tree, rects, qid, lid, exact)


def batch_window_query_rtree(tree: RTree, rects, exact: bool = True,
                             machine: Optional[Machine] = None
                             ) -> List[np.ndarray]:
    """All window queries against an R-tree in O(height) vector rounds."""
    return _views(*_window_rtree(tree, rects, exact, machine))


# -- point probes ---------------------------------------------------------


def _degenerate_rects(points) -> np.ndarray:
    """Zero-area windows ``[px, py, px, py]`` for a point batch."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.hstack([pts, pts])


def _point_quadtree(tree: Quadtree, points, strict: bool,
                    machine: Optional[Machine]):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = machine or get_machine()
    nq = pts.shape[0]
    if nq == 0:
        return _NO_IDS, np.zeros(1, dtype=np.int64)
    m.record("elementwise", nq)
    inside = contains_point_halfopen(np.broadcast_to(tree.boxes[0], (nq, 4)),
                                     pts[:, 0], pts[:, 1], tree.domain)
    if strict and not inside.all():
        raise ValueError(f"{int((~inside).sum())} point(s) outside the domain")
    q_frontier = np.flatnonzero(inside).astype(np.int64)
    n_frontier = np.zeros(q_frontier.size, dtype=np.int64)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    while q_frontier.size:
        is_leaf = tree.children[n_frontier, 0] < 0
        leaf_q = q_frontier[is_leaf]
        if leaf_q.size:
            qid, lid = _leaf_pairs(tree, leaf_q, n_frontier[is_leaf])
            hit_q.append(qid)
            hit_l.append(lid)
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        if not int_q.size:
            break
        # expand into all four children, keep the one holding the point
        m.record("permute", int_q.size * 4)
        cq = np.repeat(int_q, 4)
        cn = tree.children[int_n].reshape(-1)
        m.record("elementwise", cq.size)
        keep = contains_point_halfopen(tree.boxes[cn], pts[cq, 0], pts[cq, 1],
                                       tree.domain)
        q_frontier = cq[keep]
        n_frontier = cn[keep]
    return pack_csr(_cat(hit_q), _cat(hit_l), nq, tree.lines.shape[0])


def batch_point_query_quadtree(tree: Quadtree, points, strict: bool = True,
                               machine: Optional[Machine] = None
                               ) -> List[np.ndarray]:
    """All point queries against a quadtree in O(height) vector rounds.

    Each query descends to the unique leaf containing its point
    (half-open block membership, as in :meth:`Quadtree.find_leaf`) and
    returns the ids of the lines stored there.  With ``strict`` a point
    outside the domain raises :class:`ValueError` like the scalar query;
    otherwise it yields an empty result.
    """
    return _views(*_point_quadtree(tree, points, strict, machine))


def batch_point_query_rtree(tree: RTree, points, exact: bool = True,
                            machine: Optional[Machine] = None
                            ) -> List[np.ndarray]:
    """All point queries against an R-tree, as degenerate window queries.

    Mirrors :meth:`RTree.point_query`, which delegates to
    ``window_query`` on the rectangle ``[px, py, px, py]``.
    """
    rects = _degenerate_rects(points)
    if rects.shape[0] == 0:
        return []
    return batch_window_query_rtree(tree, rects, exact=exact, machine=machine)


# -- nearest probes -------------------------------------------------------


def _reduce_nearest(qid: np.ndarray, lid: np.ndarray, dist: np.ndarray,
                    nq: int, span: int):
    """Per-query ``(line ids, distances)`` minimising distance then id:
    the first entry of each query's run in the sorted fused key."""
    best = np.full(nq, np.inf)
    np.minimum.at(best, qid, dist)
    at_best = dist <= best[qid]
    q, lids = np.divmod(np.sort(qid[at_best] * span + lid[at_best]), span)
    lids = lids[run_heads(q)]
    assert lids.size == nq, "non-empty tree must answer"
    return lids, best


def _pairs(lids: np.ndarray, dists: np.ndarray) -> List[tuple]:
    return list(zip(lids.tolist(), dists.tolist()))


def _prune_nearest(m: Machine, pts, bound, q_frontier, n_frontier, boxes):
    """Tighten each query's bound by its boxes' farthest corners, then
    drop the (query, node) pairs whose box lies beyond the bound."""
    m.record("elementwise", q_frontier.size)
    lb = points_rects_distance(pts[q_frontier], boxes)
    ub = points_rects_max_distance(pts[q_frontier], boxes)
    m.record("scan", q_frontier.size)
    np.minimum.at(bound, q_frontier, ub)
    alive = lb <= bound[q_frontier]
    return q_frontier[alive], n_frontier[alive]


def _nearest_quadtree(tree: Quadtree, points, machine: Optional[Machine]):
    m = machine or get_machine()
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    nq = pts.shape[0]
    if nq and tree.lines.shape[0] == 0:
        raise ValueError("empty tree has no nearest line")
    occupancy = tree.occupancy
    bound = np.full(nq, np.inf)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    hit_d: List[np.ndarray] = []
    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    while q_frontier.size:
        # prune: a block farther than the query's bound cannot help
        q_frontier, n_frontier = _prune_nearest(
            m, pts, bound, q_frontier, n_frontier, tree.boxes[n_frontier])
        if not q_frontier.size:
            break
        is_leaf = tree.children[n_frontier, 0] < 0
        leaf_q = q_frontier[is_leaf]
        if leaf_q.size:
            qid, lid = _leaf_pairs(tree, leaf_q, n_frontier[is_leaf])
            if qid.size:
                m.record("elementwise", qid.size)
                d = points_segments_distance(pts[qid], tree.lines[lid])
                m.record("scan", qid.size)
                np.minimum.at(bound, qid, d)
                hit_q.append(qid)
                hit_l.append(lid)
                hit_d.append(d)
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        if not int_q.size:
            break
        # expand into the non-empty children only
        m.record("permute", int_q.size * 4)
        cq = np.repeat(int_q, 4)
        cn = tree.children[int_n].reshape(-1)
        nonempty = occupancy[cn] > 0
        q_frontier = cq[nonempty]
        n_frontier = cn[nonempty]
    return _reduce_nearest(_cat(hit_q), _cat(hit_l), _cat(hit_d, np.zeros(0)),
                           nq, tree.lines.shape[0])


def batch_nearest_quadtree(tree: Quadtree, points,
                           machine: Optional[Machine] = None) -> List[tuple]:
    """All nearest-line queries against a quadtree, level-synchronously.

    The batched branch-and-bound analogue of
    :func:`repro.structures.nearest.quadtree_nearest`: the frontier is a
    vector of (query, node) pairs; each round prunes pairs whose block
    lies farther than the query's current upper bound (min-max corner
    distance over non-empty subtrees, tightened by exact distances at
    reached leaves) and expands survivors into their non-empty children.
    Returns ``(line id, distance)`` per query -- identical, ties
    included, to the scalar search.
    """
    return _pairs(*_nearest_quadtree(tree, points, machine))


def _nearest_rtree(tree: RTree, points, machine: Optional[Machine]):
    m = machine or get_machine()
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    nq = pts.shape[0]
    if nq == 0:
        return _NO_IDS, np.zeros(0)
    if tree.lines.shape[0] == 0:
        raise ValueError("empty tree has no nearest line")
    bound = np.full(nq, np.inf)
    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    # prune nodes level by level down to the leaves, then their entries;
    # whatever gives a query its bound survives it, so nothing empties
    for level in range(tree.height - 1, -1, -1):
        q_frontier, n_frontier = _prune_nearest(
            m, pts, bound, q_frontier, n_frontier,
            tree.level_mbr[level][n_frontier])
        counts, n_frontier = gather_csr(*tree.adjacency[level], n_frontier)
        q_frontier = np.repeat(q_frontier, counts)
        if level:
            m.record("permute", n_frontier.size)
    qid, lid = q_frontier, n_frontier
    m.record("elementwise", qid.size)
    keep = points_rects_distance(pts[qid], tree.entry_bbox[lid]) <= bound[qid]
    qid = qid[keep]
    lid = lid[keep]
    m.record("elementwise", qid.size)
    dist = points_segments_distance(pts[qid], tree.lines[lid])
    return _reduce_nearest(qid, lid, dist, nq, tree.lines.shape[0])


def batch_nearest_rtree(tree: RTree, points,
                        machine: Optional[Machine] = None) -> List[tuple]:
    """All nearest-line queries against an R-tree, level-synchronously.

    Same frontier scheme as :func:`batch_nearest_quadtree`; every R-tree
    node is non-empty by construction, so the min-max corner distance of
    each visited rectangle is always a valid upper bound.  Returns
    ``(line id, distance)`` per query, identical to the scalar search.
    """
    return _pairs(*_nearest_rtree(tree, points, machine))


# -- the structure table ----------------------------------------------------

#: structure name -> tree family; the family picks every kernel
FAMILY = {"pmr": "quadtree", "pm1": "quadtree", "rtree": "rtree"}


def batch_core(family: str, kind: str, exact: bool):
    """The CSR core serving ``kind`` probes on a ``family`` tree.

    Returns ``core(tree, payloads, machine)``: ``(ids, ptr)`` for window
    and point probes, ``(ids, dists)`` for nearest.  A point probe is the
    degenerate window ``[px, py, px, py]``, so an exact point answer --
    the segments through the point -- never depends on a tree's (or a
    shard's) decomposition.  ``exact=False`` keeps each family's native
    candidate set: a quadtree's leaf residents, an R-tree's unrefined
    window filter.
    """
    quadtree = family == "quadtree"
    if kind == "nearest":
        return _nearest_quadtree if quadtree else _nearest_rtree
    window = _window_quadtree if quadtree else _window_rtree
    if kind == "window":
        return lambda tree, rects, m: window(tree, rects, exact, m)
    if kind != "point":
        raise ValueError(f"unknown probe kind {kind!r}")
    if quadtree and not exact:
        # out-of-domain points were rejected at submit time
        return lambda tree, pts, m: _point_quadtree(tree, pts, False, m)
    return lambda tree, pts, m: window(tree, _degenerate_rects(pts), exact, m)
