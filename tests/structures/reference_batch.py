"""The batch kernels as they were before the O(frontier) rewrite, and
the scalar searches the one-probe waves retired (references).

Kept verbatim: every R-tree kernel re-``argsort``s ``level_parent`` /
``line_leaf`` on each call, the quadtree nearest kernel recounts subtree
occupancy on each call, and ``_pack_results`` ends with a per-query
``np.unique`` loop.  ``test_batch_identity`` checks the kernels in
:mod:`repro.structures.batch` array-equal against these -- values, order,
dtype, nearest ties -- with the same per-batch ``machine`` accounting.

The scalar searches (last section) are the plain trees' former
``window_query`` / ``point_query`` methods -- a stack descent on the
quadtree, a one-probe frontier on the R-tree -- and the best-first
branch-and-bound nearest searches, as functions of the tree; the scalar
calls, now one-probe waves, must answer like them, visit counts
included.
"""


from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.clip import segments_intersect_rects
from repro.geometry.distance import (
    point_rect_distance,
    point_segment_distance,
    points_rects_distance,
    points_rects_max_distance,
    points_segments_distance,
)
from repro.geometry import rect as _rect
from repro.geometry.rect import contains_point_halfopen, overlaps, validate_rects
from repro.machine import Machine, get_machine
from repro.structures.csr import gather_csr
from repro.structures.quadblock import Quadtree
from repro.structures.rtree import RTree

__all__ = [
    "batch_window_query_quadtree",
    "batch_window_query_rtree",
    "batch_point_query_quadtree",
    "batch_point_query_rtree",
    "batch_nearest_quadtree",
    "batch_nearest_rtree",
    "quadtree_window_query",
    "quadtree_point_query",
    "rtree_window_query",
    "rtree_point_query",
    "quadtree_nearest",
    "rtree_nearest",
]


def _pack_results(qid: np.ndarray, lid: np.ndarray, num_queries: int
                  ) -> List[np.ndarray]:
    """Group verified (query, line) pairs into per-query id arrays."""
    out: List[np.ndarray] = []
    order = np.lexsort((lid, qid))
    qid = qid[order]
    lid = lid[order]
    bounds = np.searchsorted(qid, np.arange(num_queries + 1))
    for q in range(num_queries):
        ids = lid[bounds[q]:bounds[q + 1]]
        out.append(np.unique(ids))
    return out


def _expand_csr(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices ``[starts[i] .. starts[i]+counts[i])`` concatenated.

    The gather pattern every frontier expansion shares: one output slot
    per (pair, child) combination, computed with whole-array ops only.
    """
    reps = np.repeat(np.arange(counts.size), counts)
    offsets = np.arange(reps.size) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return np.repeat(starts, counts) + offsets


def _leaf_pairs(tree: Quadtree, leaf_q: np.ndarray, leaf_n: np.ndarray):
    """Candidate (query, line) pairs from the lines stored at each leaf."""
    counts = tree.node_ptr[leaf_n + 1] - tree.node_ptr[leaf_n]
    idx = _expand_csr(tree.node_ptr[leaf_n], counts)
    return np.repeat(leaf_q, counts), tree.node_lines[idx]


def batch_window_query_quadtree(tree: Quadtree, rects, exact: bool = True,
                                machine: Optional[Machine] = None
                                ) -> List[np.ndarray]:
    """All window queries against a quadtree in O(height) vector rounds."""
    rects = validate_rects(np.asarray(rects, dtype=float).reshape(-1, 4))
    m = machine or get_machine()
    nq = rects.shape[0]

    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    while q_frontier.size:
        node_boxes = tree.boxes[n_frontier]
        m.record("elementwise", q_frontier.size)
        alive = overlaps(node_boxes, rects[q_frontier])
        q_frontier = q_frontier[alive]
        n_frontier = n_frontier[alive]
        if not q_frontier.size:
            break
        is_leaf = tree.children[n_frontier, 0] < 0
        # leaves: emit candidate (query, line) pairs
        leaf_q = q_frontier[is_leaf]
        leaf_n = n_frontier[is_leaf]
        if leaf_q.size:
            counts = (tree.node_ptr[leaf_n + 1] - tree.node_ptr[leaf_n])
            reps = np.repeat(np.arange(leaf_q.size), counts)
            starts = np.repeat(tree.node_ptr[leaf_n], counts)
            offsets = np.arange(reps.size) - np.repeat(
                np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
            lines = tree.node_lines[starts + offsets]
            hit_q.append(leaf_q[reps])
            hit_l.append(lines)
        # internal: expand into all four children
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        m.record("permute", int_q.size * 4)
        q_frontier = np.repeat(int_q, 4)
        n_frontier = tree.children[int_n].reshape(-1)

    if not hit_q:
        return [np.zeros(0, dtype=np.int64) for _ in range(nq)]
    qid = np.concatenate(hit_q)
    lid = np.concatenate(hit_l)
    if exact and qid.size:
        m.record("elementwise", qid.size)
        keep = segments_intersect_rects(tree.lines[lid], rects[qid])
        qid = qid[keep]
        lid = lid[keep]
    # exact=False returns every candidate from the reached leaves,
    # matching the scalar window_query's filter-step semantics.
    return _pack_results(qid, lid, nq)


def batch_window_query_rtree(tree: RTree, rects, exact: bool = True,
                             machine: Optional[Machine] = None
                             ) -> List[np.ndarray]:
    """All window queries against an R-tree in O(height) vector rounds."""
    rects = validate_rects(np.asarray(rects, dtype=float).reshape(-1, 4))
    m = machine or get_machine()
    nq = rects.shape[0]
    top = tree.height - 1

    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    for level in range(top, 0, -1):
        m.record("elementwise", q_frontier.size)
        alive = overlaps(tree.level_mbr[level][n_frontier], rects[q_frontier])
        q_frontier = q_frontier[alive]
        n_frontier = n_frontier[alive]
        if not q_frontier.size:
            break
        # expand to the children of every surviving node
        par = tree.level_parent[level - 1]
        order = np.argsort(par, kind="stable")
        sorted_par = par[order]
        starts = np.searchsorted(sorted_par, n_frontier, side="left")
        ends = np.searchsorted(sorted_par, n_frontier, side="right")
        counts = ends - starts
        m.record("permute", int(counts.sum()))
        reps = np.repeat(np.arange(q_frontier.size), counts)
        offsets = np.arange(reps.size) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        q_frontier = q_frontier[reps]
        n_frontier = order[np.repeat(starts, counts) + offsets]

    if not q_frontier.size:
        return [np.zeros(0, dtype=np.int64) for _ in range(nq)]
    # leaf level: test the surviving (query, leaf) pairs, then entries
    m.record("elementwise", q_frontier.size)
    alive = overlaps(tree.level_mbr[0][n_frontier], rects[q_frontier])
    q_frontier = q_frontier[alive]
    n_frontier = n_frontier[alive]
    if not q_frontier.size:
        return [np.zeros(0, dtype=np.int64) for _ in range(nq)]

    leaf_order = np.argsort(tree.line_leaf, kind="stable")
    sorted_leaf = tree.line_leaf[leaf_order]
    starts = np.searchsorted(sorted_leaf, n_frontier, side="left")
    ends = np.searchsorted(sorted_leaf, n_frontier, side="right")
    counts = ends - starts
    reps = np.repeat(np.arange(q_frontier.size), counts)
    offsets = np.arange(reps.size) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    qid = q_frontier[reps]
    lid = leaf_order[np.repeat(starts, counts) + offsets]
    if qid.size:
        m.record("elementwise", qid.size)
        keep = overlaps(tree.entry_bbox[lid], rects[qid])
        qid = qid[keep]
        lid = lid[keep]
    if exact and qid.size:
        m.record("elementwise", qid.size)
        keep = segments_intersect_rects(tree.lines[lid], rects[qid])
        qid = qid[keep]
        lid = lid[keep]
    return _pack_results(qid, lid, nq)


# -- point probes ---------------------------------------------------------


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
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = machine or get_machine()
    nq = pts.shape[0]
    if nq == 0:
        return []
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
    if not hit_q:
        return [np.zeros(0, dtype=np.int64) for _ in range(nq)]
    return _pack_results(np.concatenate(hit_q), np.concatenate(hit_l), nq)


def batch_point_query_rtree(tree: RTree, points, exact: bool = True,
                            machine: Optional[Machine] = None
                            ) -> List[np.ndarray]:
    """All point queries against an R-tree, as degenerate window queries.

    Mirrors :meth:`RTree.point_query`, which delegates to
    ``window_query`` on the rectangle ``[px, py, px, py]``.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return []
    rects = np.column_stack([pts[:, 0], pts[:, 1], pts[:, 0], pts[:, 1]])
    return batch_window_query_rtree(tree, rects, exact=exact, machine=machine)


# -- nearest probes -------------------------------------------------------


def _reduce_nearest(qid: np.ndarray, lid: np.ndarray, dist: np.ndarray,
                    nq: int) -> List[Optional[tuple]]:
    """Per-query ``(line id, distance)`` minimising distance then id."""
    out: List[Optional[tuple]] = [None] * nq
    if not qid.size:
        return out
    best = np.full(nq, np.inf)
    np.minimum.at(best, qid, dist)
    at_best = dist <= best[qid]
    qid = qid[at_best]
    lid = lid[at_best]
    order = np.lexsort((lid, qid))
    qid = qid[order]
    lid = lid[order]
    firsts = np.searchsorted(qid, np.arange(nq))
    for q in range(nq):
        if firsts[q] < qid.size and qid[firsts[q]] == q:
            out[q] = (int(lid[firsts[q]]), float(best[q]))
    return out


def _subtree_counts(tree: Quadtree) -> np.ndarray:
    """Number of q-edges stored in each node's subtree (levels upward)."""
    counts = np.diff(tree.node_ptr).astype(np.int64)
    if tree.num_nodes <= 1:
        return counts
    for lev in range(int(tree.level.max()), 0, -1):
        sel = np.flatnonzero(tree.level == lev)
        np.add.at(counts, tree.parent[sel], counts[sel])
    return counts


def batch_nearest_quadtree(tree: Quadtree, points,
                           machine: Optional[Machine] = None) -> List[tuple]:
    """All nearest-line queries against a quadtree, level-synchronously.

    The batched branch-and-bound analogue of
    :func:`quadtree_nearest`: the frontier is a
    vector of (query, node) pairs; each round prunes pairs whose block
    lies farther than the query's current upper bound (min-max corner
    distance over non-empty subtrees, tightened by exact distances at
    reached leaves) and expands survivors into their non-empty children.
    Returns ``(line id, distance)`` per query -- identical, ties
    included, to the scalar search.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = machine or get_machine()
    nq = pts.shape[0]
    if nq == 0:
        return []
    if tree.lines.shape[0] == 0:
        raise ValueError("empty tree has no nearest line")
    occupancy = _subtree_counts(tree)
    bound = np.full(nq, np.inf)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    hit_d: List[np.ndarray] = []
    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    while q_frontier.size:
        # prune: a block farther than the query's bound cannot help
        m.record("elementwise", q_frontier.size)
        lb = points_rects_distance(pts[q_frontier], tree.boxes[n_frontier])
        ub = points_rects_max_distance(pts[q_frontier], tree.boxes[n_frontier])
        m.record("scan", q_frontier.size)
        np.minimum.at(bound, q_frontier, ub)
        alive = lb <= bound[q_frontier]
        q_frontier = q_frontier[alive]
        n_frontier = n_frontier[alive]
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
    qid = np.concatenate(hit_q) if hit_q else np.zeros(0, dtype=np.int64)
    lid = np.concatenate(hit_l) if hit_l else np.zeros(0, dtype=np.int64)
    dist = np.concatenate(hit_d) if hit_d else np.zeros(0)
    out = _reduce_nearest(qid, lid, dist, nq)
    assert all(r is not None for r in out), "non-empty tree must answer"
    return out  # type: ignore[return-value]


def batch_nearest_rtree(tree: RTree, points,
                        machine: Optional[Machine] = None) -> List[tuple]:
    """All nearest-line queries against an R-tree, level-synchronously.

    Same frontier scheme as :func:`batch_nearest_quadtree`; every R-tree
    node is non-empty by construction, so the min-max corner distance of
    each visited rectangle is always a valid upper bound.  Returns
    ``(line id, distance)`` per query, identical to the scalar search.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = machine or get_machine()
    nq = pts.shape[0]
    if nq == 0:
        return []
    if tree.lines.shape[0] == 0:
        raise ValueError("empty tree has no nearest line")
    top = tree.height - 1
    bound = np.full(nq, np.inf)
    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    for level in range(top, 0, -1):
        boxes = tree.level_mbr[level][n_frontier]
        m.record("elementwise", q_frontier.size)
        lb = points_rects_distance(pts[q_frontier], boxes)
        ub = points_rects_max_distance(pts[q_frontier], boxes)
        m.record("scan", q_frontier.size)
        np.minimum.at(bound, q_frontier, ub)
        alive = lb <= bound[q_frontier]
        q_frontier = q_frontier[alive]
        n_frontier = n_frontier[alive]
        if not q_frontier.size:
            break
        par = tree.level_parent[level - 1]
        order = np.argsort(par, kind="stable")
        starts = np.searchsorted(par[order], n_frontier, side="left")
        counts = np.searchsorted(par[order], n_frontier, side="right") - starts
        m.record("permute", int(counts.sum()))
        q_frontier = np.repeat(q_frontier, counts)
        n_frontier = order[_expand_csr(starts, counts)]
    if not q_frontier.size:  # pragma: no cover - non-empty trees always reach leaves
        raise ValueError("tree holds no lines")
    # leaf level: prune leaves, then their entries, then exact distances
    m.record("elementwise", q_frontier.size)
    boxes = tree.level_mbr[0][n_frontier]
    lb = points_rects_distance(pts[q_frontier], boxes)
    ub = points_rects_max_distance(pts[q_frontier], boxes)
    m.record("scan", q_frontier.size)
    np.minimum.at(bound, q_frontier, ub)
    alive = lb <= bound[q_frontier]
    q_frontier = q_frontier[alive]
    n_frontier = n_frontier[alive]

    leaf_order = np.argsort(tree.line_leaf, kind="stable")
    sorted_leaf = tree.line_leaf[leaf_order]
    starts = np.searchsorted(sorted_leaf, n_frontier, side="left")
    counts = np.searchsorted(sorted_leaf, n_frontier, side="right") - starts
    qid = np.repeat(q_frontier, counts)
    lid = leaf_order[_expand_csr(starts, counts)]
    if qid.size:
        m.record("elementwise", qid.size)
        entry_lb = points_rects_distance(pts[qid], tree.entry_bbox[lid])
        keep = entry_lb <= bound[qid]
        qid = qid[keep]
        lid = lid[keep]
    if qid.size:
        m.record("elementwise", qid.size)
        dist = points_segments_distance(pts[qid], tree.lines[lid])
    else:  # pragma: no cover - some entry always survives its own bound
        dist = np.zeros(0)
    out = _reduce_nearest(qid, lid, dist, nq)
    assert all(r is not None for r in out), "non-empty tree must answer"
    return out  # type: ignore[return-value]


# -- the retired scalar searches ---------------------------------------------


def quadtree_point_query(self: Quadtree, px: float, py: float) -> np.ndarray:
    """Ids of lines whose q-edge shares the leaf containing the point."""
    return np.unique(self.lines_in_node(self.find_leaf(px, py)))


def quadtree_window_query(self: Quadtree, rect, exact: bool = True,
                          count_visits: bool = False):
    """Ids of lines intersecting the closed query rectangle.

    Descends from the root, pruning blocks disjoint from the window;
    candidate lines from reached leaves are optionally verified with
    the exact segment-rectangle test.  With ``count_visits`` the
    number of visited nodes is returned too (experiment C6's
    metric).
    """
    rect = validate_rects(np.asarray(rect, dtype=float).reshape(1, 4))[0]
    visits = 0
    stack = [0]
    cand: list[np.ndarray] = []
    while stack:
        node = stack.pop()
        visits += 1
        if not overlaps(self.boxes[node][None, :], rect[None, :])[0]:
            continue
        ch = self.children[node]
        if ch[0] < 0:
            ids = self.lines_in_node(node)
            if ids.size:
                cand.append(ids)
        else:
            stack.extend(int(c) for c in ch)
    ids = np.unique(np.concatenate(cand)) if cand else np.zeros(0, dtype=np.int64)
    if exact and ids.size:
        tiles = np.tile(rect, (ids.size, 1))
        keep = segments_intersect_rects(self.lines[ids], tiles)
        ids = ids[keep]
    return (ids, visits) if count_visits else ids


def rtree_window_query(self: RTree, rect, exact: bool = True,
                       count_visits: bool = False):
    """Ids of lines intersecting the closed query rectangle.

    Descends level by level, visiting every node whose rectangle
    overlaps the window; because sibling rectangles may overlap, a
    line can be reachable through several paths -- the non-disjoint
    decomposition cost the paper contrasts with quadtrees
    (experiment C6 counts ``visits``).
    """
    rect = _rect.validate_rects(np.asarray(rect, dtype=float).reshape(1, 4))[0]
    visits = 1
    top = self.height - 1
    frontier = np.flatnonzero(_rect.overlaps(self.level_mbr[top], rect[None, :]))
    for lvl in range(top, 0, -1):
        cand = gather_csr(*self.adjacency[lvl], frontier)[1]
        hit = _rect.overlaps(self.level_mbr[lvl - 1][cand],
                             np.tile(rect, (cand.size, 1)))
        frontier = cand[hit]
        visits += int(cand.size)
    ids = np.sort(gather_csr(*self.adjacency[0], frontier)[1])
    if ids.size:
        hit = _rect.overlaps(self.entry_bbox[ids], np.tile(rect, (ids.size, 1)))
        ids = ids[hit]
    if exact and ids.size:
        keep = segments_intersect_rects(self.lines[ids], np.tile(rect, (ids.size, 1)))
        ids = ids[keep]
    return (ids, visits) if count_visits else ids


def rtree_point_query(self: RTree, px: float, py: float, exact: bool = True,
                      count_visits: bool = False):
    """Lines whose bounding rectangle (or, with ``exact``, the line
    itself) contains the point."""
    r = np.array([px, py, px, py], dtype=float)
    return rtree_window_query(self, r, exact=exact, count_visits=count_visits)


def quadtree_nearest(tree: Quadtree, px: float, py: float) -> Tuple[int, float]:
    """Best-first nearest-line search over a quadtree decomposition."""
    if tree.lines.shape[0] == 0:
        raise ValueError("empty tree has no nearest line")
    best_id = -1
    best_d = np.inf
    heap = [(0.0, 0)]
    while heap:
        bound, node = heapq.heappop(heap)
        if bound > best_d:
            break  # every remaining block is at least this far
        ch = tree.children[node]
        if ch[0] < 0:
            ids = tree.lines_in_node(node)
            if ids.size:
                d = point_segment_distance(px, py, tree.lines[ids])
                mind = float(d.min())
                cand = int(ids[d == mind].min())  # lowest id on ties
                if mind < best_d or (mind == best_d and cand < best_id):
                    best_d = mind
                    best_id = cand
        else:
            dists = point_rect_distance(px, py, tree.boxes[ch])
            for c, dist in zip(ch, dists):
                if dist <= best_d:
                    heapq.heappush(heap, (float(dist), int(c)))
    if best_id < 0:
        raise ValueError("tree holds no lines")
    return best_id, best_d


def rtree_nearest(tree: RTree, px: float, py: float) -> Tuple[int, float]:
    """Best-first nearest-line search over an R-tree.

    Entries in the heap are ``(lower bound, level, node)``; level -1
    denotes a line entry.  Because sibling rectangles overlap, several
    subtrees can hold candidates at the same bound -- the non-disjoint
    analogue of the extra node visits measured in experiment C6.
    """
    if tree.lines.shape[0] == 0:
        raise ValueError("empty tree has no nearest line")
    top = tree.height - 1
    best_id = -1
    best_d = np.inf
    heap = [(float(point_rect_distance(px, py, tree.level_mbr[top][0][None, :])[0]),
             top, 0)]
    while heap:
        bound, level, node = heapq.heappop(heap)
        if bound > best_d:
            break
        if level == -1:
            d = float(point_segment_distance(px, py, tree.lines[node][None, :])[0])
            if d < best_d or (d == best_d and node < best_id):
                best_d = d
                best_id = node
            continue
        if level == 0:
            ids = tree.lines_in_leaf(node)
            bounds = point_rect_distance(px, py, tree.entry_bbox[ids])
            for lid, b in zip(ids, bounds):
                if b <= best_d:
                    heapq.heappush(heap, (float(b), -1, int(lid)))
        else:
            kids = tree.entries(level, node)
            bounds = point_rect_distance(px, py, tree.level_mbr[level - 1][kids])
            for c, b in zip(kids, bounds):
                if b <= best_d:
                    heapq.heappush(heap, (float(b), level - 1, int(c)))
    if best_id < 0:
        raise ValueError("tree holds no lines")
    return best_id, best_d
