"""Spatial join of two line maps (paper Section 6's cited application).

The conclusion notes the Section 4 primitives "have been used in the
implementation of other data-parallel spatial operations such as
polygonization and spatial join [Hoel93, Hoel94a, Hoel94b]".  This
module provides the join -- all pairs ``(i, j)`` with line ``i`` of map
A intersecting line ``j`` of map B -- through each of the built
structures, plus the brute-force oracle:

* :func:`quadtree_join` -- simultaneous descent of two quadtrees over
  the same space.  Regular decomposition means any two overlapping
  blocks are ancestor/descendant (or equal), so the traversal is the
  aligned-grid join the bucket PMR was chosen for.
* :func:`rtree_join` -- MBR-guided node-pair descent of two R-trees;
  non-disjointness shows up as repeated candidate pairs that must be
  deduplicated.
* :func:`brute_join` -- exact all-pairs oracle.

All candidate pairs are verified with the exact segment-segment
intersection predicate, and results are returned as a sorted, unique
``(k, 2)`` index array.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..geometry.rect import overlaps
from ..geometry.segment import segments_intersect_segments, validate_segments
from .quadblock import Quadtree
from .rtree import RTree

__all__ = ["brute_join", "quadtree_join", "rtree_join", "overlay_points"]


def overlay_points(a: np.ndarray, b: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Intersection geometry of joined pairs (the overlay's node set).

    Given the ``(k, 2)`` pair index array returned by any join, compute
    the ``(k, 2)`` crossing coordinates: the unique intersection point
    for properly crossing pairs, the touch point for endpoint contacts,
    and the midpoint of the shared extent for collinear overlaps (which
    have no unique point).
    """
    from ..geometry.distance import segment_intersection_points

    a = validate_segments(a, "a")
    b = validate_segments(b, "b")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        return np.zeros((0, 2))
    return segment_intersection_points(a[pairs[:, 0]], b[pairs[:, 1]])


def _verify_pairs(a: np.ndarray, b: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Exact-test candidate index pairs and return them sorted & unique."""
    if ii.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    keys = ii.astype(np.int64) * (b.shape[0] + 1) + jj
    uniq = np.unique(keys)
    ii = uniq // (b.shape[0] + 1)
    jj = uniq % (b.shape[0] + 1)
    hit = segments_intersect_segments(a[ii], b[jj])
    out = np.column_stack([ii[hit], jj[hit]])
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def brute_join(a: np.ndarray, b: np.ndarray, block: int = 512) -> np.ndarray:
    """All intersecting pairs by exhaustive testing (blocked to bound memory)."""
    a = validate_segments(a, "a")
    b = validate_segments(b, "b")
    rows: List[np.ndarray] = []
    for start in range(0, a.shape[0], block):
        chunk = a[start:start + block]
        na = chunk.shape[0]
        ii = np.repeat(np.arange(na), b.shape[0])
        jj = np.tile(np.arange(b.shape[0]), na)
        hit = segments_intersect_segments(chunk[ii], b[jj])
        if hit.any():
            rows.append(np.column_stack([ii[hit] + start, jj[hit]]))
    if not rows:
        return np.zeros((0, 2), dtype=np.int64)
    out = np.concatenate(rows).astype(np.int64)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def quadtree_join(ta: Quadtree, tb: Quadtree) -> np.ndarray:
    """Join two quadtrees by simultaneous traversal of aligned blocks."""
    if ta.domain != tb.domain:
        raise ValueError("joined quadtrees must share a domain")
    pairs_i: List[np.ndarray] = []
    pairs_j: List[np.ndarray] = []
    stack = [(0, 0)]
    while stack:
        na, nb = stack.pop()
        if not overlaps(ta.boxes[na][None, :], tb.boxes[nb][None, :])[0]:
            continue
        a_leaf = ta.children[na, 0] < 0
        b_leaf = tb.children[nb, 0] < 0
        if a_leaf and b_leaf:
            ia = ta.lines_in_node(na)
            jb = tb.lines_in_node(nb)
            if ia.size and jb.size:
                pairs_i.append(np.repeat(ia, jb.size))
                pairs_j.append(np.tile(jb, ia.size))
        elif a_leaf or (not b_leaf and ta.level[na] > tb.level[nb]):
            stack.extend((na, int(c)) for c in tb.children[nb])
        else:
            stack.extend((int(c), nb) for c in ta.children[na])
    ii = np.concatenate(pairs_i) if pairs_i else np.zeros(0, dtype=np.int64)
    jj = np.concatenate(pairs_j) if pairs_j else np.zeros(0, dtype=np.int64)
    return _verify_pairs(ta.lines, tb.lines, ii, jj)


def rtree_join(ta: RTree, tb: RTree) -> np.ndarray:
    """Join two R-trees by synchronized MBR-guided descent."""
    if ta.lines.size == 0 or tb.lines.size == 0:
        return np.zeros((0, 2), dtype=np.int64)

    pairs_i: List[np.ndarray] = []
    pairs_j: List[np.ndarray] = []
    stack = [(ta.height - 1, 0, tb.height - 1, 0)]
    while stack:
        la, na, lb, nb = stack.pop()
        if not overlaps(ta.level_mbr[la][na][None, :], tb.level_mbr[lb][nb][None, :])[0]:
            continue
        if la == 0 and lb == 0:
            ia = ta.lines_in_leaf(na)
            jb = tb.lines_in_leaf(nb)
            bb_hit = overlaps(
                ta.entry_bbox[np.repeat(ia, jb.size)],
                tb.entry_bbox[np.tile(jb, ia.size)])
            ii = np.repeat(ia, jb.size)[bb_hit]
            jj = np.tile(jb, ia.size)[bb_hit]
            if ii.size:
                pairs_i.append(ii)
                pairs_j.append(jj)
        elif la == 0 or (lb != 0 and lb >= la):
            for c in tb.entries(lb, nb):
                stack.append((la, na, lb - 1, int(c)))
        else:
            for c in ta.entries(la, na):
                stack.append((la - 1, int(c), lb, nb))
    ii = np.concatenate(pairs_i) if pairs_i else np.zeros(0, dtype=np.int64)
    jj = np.concatenate(pairs_j) if pairs_j else np.zeros(0, dtype=np.int64)
    return _verify_pairs(ta.lines, tb.lines, ii, jj)
