"""Nearest-line queries over the built structures.

A natural extension of the paper's query repertoire: given a point,
find the closest line segment.  Both tree families support the
classic branch-and-bound search -- blocks (or bounding rectangles)
farther away than the best line found so far cannot contain a closer
one, so whole subtrees prune on the point-to-rectangle lower bound.

The brute-force oracle scans every line; the structures must return
exactly the same answer (ties broken by lowest line id).
"""

from __future__ import annotations

import heapq
from typing import Tuple

import numpy as np

from ..geometry.distance import point_rect_distance, point_segment_distance
from .quadblock import Quadtree
from .rtree import RTree

__all__ = ["brute_nearest", "quadtree_nearest", "rtree_nearest"]


def brute_nearest(lines: np.ndarray, px: float, py: float) -> Tuple[int, float]:
    """Exhaustive nearest line; returns ``(line_id, distance)``."""
    lines = np.atleast_2d(np.asarray(lines, dtype=float))
    if lines.shape[0] == 0:
        raise ValueError("empty line set has no nearest line")
    d = point_segment_distance(px, py, lines)
    best = int(np.argmin(d))  # argmin takes the first == lowest id on ties
    return best, float(d[best])


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
