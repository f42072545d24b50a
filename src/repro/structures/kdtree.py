"""Data-parallel k-d tree construction (paper Section 1, [Blel89b]).

The paper's related-work survey notes that scan-model research covered
"the algorithm for building the [k-D-tree] data structure for a
collection of points using the scan model of computation".  This module
realises that build with the same machinery as the spatial structures:
points grouped by node as segments of a linear processor ordering, each
level splitting every active node at its median simultaneously --
a segmented sort (rank) plus an unshuffle per level, O(log n) levels,
O(log**2 n) scan-model steps total (each level pays the sort).

The resulting :class:`KDTree` is a balanced median-split tree over 2-D
points (cycling x/y by depth) supporting nearest-neighbour and
circular-range queries with brute-force-verified answers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..machine import Machine, Segments, get_machine
from ..machine.broadcast import seg_broadcast
from ..machine.sort import seg_rank
from ..primitives.unshuffle import unshuffle
from .build import BuildTrace, RoundStats

__all__ = ["KDTree", "build_kdtree"]


@dataclass
class KDTree:
    """Balanced 2-d tree: implicit heap layout over median splits.

    ``points`` are the input coordinates; ``order`` is the permutation
    that groups them by leaf, and the implicit tree structure is encoded
    by ``splits`` (per internal node: axis and coordinate) plus
    ``node_ranges`` (per node: the slice of ``order`` it owns).
    """

    points: np.ndarray
    order: np.ndarray
    split_axis: np.ndarray       # per node, -1 for leaves
    split_value: np.ndarray
    node_left: np.ndarray        # child indices, -1 for leaves
    node_right: np.ndarray
    node_start: np.ndarray       # range of `order` owned by each node
    node_end: np.ndarray
    leaf_size: int

    @property
    def num_nodes(self) -> int:
        return int(self.split_axis.size)

    @property
    def height(self) -> int:
        depth = 0
        node = 0
        while self.node_left[node] >= 0:
            node = int(self.node_left[node])
            depth += 1
        return depth + 1

    def points_in_node(self, node: int) -> np.ndarray:
        return self.order[self.node_start[node]:self.node_end[node]]

    # -- queries -----------------------------------------------------------

    def nearest(self, px: float, py: float) -> Tuple[int, float]:
        """Nearest input point: best-first search with box lower bounds."""
        if self.points.shape[0] == 0:
            raise ValueError("empty tree has no nearest point")
        best_id = -1
        best_d = np.inf
        # (lower bound, node, box) where box = [x0, y0, x1, y1] open world
        inf = np.inf
        heap = [(0.0, 0, (-inf, -inf, inf, inf))]
        while heap:
            bound, node, box = heapq.heappop(heap)
            if bound > best_d:
                break
            if self.node_left[node] < 0:
                ids = self.points_in_node(node)
                d = np.hypot(self.points[ids, 0] - px, self.points[ids, 1] - py)
                mind = float(d.min())
                cand = int(ids[d == mind].min())
                if mind < best_d or (mind == best_d and cand < best_id):
                    best_d = mind
                    best_id = cand
                continue
            axis = int(self.split_axis[node])
            val = float(self.split_value[node])
            lo_box = list(box)
            hi_box = list(box)
            lo_box[2 + axis] = val
            hi_box[0 + axis] = val
            for child, cbox in ((int(self.node_left[node]), lo_box),
                                (int(self.node_right[node]), hi_box)):
                dx = max(cbox[0] - px, px - cbox[2], 0.0)
                dy = max(cbox[1] - py, py - cbox[3], 0.0)
                b = float(np.hypot(dx, dy))
                if b <= best_d:
                    heapq.heappush(heap, (b, child, tuple(cbox)))
        return best_id, best_d

    def range_query(self, px: float, py: float, radius: float) -> np.ndarray:
        """Ids of points within ``radius`` of the query point."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        out = []
        inf = np.inf
        stack = [(0, (-inf, -inf, inf, inf))]
        while stack:
            node, box = stack.pop()
            dx = max(box[0] - px, px - box[2], 0.0)
            dy = max(box[1] - py, py - box[3], 0.0)
            if np.hypot(dx, dy) > radius:
                continue
            if self.node_left[node] < 0:
                ids = self.points_in_node(node)
                d = np.hypot(self.points[ids, 0] - px, self.points[ids, 1] - py)
                out.append(ids[d <= radius])
                continue
            axis = int(self.split_axis[node])
            val = float(self.split_value[node])
            lo_box = list(box)
            hi_box = list(box)
            lo_box[2 + axis] = val
            hi_box[0 + axis] = val
            stack.append((int(self.node_left[node]), tuple(lo_box)))
            stack.append((int(self.node_right[node]), tuple(hi_box)))
        return np.sort(np.concatenate(out)) if out else np.zeros(0, dtype=np.int64)

    def check(self) -> None:
        """Validate the median-split and balance invariants."""
        for node in range(self.num_nodes):
            l, r = int(self.node_left[node]), int(self.node_right[node])
            if l < 0:
                assert self.node_end[node] - self.node_start[node] <= self.leaf_size
                continue
            axis = int(self.split_axis[node])
            val = self.split_value[node]
            left_pts = self.points[self.points_in_node(l)]
            right_pts = self.points[self.points_in_node(r)]
            assert np.all(left_pts[:, axis] <= val + 1e-12)
            assert np.all(right_pts[:, axis] >= val - 1e-12)
            nl = left_pts.shape[0]
            nr = right_pts.shape[0]
            assert abs(nl - nr) <= 1, "median split must balance"
            assert self.node_start[l] == self.node_start[node]
            assert self.node_end[r] == self.node_end[node]
            assert self.node_end[l] == self.node_start[r]


def build_kdtree(points: np.ndarray, leaf_size: int = 4,
                 machine: Optional[Machine] = None) -> tuple[KDTree, BuildTrace]:
    """Data-parallel median-split k-d tree over 2-D points.

    Every level splits all active nodes simultaneously: one segmented
    rank (a sort) decides each point's side of its node's median, one
    unshuffle regroups -- the [Blel89b] pattern.  O(log n) levels.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size and points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if leaf_size < 1:
        raise ValueError("leaf_size must be at least 1")
    m = machine or get_machine()
    n = points.shape[0]

    # node table, structure-of-arrays: every split leaves two non-empty
    # halves, so there are fewer than 2n nodes
    cap = max(2 * n, 1)
    split_axis = np.full(cap, -1, dtype=np.int64)
    split_value = np.full(cap, np.nan)
    node_left = np.full(cap, -1, dtype=np.int64)
    node_right = np.full(cap, -1, dtype=np.int64)
    node_start = np.zeros(cap, dtype=np.int64)
    node_end = np.zeros(cap, dtype=np.int64)
    node_end[0] = n
    num_nodes = 1

    trace = BuildTrace()
    if n == 0:
        return KDTree(points, np.zeros(0, np.int64), split_axis, split_value,
                      node_left, node_right, node_start, node_end, leaf_size), trace

    order = np.arange(n, dtype=np.int64)
    segments = Segments.single(n)
    seg_node = np.array([0], dtype=np.int64)
    depth = 0
    while True:
        lengths = segments.lengths
        active = lengths > leaf_size
        if not active.any():
            break
        steps_before = m.steps
        with m.phase(f"level{depth}"):
            axis = depth % 2
            coords = points[order, axis]
            ranks = seg_rank(coords, segments, machine=m)
            by_rank = np.empty(n)
            by_rank[ranks] = coords        # rank-space view: per-segment sorted
            offsets = ranks - segments.heads[segments.ids]
            half = seg_broadcast(lengths - lengths // 2, segments, machine=m)
            active_b = seg_broadcast(active, segments, machine=m).astype(bool)
            m.record("elementwise", n)
            side = (offsets >= half) & active_b
            res = unshuffle(side, order, segments=segments, machine=m)
            order = res.arrays[0]
            moved_side = np.empty(n, dtype=bool)
            moved_side[res.destination] = side
            segments_new = Segments.from_ids(segments.ids * 2 + moved_side)

        # node bookkeeping: the rank-th active node (exclusive +-scan of
        # ``active``) gains children ``num_nodes + 2 * rank`` and ``+ 1``
        act = np.flatnonzero(active)
        parents = seg_node[act]
        left = num_nodes + 2 * np.arange(act.size, dtype=np.int64)
        num_nodes += 2 * act.size
        cut = lengths[act] - lengths[act] // 2      # left gets the larger half
        split_axis[parents] = axis
        # the median: largest coordinate of the left (lower-rank) half
        split_value[parents] = by_rank[segments.heads[act] + cut - 1]
        node_left[parents], node_right[parents] = left, left + 1

        heads = segments_new.heads
        parent_seg = segments.ids[heads]
        split = active[parent_seg]
        rank = np.cumsum(active) - active
        new_seg_node = seg_node[parent_seg]
        new_seg_node[split] = left[rank[parent_seg[split]]] + moved_side[heads[split]]
        node_start[new_seg_node[split]] = heads[split]
        node_end[new_seg_node[split]] = segments_new.ends[split]

        segments = segments_new
        seg_node = new_seg_node
        trace.rounds.append(RoundStats(depth, int(active.sum()), n,
                                       steps_before, m.steps))
        depth += 1
        if depth > 2 * (int(np.log2(n)) + 2) + 4:
            raise RuntimeError("k-d tree build failed to terminate")

    return KDTree(points, order, *(a[:num_nodes].copy() for a in (
        split_axis, split_value, node_left, node_right, node_start, node_end)),
        leaf_size), trace
