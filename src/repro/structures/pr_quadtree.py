"""Data-parallel PR quadtree construction (paper Section 1, [Best92]).

The related-work survey credits Bestul with data-parallel algorithms
"for building and manipulating ... PR quadtrees" -- the point-record
member of the quadtree family [Oren82, Ande83].  A (bucket) PR quadtree
subdivides space until every leaf holds at most ``capacity`` points
(classically one).

The build is a simplified two-stage node split: points obey **half-open
membership**, so -- unlike line segments -- they are never cloned; each
round is a capacity check, one unshuffle per stage, and the same node
bookkeeping as the line quadtrees.  Shape is trivially order-independent.

Coincident points can never be separated, so as with the bucket PMR the
subdivision is capped at the maximal resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry.generators import check_power_of_two
from ..geometry.rect import contains_point_halfopen, overlaps, validate_rects
from ..machine import Machine, Segments, get_machine
from ..machine.broadcast import seg_broadcast
from ..primitives.capacity import overflowing_nodes
from ..primitives.unshuffle import unshuffle
from .build import BuildTrace, RoundStats
from .quadblock import NodeTable

__all__ = ["PRQuadtree", "build_pr_quadtree"]


@dataclass
class PRQuadtree:
    """A finished PR quadtree: disjoint blocks, each holding few points.

    The layout mirrors :class:`~repro.structures.quadblock.Quadtree`
    with points instead of q-edges; since membership is half-open, every
    point lives in exactly one leaf (no replication).
    """

    points: np.ndarray
    boxes: np.ndarray
    level: np.ndarray
    parent: np.ndarray
    children: np.ndarray
    node_ptr: np.ndarray
    node_points: np.ndarray
    domain: float
    max_depth: int

    @property
    def num_nodes(self) -> int:
        return int(self.boxes.shape[0])

    @property
    def is_leaf(self) -> np.ndarray:
        return self.children[:, 0] < 0

    @property
    def num_leaves(self) -> int:
        return int(np.count_nonzero(self.is_leaf))

    @property
    def height(self) -> int:
        return int(self.level.max(initial=0))

    def points_in_node(self, node: int) -> np.ndarray:
        return self.node_points[self.node_ptr[node]:self.node_ptr[node + 1]]

    def find_leaf(self, px: float, py: float) -> int:
        hits = contains_point_halfopen(self.boxes, px, py, self.domain) & self.is_leaf
        idx = np.flatnonzero(hits)
        if idx.size != 1:
            raise ValueError(f"point ({px}, {py}) outside the domain")
        return int(idx[0])

    def window_query(self, rect) -> np.ndarray:
        """Ids of points inside the closed query rectangle."""
        rect = validate_rects(np.asarray(rect, dtype=float).reshape(1, 4))[0]
        stack = [0]
        out = []
        while stack:
            node = stack.pop()
            if not overlaps(self.boxes[node][None, :], rect[None, :])[0]:
                continue
            ch = self.children[node]
            if ch[0] < 0:
                ids = self.points_in_node(node)
                if ids.size:
                    p = self.points[ids]
                    inside = ((rect[0] <= p[:, 0]) & (p[:, 0] <= rect[2]) &
                              (rect[1] <= p[:, 1]) & (p[:, 1] <= rect[3]))
                    out.append(ids[inside])
            else:
                stack.extend(int(c) for c in ch)
        return np.sort(np.concatenate(out)) if out else np.zeros(0, np.int64)

    def check(self, capacity: int) -> None:
        """Validate disjoint point assignment and the capacity rule."""
        n = self.points.shape[0]
        counted = np.zeros(n, dtype=np.int64)
        for leaf in np.flatnonzero(self.is_leaf):
            ids = self.points_in_node(int(leaf))
            counted[ids] += 1
            box = self.boxes[leaf]
            inside = contains_point_halfopen(
                np.tile(box, (ids.size, 1)), self.points[ids, 0],
                self.points[ids, 1], self.domain)
            assert inside.all(), f"leaf {leaf} holds a point outside its block"
            if self.level[leaf] < self.max_depth:
                assert ids.size <= capacity, f"leaf {leaf} over capacity"
        assert np.all(counted == 1), "points must belong to exactly one leaf"

    def decomposition_key(self) -> list:
        out = []
        for leaf in np.flatnonzero(self.is_leaf):
            ids = self.points_in_node(int(leaf))
            out.append((tuple(self.boxes[leaf].tolist()),
                        tuple(sorted(ids.tolist()))))
        out.sort()
        return out


def build_pr_quadtree(points: np.ndarray, domain: int, capacity: int = 1,
                      max_depth: Optional[int] = None,
                      machine: Optional[Machine] = None
                      ) -> tuple[PRQuadtree, BuildTrace]:
    """Build the (bucket) PR quadtree of 2-D points over ``domain``.

    Each round all overflowing blocks split simultaneously; points pick
    their quadrant with two elementwise comparisons and regroup with two
    unshuffles (no cloning -- half-open membership is disjoint).
    """
    domain = check_power_of_two(domain)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size and points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if points.size and (points.min() < 0 or points.max() > domain):
        raise ValueError("points must lie inside [0, domain]^2")
    depth_cap = int(np.log2(domain)) if max_depth is None else int(max_depth)

    m = machine or get_machine()
    table = NodeTable(domain)
    n = points.shape[0]
    trace = BuildTrace()
    pid = np.arange(n, dtype=np.int64)
    pts = points.copy()
    segments = Segments.single(n)
    seg_node = np.zeros(segments.nseg, dtype=np.int64)
    round_index = 0
    while n:        # no points: the lone root, no rounds
        node_levels = table.level[seg_node]
        over = overflowing_nodes(segments, capacity, machine=m)
        split_flags = over & (node_levels < depth_cap)
        if not split_flags.any():
            break
        steps_before = m.steps
        with m.phase(f"round{round_index}"):
            node_boxes = table.boxes[seg_node]
            boxes_b = seg_broadcast(node_boxes, segments, machine=m)
            splitting = seg_broadcast(split_flags, segments, machine=m).astype(bool)
            cy = 0.5 * (boxes_b[:, 1] + boxes_b[:, 3])
            cx = 0.5 * (boxes_b[:, 0] + boxes_b[:, 2])
            m.record("elementwise", n)

            side1 = (pts[:, 1] >= cy) & splitting
            m.record("elementwise", n)
            pts, pid, cx, splitting, side1 = unshuffle(
                side1, pts, pid, cx, splitting, side1,
                segments=segments, machine=m).arrays
            seg1 = Segments.from_ids(segments.ids * 2 + side1)

            side2 = (pts[:, 0] >= cx) & splitting
            m.record("elementwise", n)
            pts, pid, side1, side2 = unshuffle(
                side2, pts, pid, side1, side2, segments=seg1, machine=m).arrays
            seg2 = Segments.from_ids(seg1.ids * 2 + side2)

        # node-table update, mirroring the line builders.  Positions never
        # leave their original segment during an unshuffle, so the old
        # positional ids still name each element's parent segment.
        heads = seg2.heads
        seg_node = table.descend(seg_node, split_flags, segments.ids[heads],
                                 2 * side1[heads].astype(np.int64) + side2[heads])
        segments = seg2
        trace.rounds.append(RoundStats(round_index, int(split_flags.sum()), n,
                                       steps_before, m.steps))
        round_index += 1
        if round_index > depth_cap + 1:
            raise RuntimeError("PR build failed to terminate within the depth cap")

    node_ptr, node_points = table.assign(seg_node, segments.lengths, pid)
    tree = PRQuadtree(points, *table.freeze(), node_ptr, node_points,
                      float(domain), depth_cap)
    return tree, trace
