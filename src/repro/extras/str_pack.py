"""Sort-Tile-Recursive (STR) bulk loading for R-trees.

A natural companion to the paper's simultaneous-insertion build: STR
(Leutenegger et al.) packs a static entry set into an R-tree with two
sorts per level -- sort by x, slice into vertical runs of
``ceil(sqrt(n/M))`` tiles, sort each run by y, cut into nodes of ``M``.
It is *also* a data-parallel-friendly algorithm (sorts and segmented
cuts), so it serves as the quality/throughput comparator for the
Section 5.3 build in the split-algorithm benchmarks.

The result reuses :class:`~repro.structures.rtree.RTree`; trailing nodes
may hold fewer than ``m`` entries (packing does not enforce a minimum
fill), so validate with ``check(strict_min_fill=False)``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..geometry import rect as _rect
from ..geometry.segment import validate_segments
from ..machine import Machine, get_machine
from ..structures.rtree import RTree

__all__ = ["build_rtree_str"]


def _pack_level(rects: np.ndarray, M: int, m: Machine) -> np.ndarray:
    """Group rectangles into STR nodes; returns the per-rect node index."""
    n = rects.shape[0]
    nodes_needed = int(np.ceil(n / M))
    slices = int(np.ceil(np.sqrt(nodes_needed)))
    per_slice = slices * M

    cx = 0.5 * (rects[:, 0] + rects[:, 2])
    cy = 0.5 * (rects[:, 1] + rects[:, 3])
    m.record("sort", n)
    by_x = np.argsort(cx, kind="stable")
    slice_id = np.arange(n) // per_slice
    m.record("sort", n)
    order = by_x[np.lexsort((cy[by_x], slice_id))]
    node_of_sorted = np.arange(n) // M
    node = np.empty(n, dtype=np.int64)
    node[order] = node_of_sorted
    return node


def build_rtree_str(lines: np.ndarray, m_fill: int = 2, M: int = 8,
                    machine: Optional[Machine] = None) -> RTree:
    """Bulk-load an R-tree over ``lines`` with Sort-Tile-Recursive packing.

    Two sorts per level, O(log_M n) levels.  Leaves (and internal nodes)
    are packed to exactly ``M`` entries except the trailing ones, giving
    near-minimal node counts and typically less overlap than dynamic
    insertion.
    """
    lines = validate_segments(lines)
    if not 1 <= m_fill <= M // 2:
        raise ValueError("order must satisfy 1 <= m <= M // 2")
    mach = machine or get_machine()
    n = lines.shape[0]
    entry_bbox = _rect.rects_from_segments(lines) if n else np.zeros((0, 4))

    if n == 0:
        return RTree(lines, entry_bbox, np.zeros(0, np.int64),
                     [np.zeros((1, 4))], [], m_fill, M)

    def level_mbrs(child_mbr: np.ndarray, owner: np.ndarray, count: int) -> np.ndarray:
        out = np.empty((count, 4))
        for c in range(4):
            op = np.minimum if c < 2 else np.maximum
            acc = np.full(count, np.inf if c < 2 else -np.inf)
            getattr(np, "minimum" if c < 2 else "maximum").at(acc, owner, child_mbr[:, c])
            out[:, c] = acc
        return out

    line_leaf = _pack_level(entry_bbox, M, mach)
    num_leaves = int(line_leaf.max()) + 1
    level_mbr: List[np.ndarray] = [level_mbrs(entry_bbox, line_leaf, num_leaves)]
    level_parent: List[np.ndarray] = []

    while level_mbr[-1].shape[0] > M:
        cur = level_mbr[-1]
        parent = _pack_level(cur, M, mach)
        count = int(parent.max()) + 1
        level_parent.append(parent)
        level_mbr.append(level_mbrs(cur, parent, count))
    if level_mbr[-1].shape[0] > 1:
        count = level_mbr[-1].shape[0]
        level_parent.append(np.zeros(count, dtype=np.int64))
        level_mbr.append(level_mbrs(level_mbr[-1],
                                    np.zeros(count, dtype=np.int64), 1))

    return RTree(lines, entry_bbox, line_leaf, level_mbr, level_parent,
                 m_fill, M)
