"""Sequential PMR quadtrees (paper Sections 2.2 and 5.2, Figures 3, 34).

Two variants live here:

* :class:`PMRQuadtree` -- the classic **split-once** PMR quadtree of
  Nelson & Samet.  A line is inserted into every leaf it intersects;
  each leaf pushed past the splitting threshold splits once (and only
  once).  The resulting shape depends on insertion order -- the
  nondeterminism Figure 34 demonstrates and the reason the paper's
  data-parallel build switches to the bucket rule.  Deletion merges a
  block with its siblings when their combined occupancy falls below the
  threshold, recursively (the asymmetric rule of Section 2.2).
* :func:`seq_bucket_pmr_decomposition` -- the order-independent bucket
  PMR reference: recursive subdivision while occupancy exceeds the
  bucket capacity, capped at the maximal depth.  The data-parallel
  build of Section 5.2 must match it exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..geometry.generators import check_power_of_two
from ..geometry.rect import child_boxes
from ..geometry.segment import validate_segments

__all__ = ["PMRQuadtree", "seq_bucket_pmr_decomposition"]


class _Node:
    __slots__ = ("box", "depth", "children", "lines")

    def __init__(self, box: np.ndarray, depth: int):
        self.box = box
        self.depth = depth
        self.children: Optional[List["_Node"]] = None
        self.lines: Dict[int, np.ndarray] = {}

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class PMRQuadtree:
    """Classic split-once PMR quadtree with insertion and deletion.

    Parameters
    ----------
    domain:
        Side of the square space (a power of two).
    threshold:
        Splitting threshold: a leaf exceeding it at insertion time
        splits once.
    max_depth:
        Maximal height; defaults to the 1x1-block resolution.
    """

    def __init__(self, domain: int, threshold: int, max_depth: Optional[int] = None):
        self.domain = check_power_of_two(domain)
        if threshold < 1:
            raise ValueError("splitting threshold must be at least 1")
        self.threshold = int(threshold)
        self.max_depth = (int(np.log2(self.domain)) if max_depth is None
                          else int(max_depth))
        self.root = _Node(np.array([0.0, 0.0, float(self.domain), float(self.domain)]), 0)
        self._geometry: Dict[int, np.ndarray] = {}

    # -- mutation ---------------------------------------------------------

    def insert(self, segment, line_id: int) -> None:
        """Insert one line into every intersecting leaf, splitting once
        any leaf the insertion pushes over the threshold."""
        seg = validate_segments(np.asarray(segment, float).reshape(1, 4))[0]
        if line_id in self._geometry:
            raise KeyError(f"line id {line_id} already present")
        self._geometry[line_id] = seg
        affected: List[_Node] = []
        self._collect_leaves(self.root, seg, affected)
        for leaf in affected:
            leaf.lines[line_id] = seg
            if len(leaf.lines) > self.threshold and leaf.depth < self.max_depth:
                self._split_once(leaf)

    def delete(self, line_id: int) -> None:
        """Remove a line; merge sibling groups whose combined occupancy
        drops below the threshold, recursively."""
        if line_id not in self._geometry:
            raise KeyError(f"line id {line_id} not present")
        seg = self._geometry.pop(line_id)
        parents: List[_Node] = []
        self._delete_from(self.root, seg, line_id, parents)
        # merge bottom-up: deepest parents first
        for node in sorted(parents, key=lambda nd: -nd.depth):
            self._try_merge(node)

    def _collect_leaves(self, node: _Node, seg: np.ndarray, out: List[_Node]) -> None:
        if not segments_intersect_rects(seg[None, :], node.box[None, :])[0]:
            return
        if node.is_leaf:
            out.append(node)
        else:
            for ch in node.children:
                self._collect_leaves(ch, seg, out)

    def _split_once(self, leaf: _Node) -> None:
        leaf.children = [_Node(b, leaf.depth + 1) for b in child_boxes(leaf.box)]
        moved = leaf.lines
        leaf.lines = {}
        for lid, seg in moved.items():
            for ch in leaf.children:
                if segments_intersect_rects(seg[None, :], ch.box[None, :])[0]:
                    ch.lines[lid] = seg

    def _delete_from(self, node: _Node, seg: np.ndarray, line_id: int,
                     parents: List[_Node]) -> None:
        if not segments_intersect_rects(seg[None, :], node.box[None, :])[0]:
            return
        if node.is_leaf:
            node.lines.pop(line_id, None)
        else:
            for ch in node.children:
                self._delete_from(ch, seg, line_id, parents)
            if all(ch.is_leaf for ch in node.children):
                parents.append(node)

    def _try_merge(self, node: _Node) -> None:
        while True:
            if node.children is None or not all(ch.is_leaf for ch in node.children):
                return
            distinct: Dict[int, np.ndarray] = {}
            for ch in node.children:
                distinct.update(ch.lines)
            if len(distinct) >= self.threshold:
                return
            node.children = None
            node.lines = distinct
            parent = self._find_parent(self.root, node)
            if parent is None:
                return
            node = parent

    def _find_parent(self, cur: _Node, target: _Node) -> Optional[_Node]:
        if cur.is_leaf:
            return None
        for ch in cur.children:
            if ch is target:
                return cur
            found = self._find_parent(ch, target)
            if found is not None:
                return found
        return None

    # -- inspection ---------------------------------------------------------

    def leaves(self) -> List[_Node]:
        out: List[_Node] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(node.children)
        return out

    @property
    def num_nodes(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def decomposition_key(self) -> list[tuple[tuple, tuple]]:
        """Sorted ``(box, line ids)`` list, comparable across builds."""
        out = [(tuple(leaf.box.tolist()), tuple(sorted(leaf.lines)))
               for leaf in self.leaves()]
        out.sort()
        return out


def seq_bucket_pmr_decomposition(lines: np.ndarray, domain: int, capacity: int,
                                 max_depth: Optional[int] = None
                                 ) -> list[tuple[tuple, tuple]]:
    """Order-independent bucket PMR reference decomposition.

    Directly comparable with
    :meth:`repro.structures.Quadtree.decomposition_key` of the
    data-parallel build (they must be identical).
    """
    domain = check_power_of_two(domain)
    lines = validate_segments(lines)
    if capacity < 1:
        raise ValueError("bucket capacity must be at least 1")
    depth_cap = int(np.log2(domain)) if max_depth is None else int(max_depth)

    out: List[Tuple[tuple, tuple]] = []

    def recurse(box: np.ndarray, ids: np.ndarray, depth: int) -> None:
        if ids.size > capacity and depth < depth_cap:
            for child in child_boxes(box):
                inside = segments_intersect_rects(
                    lines[ids], np.tile(child, (ids.size, 1))) if ids.size else \
                    np.zeros(0, dtype=bool)
                recurse(child, ids[inside], depth + 1)
        else:
            out.append((tuple(box.tolist()), tuple(sorted(ids.tolist()))))

    root = np.array([0.0, 0.0, float(domain), float(domain)])
    recurse(root, np.arange(lines.shape[0], dtype=np.int64), 0)
    out.sort()
    return out
