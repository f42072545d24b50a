"""Quadtree block bookkeeping and the assembled quadtree structure.

The data-parallel builders (Sections 5.1-5.2) work on two coupled
collections: the **line processor vector** (segmented by node) and the
**node table** (one record per quadtree block, including the empty
leaves that hold no segment group).  This module owns the node table and
the finished :class:`Quadtree` the builders hand back.

Child order is ``SW, SE, NW, NE`` (DESIGN.md Section 5), matching the
two-stage split's y-then-x partitioning; levels count from 0 at the
root, and a tree of maximal height ``H`` over domain ``2**H`` bottoms
out at 1x1 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..geometry.rect import child_boxes, contains_point_halfopen
from .batch import NEAREST, POINT, WINDOW, one_probe
from .csr import cell_table

__all__ = ["NodeTable", "Quadtree", "CHILD_NAMES", "child_box", "child_boxes"]

CHILD_NAMES = ("SW", "SE", "NW", "NE")


def child_box(box: np.ndarray, code: int) -> np.ndarray:
    """Box of child ``code`` (0=SW, 1=SE, 2=NW, 3=NE) of ``box``."""
    return child_boxes(box)[code]


class NodeTable:
    """Structure-of-arrays table of quadtree blocks, grown during a build.

    Append-only: the root exists from the start and :meth:`split_many`
    adds all four children of every block it is given (empty ones
    included, as the paper's Figure 2 discussion of empty-node
    proliferation requires us to count them).  Child ``code`` of the
    ``rank``-th block of a call gets id ``len + 4 * rank + code`` -- the
    scan model's allocation idiom: ``rank`` is the exclusive +-scan of
    the round's split flags.  The table is host-side bookkeeping and is
    not charged to the :class:`~repro.machine.Machine` (DESIGN.md
    Section 3).
    """

    def __init__(self, domain: float):
        self.domain = float(domain)
        self.boxes = np.array([[0.0, 0.0, self.domain, self.domain]])
        self.level = np.zeros(1, dtype=np.int64)
        self.parent = np.full(1, -1, dtype=np.int64)
        self.children = np.full((1, 4), -1, dtype=np.int64)

    @classmethod
    def of(cls, tree: "Quadtree") -> "NodeTable":
        """A growable table holding a finished tree's blocks."""
        table = cls(tree.domain)
        table.boxes, table.level, table.parent = tree.boxes, tree.level, tree.parent
        table.children = tree.children.copy()   # the one array edited in place
        return table

    def __len__(self) -> int:
        return int(self.boxes.shape[0])

    def split_many(self, nodes: np.ndarray) -> np.ndarray:
        """Create the children of all ``nodes``; returns their ids, ``(k, 4)``."""
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        k = nodes.size
        again = np.ones(k, dtype=bool)      # a repeat within the call counts too
        again[np.unique(nodes, return_index=True)[1]] = False
        again |= self.children[nodes, 0] >= 0
        if again.any():
            raise ValueError(f"node {int(nodes[again][0])} already split")
        ids = len(self) + np.arange(4 * k, dtype=np.int64).reshape(k, 4)
        self.children[nodes] = ids
        self.boxes = np.concatenate([self.boxes, child_boxes(self.boxes[nodes]).reshape(-1, 4)])
        self.level = np.concatenate([self.level, np.repeat(self.level[nodes] + 1, 4)])
        self.parent = np.concatenate([self.parent, np.repeat(nodes, 4)])
        self.children = np.concatenate([self.children, np.full((4 * k, 4), -1, dtype=np.int64)])
        return ids

    def descend(self, seg_node: np.ndarray, split_flags: np.ndarray,
                parent_seg: np.ndarray, child_code: np.ndarray) -> np.ndarray:
        """Split the flagged segments' nodes; node id of every new segment.

        ``seg_node`` / ``split_flags`` are per old segment; ``parent_seg``
        and ``child_code`` say, per new segment, which old segment it
        came from and which quadrant it is (ignored where the parent did
        not split: such a segment keeps its node).
        """
        kids = self.split_many(seg_node[split_flags])
        rank = np.cumsum(split_flags) - split_flags     # exclusive +-scan
        new_seg_node = seg_node[parent_seg]
        moved = split_flags[parent_seg]
        new_seg_node[moved] = kids[rank[parent_seg[moved]], child_code[moved]]
        return new_seg_node

    def freeze(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return dense arrays ``(boxes, level, parent, children)``."""
        return self.boxes, self.level, self.parent, self.children

    def assign(self, seg_node: np.ndarray, segment_lengths: np.ndarray,
               items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(node_ptr, node_items)`` of segmented ``items`` over all nodes.

        Segment ``s`` (``segment_lengths[s]`` consecutive items) belongs
        to node ``seg_node[s]``; nodes without a segment get empty rows.
        """
        counts = np.zeros(len(self), dtype=np.int64)
        counts[seg_node] = segment_lengths
        node_ptr = np.concatenate(([0], np.cumsum(counts)))
        order = np.argsort(np.repeat(seg_node, segment_lengths), kind="stable")
        return node_ptr, items[order]


@dataclass
class Quadtree:
    """A finished quadtree decomposition with its q-edge assignment.

    Shared by the PM1 and bucket PMR builders; the two differ only in
    the splitting rule that produced the decomposition.

    Attributes
    ----------
    lines:
        ``(n0, 4)`` original input segments (never cloned copies).
    boxes, level, parent, children:
        Node table arrays; ``children[i]`` is ``-1`` for leaves.
    node_ptr, node_lines:
        CSR mapping from node index to the ids of the lines whose
        q-edges it stores (non-empty only at leaves).
    domain, max_depth:
        Space side and subdivision cap used by the build.
    """

    lines: np.ndarray
    boxes: np.ndarray
    level: np.ndarray
    parent: np.ndarray
    children: np.ndarray
    node_ptr: np.ndarray
    node_lines: np.ndarray
    domain: float
    max_depth: int

    # -- structure metrics -------------------------------------------------

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
    def num_empty_leaves(self) -> int:
        counts = np.diff(self.node_ptr)
        return int(np.count_nonzero(self.is_leaf & (counts == 0)))

    @property
    def height(self) -> int:
        return int(self.level.max(initial=0))

    @property
    def q_edge_count(self) -> int:
        """Total q-edges (line copies across leaves)."""
        return int(self.node_lines.size)

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.is_leaf)

    def lines_in_node(self, node: int) -> np.ndarray:
        return self.node_lines[self.node_ptr[node]:self.node_ptr[node + 1]]

    @cached_property
    def cells(self):
        """The nearest probes' cell table (:func:`~.csr.cell_table`),
        derived on first use and kept on the object (not a dataclass
        field: io and the store never write it; recomputing it yields
        the same arrays)."""
        return cell_table(self.lines)

    def leaf_items(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(leaf_id, line_ids)`` pairs."""
        for leaf in self.leaf_ids():
            yield int(leaf), self.lines_in_node(int(leaf))

    def decomposition_key(self) -> list[tuple[tuple, tuple]]:
        """Canonical ``(box, sorted line ids)`` list for shape comparison.

        Two builds of the same map are identical iff their keys match --
        the order-independence oracle for PM1 and bucket PMR.
        """
        out = []
        for leaf, ids in self.leaf_items():
            out.append((tuple(self.boxes[leaf].tolist()), tuple(sorted(ids.tolist()))))
        out.sort()
        return out

    # -- queries -------------------------------------------------------------

    def find_leaf(self, px: float, py: float) -> int:
        """Leaf block containing point ``(px, py)`` (half-open membership)."""
        hits = contains_point_halfopen(self.boxes, px, py, self.domain) & self.is_leaf
        idx = np.flatnonzero(hits)
        if idx.size != 1:
            raise ValueError(f"point ({px}, {py}) lies in {idx.size} leaves; "
                             "outside the domain?")
        return int(idx[0])

    def point_query(self, px: float, py: float) -> np.ndarray:
        """Ids of lines whose q-edge shares the leaf containing the point
        (half-open block membership, as in :meth:`find_leaf`): the
        quadtree's filter point, a one-probe wave.  Raises
        :class:`ValueError` for a point outside the domain."""
        if not contains_point_halfopen(self.boxes[:1], px, py, self.domain)[0]:
            raise ValueError(f"point ({px}, {py}) lies outside the domain")
        return one_probe(self, POINT, (px, py), exact=False)

    def window_query(self, rect, exact: bool = True,
                     count_visits: bool = False):
        """Ids of lines intersecting the closed query rectangle.

        A one-probe wave: blocks disjoint from the window are pruned
        level by level; candidate lines from reached leaves are
        optionally verified with the exact segment-rectangle test.  With
        ``count_visits`` the number of visited nodes is returned too
        (experiment C6's metric).
        """
        return one_probe(self, WINDOW, rect, exact, count_visits)

    def nearest(self, px: float, py: float) -> tuple[int, float]:
        """Closest line to the point, ties to the lowest id: a one-probe
        wave."""
        return one_probe(self, NEAREST, (px, py))

    # -- validation and rendering ---------------------------------------------

    def check(self, full: bool = False) -> None:
        """Raise AssertionError on any structural invariant violation.

        Always checked: geometry of the hierarchy and CSR integrity.
        With ``full`` (O(leaves x lines)): the q-edge assignment is
        exactly "every line is stored in every leaf its closed block
        intersects".
        """
        k = self.num_nodes
        assert self.node_ptr.shape == (k + 1,)
        assert self.node_ptr[0] == 0 and self.node_ptr[-1] == self.node_lines.size
        assert np.all(np.diff(self.node_ptr) >= 0)
        internal = np.flatnonzero(~self.is_leaf)
        kids = self.children[internal]
        assert not np.diff(self.node_ptr)[internal].any(), "an internal node holds lines"
        assert np.all(self.parent[kids] == internal[:, None])
        assert np.all(self.level[kids] == self.level[internal, None] + 1)
        np.testing.assert_allclose(self.boxes[kids], child_boxes(self.boxes[internal]))
        assert np.all(self.level <= self.max_depth)
        if full and self.lines.size:
            n = self.lines.shape[0]
            for leaf in self.leaf_ids():
                box = np.tile(self.boxes[leaf], (n, 1))
                expected = np.flatnonzero(segments_intersect_rects(self.lines, box))
                got = np.sort(self.lines_in_node(int(leaf)))
                assert np.array_equal(got, expected), (
                    f"leaf {leaf}: stored {got.tolist()}, geometry says {expected.tolist()}")

    def render_grid(self, cell: int = 1) -> str:
        """ASCII drawing of the decomposition (the Figure 1/4 style).

        Each finest-resolution cell becomes a ``2*cell``-wide character
        patch; block boundaries draw with ``+-|`` and block interiors
        show the number of q-edges stored in the leaf (``.`` for empty).
        Intended for small trees (the worked examples); the string grows
        with ``domain**2``.
        """
        res = int(self.domain)
        if res > 64:
            raise ValueError("render_grid is for small domains (<= 64)")
        w = 2 * cell
        cols = res * w + 1
        rows_n = res * cell + 1
        grid = [[" "] * cols for _ in range(rows_n)]
        for leaf in self.leaf_ids():
            x0, y0, x1, y1 = (int(v) for v in self.boxes[leaf])
            top = (res - y1) * cell
            bot = (res - y0) * cell
            left = x0 * w
            right = x1 * w
            for c in range(left, right + 1):
                grid[top][c] = "-"
                grid[bot][c] = "-"
            for r in range(top, bot + 1):
                grid[r][left] = "|"
                grid[r][right] = "|"
            for r, c in ((top, left), (top, right), (bot, left), (bot, right)):
                grid[r][c] = "+"
            count = self.node_ptr[leaf + 1] - self.node_ptr[leaf]
            label = str(int(count)) if count else "."
            rr = (top + bot) // 2
            cc = (left + right) // 2
            for k, ch in enumerate(label[: right - left - 1]):
                grid[rr][cc + k] = ch
        return "\n".join("".join(row).rstrip() for row in grid)

    def render(self, labels: Optional[Sequence[str]] = None) -> str:
        """ASCII rendering of the decomposition, one leaf per row."""
        rows = []
        for leaf, ids in self.leaf_items():
            box = self.boxes[leaf]
            tag = ",".join(labels[i] if labels else str(i) for i in sorted(ids.tolist()))
            rows.append(f"  L{self.level[leaf]} [{box[0]:g},{box[1]:g}]-[{box[2]:g},{box[3]:g}]"
                        f"  {{{tag}}}")
        head = (f"Quadtree domain={self.domain:g} nodes={self.num_nodes} "
                f"leaves={self.num_leaves} (empty {self.num_empty_leaves}) "
                f"height={self.height} q-edges={self.q_edge_count}")
        return "\n".join([head] + rows)
