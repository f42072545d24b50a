"""Data-parallel R-tree construction (paper Section 5.3, Figures 39-44).

All lines are inserted simultaneously: one processor per line, one per
R-tree node.  Each round, every segment of the line processor set (and
every group of sibling nodes, level by level) counts its members with a
scan and reports to its node processor; any node over capacity ``M`` is
split with a Section 4.7 splitting algorithm, the chosen partition
realised by an unshuffle.  Node splits propagate upward -- an internal
node whose child count now exceeds ``M`` splits in the same round --
and a root split grows the tree by one level (Figure 42).  For ``n``
lines this takes O(log n) rounds of O(log n) primitives each (the sort
inside the sweep split), the paper's O(log**2 n) total.

The node hierarchy is kept as per-level parent-pointer arrays.  Sibling
groups are *derived* each round by a stable data-parallel sort on the
parent pointer -- the paper's "two sorts" per stage -- rather than by
physically permuting whole subtrees, which is exactly the irregular-
structure cost the Section 3.3 SAM discussion warns about.

The finished :class:`RTree` satisfies the order-(m, M) invariants of
Section 2.3: all leaves at the same level, every non-root node holding
between ``m`` and ``M`` entries, every node's rectangle the smallest
enclosing its members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Literal, Optional

import numpy as np

from ..geometry import rect as _rect
from ..geometry.segment import validate_segments
from ..machine import Machine, Segments, get_machine
from ..machine.broadcast import seg_broadcast, seg_reduce
from ..machine.sort import seg_rank
from ..primitives.rtree_split import mean_split, sweep_split
from .batch import NEAREST, POINT, WINDOW, one_probe
from .build import BuildTrace, RoundStats
from .csr import cell_table, group_csr

__all__ = ["RTree", "build_rtree"]

SplitAlgo = Literal["sweep", "mean"]


@dataclass
class RTree:
    """A finished data-parallel R-tree of order ``(m, M)``.

    Level 0 holds the leaves; level ``height - 1`` is the root level
    (always a single node).  ``line_leaf[i]`` is the leaf holding line
    ``i``; ``level_parent[l][j]`` is the index (at level ``l+1``) of
    node ``j``'s parent.
    """

    lines: np.ndarray
    entry_bbox: np.ndarray
    line_leaf: np.ndarray
    level_mbr: List[np.ndarray]
    level_parent: List[np.ndarray]
    m: int
    M: int

    @property
    def height(self) -> int:
        """Number of node levels (1 = the root is a leaf)."""
        return len(self.level_mbr)

    @property
    def num_leaves(self) -> int:
        return int(self.level_mbr[0].shape[0])

    @property
    def num_nodes(self) -> int:
        return int(sum(mbr.shape[0] for mbr in self.level_mbr))

    @property
    def root_mbr(self) -> np.ndarray:
        return self.level_mbr[-1][0]

    @cached_property
    def adjacency(self) -> List[tuple[np.ndarray, np.ndarray]]:
        """Child lists as CSR, one ``(ptr, ids)`` per level.

        ``ids[ptr[j]:ptr[j + 1]]`` are, ascending, the lines of leaf
        ``j`` (level 0) or the level ``l - 1`` children of node ``j`` at
        level ``l``.  Derived from ``line_leaf`` / ``level_parent`` by
        one stable sort each on first use and kept on the object: not a
        dataclass field, so io and the store never write it, and a first-touch
        race between threads recomputes the same arrays.
        """
        owners = [self.line_leaf] + list(self.level_parent)
        return [group_csr(own, mbr.shape[0])
                for own, mbr in zip(owners, self.level_mbr)]

    @cached_property
    def cells(self):
        """The nearest probes' cell table (:func:`~.csr.cell_table`),
        derived and kept like :attr:`adjacency`."""
        return cell_table(self.lines)

    def entries(self, level: int, node: int) -> np.ndarray:
        """Lines (level 0) or child nodes of one node, ascending."""
        ptr, ids = self.adjacency[level]
        return ids[ptr[node]:ptr[node + 1]]

    def lines_in_leaf(self, leaf: int) -> np.ndarray:
        return self.entries(0, leaf)

    # -- queries ---------------------------------------------------------

    def window_query(self, rect, exact: bool = True, count_visits: bool = False):
        """Ids of lines intersecting the closed query rectangle.

        A one-probe wave, level by level, visiting every node whose
        rectangle overlaps the window; because sibling rectangles may
        overlap, a line can be reachable through several paths -- the
        non-disjoint decomposition cost the paper contrasts with
        quadtrees (experiment C6 counts ``visits``).
        """
        return one_probe(self, WINDOW, rect, exact, count_visits)

    def point_query(self, px: float, py: float, exact: bool = True,
                    count_visits: bool = False):
        """Lines whose bounding rectangle (or, with ``exact``, the line
        itself) contains the point: the degenerate window."""
        return one_probe(self, POINT, (px, py), exact, count_visits)

    def nearest(self, px: float, py: float) -> tuple[int, float]:
        """Closest line to the point, ties to the lowest id: a one-probe
        wave."""
        return one_probe(self, NEAREST, (px, py))

    # -- quality metrics (experiments F6 / C7) -----------------------------

    def coverage(self, level: int = 0) -> float:
        """Total area of node rectangles at ``level`` (Guttman's goal)."""
        return float(_rect.area(self.level_mbr[level]).sum())

    def total_overlap(self, level: int = 0) -> float:
        """Sum of pairwise intersection areas at ``level`` (R*'s goal)."""
        mbr = self.level_mbr[level]
        k = mbr.shape[0]
        if k < 2:
            return 0.0
        ii, jj = np.triu_indices(k, 1)
        return float(_rect.intersection_area(mbr[ii], mbr[jj]).sum())

    # -- validation --------------------------------------------------------

    def check(self, strict_min_fill: bool = True) -> None:
        """Raise AssertionError on any order-(m, M) invariant violation.

        ``strict_min_fill=False`` skips the minimum-occupancy checks:
        the paper's O(1) mean split (algorithm 1) does not enforce the
        ``m`` lower bound, only the sweep split does.
        """
        n = self.lines.shape[0]
        h = self.height
        assert self.level_mbr[-1].shape[0] == 1, "root level must hold one node"
        assert len(self.level_parent) == h - 1
        # leaf occupancy
        counts = np.bincount(self.line_leaf, minlength=self.num_leaves)
        if h == 1:
            assert n <= self.M, "single-leaf tree over capacity"
        else:
            if strict_min_fill:
                assert counts.min(initial=self.m) >= self.m, "leaf under-filled"
            assert counts.min(initial=1) >= 1, "empty leaf"
            assert counts.max(initial=0) <= self.M, "leaf over capacity"
        # internal occupancy and rectangle tightness
        for lvl in range(h - 1):
            par = self.level_parent[lvl]
            k_up = self.level_mbr[lvl + 1].shape[0]
            ccount = np.bincount(par, minlength=k_up)
            if lvl + 1 == h - 1:
                assert ccount[0] >= 2, "internal root must have at least two children"
            elif strict_min_fill:
                assert ccount.min() >= self.m, "internal node under-filled"
            else:
                assert ccount.min() >= 1, "childless internal node"
            assert ccount.max() <= self.M, "internal node over capacity"
            # parent rect == union of child rects
            for u in range(k_up):
                members = self.level_mbr[lvl][par == u]
                want = np.array([members[:, 0].min(), members[:, 1].min(),
                                 members[:, 2].max(), members[:, 3].max()])
                np.testing.assert_allclose(self.level_mbr[lvl + 1][u], want)
        # leaf rect == union of entry rects
        for leaf in range(self.num_leaves):
            eb = self.entry_bbox[self.line_leaf == leaf]
            assert eb.size, "empty leaf"
            want = np.array([eb[:, 0].min(), eb[:, 1].min(),
                             eb[:, 2].max(), eb[:, 3].max()])
            np.testing.assert_allclose(self.level_mbr[0][leaf], want)

    def render(self) -> str:
        """Compact textual summary, one line per level."""
        rows = [f"RTree order=({self.m},{self.M}) height={self.height} "
                f"leaves={self.num_leaves} nodes={self.num_nodes} "
                f"entries={self.lines.shape[0]}"]
        for lvl in range(self.height - 1, -1, -1):
            mbr = self.level_mbr[lvl]
            rows.append(f"  level {lvl}: {mbr.shape[0]} nodes, "
                        f"coverage={_rect.area(mbr).sum():g}, "
                        f"overlap={self.total_overlap(lvl):g}")
        return "\n".join(rows)


def _grouped_view(parent_ids: np.ndarray, m: Machine) -> tuple[np.ndarray, Segments]:
    """Sort indices by parent (stable) and return the grouped descriptor.

    This is the per-stage sort of the paper's cost accounting: sibling
    groups are materialised as contiguous runs of the sorted view.
    """
    ranks = seg_rank(parent_ids, Segments.single(parent_ids.size), machine=m)
    view = np.empty(parent_ids.size, dtype=np.int64)
    view[ranks] = np.arange(parent_ids.size, dtype=np.int64)
    return view, Segments.from_ids(parent_ids[view])


def _group_mbrs(child_mbr: np.ndarray, parent_ids: np.ndarray, num_parents: int,
                m: Machine) -> np.ndarray:
    """MBR of every parent from its children's rectangles (scan reduce)."""
    view, grp = _grouped_view(parent_ids, m)
    signed = np.take(child_mbr, view, axis=0) * _rect.UNION_SIGNS
    out = seg_reduce(signed, grp, "min", machine=m) * _rect.UNION_SIGNS
    owners = parent_ids[view][grp.heads]
    mbr = np.zeros((num_parents, 4))
    mbr[owners] = out
    return mbr


def _split_level(child_mbr: np.ndarray, parent_ids: np.ndarray, num_parents: int,
                 m_fill: int, M: int, algo: SplitAlgo,
                 m: Machine, fractional_fill: bool = True
                 ) -> tuple[np.ndarray, int, np.ndarray]:
    """Split every parent whose group exceeds ``M``.

    Returns ``(new_parent_ids, num_new_parents, split_mask)`` where
    right-half children of split parent ``u`` are reassigned to a fresh
    parent index, and ``split_mask`` (over old parent indices) marks who
    split.  The caller appends the new parents to the level above.
    """
    view, grp = _grouped_view(parent_ids, m)
    counts = grp.lengths
    owners = parent_ids[view][grp.heads]
    over = counts > M
    if not over.any():
        return parent_ids, num_parents, np.zeros(num_parents, dtype=bool)

    over_lines = seg_broadcast(over, grp, machine=m).astype(bool)
    sel = np.flatnonzero(over_lines)                   # sorted-view slots
    sub_sizes = counts[over]
    sub_seg = Segments.from_lengths(sub_sizes)
    sub_mbr = np.take(child_mbr, view[sel], axis=0)
    if algo == "sweep":
        choice = sweep_split(sub_mbr, sub_seg, min_fill=m_fill,
                             node_capacity=M if fractional_fill else None,
                             machine=m)
    elif algo == "mean":
        choice = mean_split(sub_mbr, sub_seg, machine=m)
    else:
        raise ValueError(f"unknown split algorithm {algo!r}")

    new_parent_ids = parent_ids.copy()
    split_owner = owners[over]                         # old parent index per split
    fresh = num_parents + np.arange(split_owner.size, dtype=np.int64)
    right_children = view[sel[choice.side]]
    owner_to_fresh = np.full(num_parents, -1, dtype=np.int64)
    owner_to_fresh[split_owner] = fresh
    m.record("permute", parent_ids.size)
    new_parent_ids[right_children] = owner_to_fresh[parent_ids[right_children]]

    split_mask = np.zeros(num_parents, dtype=bool)
    split_mask[split_owner] = True
    return new_parent_ids, num_parents + split_owner.size, split_mask


def build_rtree(lines: np.ndarray, m_fill: int = 2, M: int = 4,
                algo: SplitAlgo = "sweep", fractional_fill: bool = True,
                machine: Optional[Machine] = None) -> tuple[RTree, BuildTrace]:
    """Build the data-parallel R-tree of order ``(m_fill, M)``.

    Parameters
    ----------
    lines:
        ``(n, 4)`` segments; each becomes one leaf entry represented by
        its minimum bounding rectangle.
    m_fill, M:
        The R-tree order ``(m, M)`` with ``1 <= m <= M // 2`` (the
        paper's example uses (1, 3)).
    algo:
        Section 4.7 split selection: ``"sweep"`` (algorithm 2, default)
        or ``"mean"`` (algorithm 1).
    fractional_fill:
        Use the paper's split-legality rule -- each side receives "at
        least m/M of the lines" (default).  ``False`` substitutes the
        absolute-``m`` rule of sequential R-trees; the ablation bench
        shows this loses the O(log n) round bound (splits can peel
        min-fill-sized slivers instead of shrinking geometrically).
    """
    lines = validate_segments(lines)
    n = lines.shape[0]
    if not 1 <= m_fill <= M // 2:
        raise ValueError("order must satisfy 1 <= m <= M // 2")
    mach = machine or get_machine()

    entry_bbox = _rect.rects_from_segments(lines) if n else np.zeros((0, 4))
    line_leaf = np.zeros(n, dtype=np.int64)
    num_per_level: List[int] = [1]          # level 0 starts as the single root-leaf
    parent_arrays: List[np.ndarray] = []    # parent_arrays[l]: level l -> level l+1

    trace = BuildTrace()
    round_index = 0
    while n:
        changed = False
        splits_this_round = 0
        steps_before = mach.steps
        with mach.phase(f"round{round_index}"):
            # leaf level: lines are the children, leaves the parents
            line_leaf, new_count, split_mask = _split_level(
                entry_bbox, line_leaf, num_per_level[0], m_fill, M, algo, mach,
                fractional_fill)
            if split_mask.any():
                changed = True
                splits_this_round += int(split_mask.sum())
                num_per_level[0] = new_count
                if not parent_arrays:
                    if num_per_level == [new_count]:
                        # first root split: new root above the two leaves
                        parent_arrays.append(np.zeros(new_count, dtype=np.int64))
                        num_per_level.append(1)
                else:
                    # fresh leaves inherit the split leaf's parent
                    par = parent_arrays[0]
                    parent_arrays[0] = np.concatenate(
                        [par, par[np.flatnonzero(split_mask)]])

            # internal levels, bottom-up; a level's splits may overflow the next
            lvl = 0
            while lvl < len(parent_arrays):
                child_mbr = (_group_mbrs(entry_bbox, line_leaf, num_per_level[0], mach)
                             if lvl == 0 else
                             _group_mbrs(level_cache, parent_arrays[lvl - 1],
                                         num_per_level[lvl], mach))
                level_cache = child_mbr
                new_par, new_count, split_mask = _split_level(
                    child_mbr, parent_arrays[lvl], num_per_level[lvl + 1],
                    m_fill, M, algo, mach, fractional_fill)
                if split_mask.any():
                    changed = True
                    splits_this_round += int(split_mask.sum())
                    parent_arrays[lvl] = new_par
                    num_per_level[lvl + 1] = new_count
                    if lvl + 1 == len(parent_arrays):
                        if new_count > 1:
                            parent_arrays.append(np.zeros(new_count, dtype=np.int64))
                            num_per_level.append(1)
                    else:
                        par = parent_arrays[lvl + 1]
                        parent_arrays[lvl + 1] = np.concatenate(
                            [par, par[np.flatnonzero(split_mask)]])
                lvl += 1

        if changed:
            trace.rounds.append(RoundStats(round_index, splits_this_round, n,
                                           steps_before, mach.steps))
            round_index += 1
            if round_index > max(64, 2 * n + 4):
                raise RuntimeError("R-tree build failed to converge")
        else:
            break

    # materialise per-level MBRs bottom-up
    level_mbr: List[np.ndarray] = []
    if n:
        level_mbr.append(_group_mbrs(entry_bbox, line_leaf, num_per_level[0], mach))
        for lvl in range(len(parent_arrays)):
            level_mbr.append(_group_mbrs(level_mbr[lvl], parent_arrays[lvl],
                                         num_per_level[lvl + 1], mach))
    else:
        level_mbr.append(np.zeros((1, 4)))

    tree = RTree(lines, entry_bbox, line_leaf, level_mbr, parent_arrays, m_fill, M)
    return tree, trace
