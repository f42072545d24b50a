"""Dynamic maintenance of the bucket PMR and PM1 quadtrees (Section 2.2).

Both quadtrees' shapes are pure functions of their line sets -- the
reason the paper adopts the *bucket* PMR (Figure 34) -- so the tree
after a batch of deletions and insertions is, by definition, the fresh
build on the post-batch lines.  :func:`warm_start` reaches that tree
from the parent's while touching only the blocks the batch reaches:

1. *delete* -- one survivor remap drops the deleted ids from the leaf
   CSR; then, deepest level first, each parent of a touched block forms
   the union of its subtree's lines (a sort plus the Section 4.3
   duplicate deletion) and asks the family's own split rule about it,
   collapsing to a leaf where the rule no longer splits -- the paper's
   recursively reapplied sibling merge;
2. *insert* -- the new lines descend from the root in one batched
   frontier pass (closed-box membership, as in the split stages), join
   the leaves they reach, and the ordinary build rounds
   (:func:`~repro.structures.build.split_rounds`) run over the lines
   of the leaves that now overflow;
3. *canonicalise* -- nodes are renumbered by (level, Morton code of
   the block), which is a fresh build's allocation order, with lines
   ascending in every node.

The result is array-equal to the fresh build, so fingerprints, stored
indexes and the differential suites cannot tell the two apart.  The
machine is charged for the unions, rule checks, descent and rounds --
work proportional to the batch times the depth -- while the node
table, the final CSR assembly and the ``lines`` gather are host-side
copies (DESIGN.md Section 3).  All functions return the id map from
the new tree's line indices back to the caller's.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..geometry.segment import validate_segments
from ..machine import Machine, Segments, get_machine
from ..machine.ordering import morton_encode
from ..machine.sort import sort
from ..primitives.dupdelete import delete_duplicates, mark_duplicates
from .bucket_pmr import pmr_rule
from .build import SplitRule, split_rounds
from .pm1 import check_pm1_lines, pm1_judge, pm1_rule
from .quadblock import NodeTable, Quadtree

__all__ = ["apply_batch", "delete_lines", "insert_lines", "pm1_delete_lines",
           "warm_start"]

#: ``(split, settled)`` verdicts per node group; see :func:`warm_start`
Judge = Callable[..., Tuple[np.ndarray, np.ndarray]]


def delete_lines(tree: Quadtree, ids, capacity: int,
                 machine: Optional[Machine] = None) -> Tuple[Quadtree, np.ndarray]:
    """Delete lines from a bucket PMR quadtree, merging sparse blocks.

    Returns the tree over the remaining lines (re-indexed ``0..k-1``)
    and the array mapping new ids to the original ones.  The tree is
    array-equal to a fresh build on the survivors -- the determinism
    that makes the bucket variant safe for simultaneous updates.
    """
    keep = _keep(tree, ids)
    return apply_batch(tree, "pmr", keep, np.zeros((0, 4)), capacity,
                       machine), np.flatnonzero(keep)


def pm1_delete_lines(tree: Quadtree, ids,
                     machine: Optional[Machine] = None) -> Tuple[Quadtree, np.ndarray]:
    """Delete lines from a PM1 quadtree, merging blocks the rule releases.

    A block becomes a leaf once the Section 4.5 criteria no longer
    require it to split -- e.g. after deletions leave a single q-edge,
    or only lines sharing one vertex.  Same contract as
    :func:`delete_lines`.
    """
    keep = _keep(tree, ids)
    return apply_batch(tree, "pm1", keep, np.zeros((0, 4)),
                       machine=machine), np.flatnonzero(keep)


def insert_lines(tree: Quadtree, new_lines: np.ndarray, capacity: int,
                 machine: Optional[Machine] = None) -> Tuple[Quadtree, np.ndarray]:
    """Insert lines into a bucket PMR quadtree.

    The returned id map sends the new tree's line indices to ``0..n-1``
    for the original lines followed by ``n..n+k-1`` for the inserted
    ones.
    """
    keep = np.ones(tree.lines.shape[0], dtype=bool)
    grown = apply_batch(tree, "pmr", keep, new_lines, capacity, machine)
    return grown, np.arange(grown.lines.shape[0], dtype=np.int64)


def apply_batch(tree: Quadtree, structure: str, keep: np.ndarray,
                new_lines: np.ndarray, capacity: int = 8,
                machine: Optional[Machine] = None) -> Quadtree:
    """Warm-start a ``"pmr"`` or ``"pm1"`` tree through one batch.

    The batch keeps the lines flagged by ``keep`` and appends
    ``new_lines``; ``capacity`` is the bucket PMR's (ignored for PM1).
    """
    if structure == "pmr":
        return warm_start(tree, keep, new_lines, pmr_rule(capacity),
                          machine=machine)
    if structure == "pm1":
        new_lines = validate_segments(new_lines)
        if new_lines.shape[0]:
            check_pm1_lines(np.concatenate([tree.lines[keep], new_lines]))
        return warm_start(tree, keep, new_lines, pm1_rule(tree.domain),
                          pm1_judge(tree.domain), machine)
    raise ValueError(f"no warm start for structure {structure!r}")


def warm_start(tree: Quadtree, keep: np.ndarray, new_lines: np.ndarray,
               rule: SplitRule, judge: Optional[Judge] = None,
               machine: Optional[Machine] = None) -> Quadtree:
    """The fresh build of ``tree.lines[keep]`` + ``new_lines``, from ``tree``.

    ``rule`` is the family's split rule.  ``judge`` returns ``(split,
    settled)`` per node group, *settled* meaning every enclosing block
    must split too; it is needed only by rules that are not nested
    (PM1: :func:`~repro.structures.pm1.pm1_judge`).  ``None`` means
    the verdict settles by itself -- a block holds every line of the
    blocks inside it (the capacity count), so a node with an inner
    child can never merge.
    """
    m = machine or get_machine()
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (tree.lines.shape[0],):
        raise ValueError("keep must flag every line of the tree")
    new_lines = validate_segments(new_lines, "new_lines")
    if new_lines.size and (new_lines.min() < 0 or new_lines.max() > tree.domain):
        raise ValueError("line coordinates must lie inside [0, domain]^2")
    lines = np.concatenate([tree.lines[keep], new_lines])
    nested = judge is None
    if nested:
        def judge(*state):
            verdict = rule(*state)
            return verdict, verdict

    table = NodeTable.of(tree)
    held, touched = _remap(tree, keep)
    alive = np.ones(len(table), dtype=bool)
    _merge(table, held, alive, touched, lines, judge, nested, m)
    if new_lines.shape[0]:
        _insert(table, held, lines, int(keep.sum()), rule, judge, tree.max_depth, m)
    return _canonical(table, held, alive, lines, tree.max_depth)


class _Held:
    """Line ids held by each node: slices ``pool[lo:hi]`` of one pool."""

    def __init__(self, pool: np.ndarray, counts: np.ndarray):
        self.pool = pool
        self.hi = np.cumsum(counts)
        self.lo = self.hi - counts

    def get(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The nodes' lists back to back, and their lengths."""
        counts = self.hi[nodes] - self.lo[nodes]
        start = np.repeat(self.lo[nodes] - np.cumsum(counts) + counts, counts)
        return self.pool[start + np.arange(start.size)], counts

    def put(self, nodes: np.ndarray, ids: np.ndarray, counts: np.ndarray) -> None:
        """Distinct ``nodes`` now hold ``ids``, grouped by ``counts``."""
        self.fit(int(nodes.max(initial=-1)) + 1)
        self.hi[nodes] = self.pool.size + np.cumsum(counts)
        self.lo[nodes] = self.hi[nodes] - counts
        self.pool = np.concatenate([self.pool, ids])

    def fit(self, k: int) -> None:
        """Cover ``k`` nodes; new ones hold nothing."""
        grow = np.zeros(max(k - self.lo.size, 0), dtype=np.int64)
        self.lo, self.hi = (np.concatenate([self.lo, grow]),
                            np.concatenate([self.hi, grow]))


def _keep(tree: Quadtree, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    n = tree.lines.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError("line id out of range")
    keep = np.ones(n, dtype=bool)
    keep[ids] = False
    return keep


def _remap(tree: Quadtree, keep: np.ndarray) -> Tuple[_Held, np.ndarray]:
    """Survivor-renumbered node lists, and the leaves that lost a line."""
    counts = np.diff(tree.node_ptr)
    if keep.all():
        return _Held(tree.node_lines, counts), np.zeros(0, dtype=np.int64)
    owner = np.repeat(np.arange(counts.size), counts)
    stays = keep[tree.node_lines]
    remap = np.cumsum(keep) - 1
    held = _Held(remap[tree.node_lines[stays]],
                 np.bincount(owner[stays], minlength=counts.size))
    return held, np.unique(owner[~stays])


def _merge(table: NodeTable, held: _Held, alive: np.ndarray, dirty: np.ndarray,
           lines: np.ndarray, judge: Judge, nested: bool, m: Machine) -> None:
    """Collapse, deepest level first, every block the deletions released.

    A candidate is the parent of a touched block; it merges where the
    rule, asked about its subtree's line union, would not split it, and
    stays a candidate's child (``dirty``) until its verdict settles.
    """
    while dirty.size:
        depth = table.level[dirty]
        deepest = depth == depth.max()
        cand = np.unique(table.parent[dirty[deepest]])
        dirty = dirty[~deepest]
        cand = cand[cand >= 0]
        if nested:   # an inner child holds more than its parent may: no merge
            cand = cand[(table.children[table.children[cand], 0] < 0).all(axis=1)]
        if not cand.size:
            continue
        leaf_of, leaves, below_of, below = _subtrees(table.children, cand)
        ids, counts = held.get(leaves)
        grp, ids = _union(np.repeat(leaf_of, counts), ids, lines.shape[0], m)
        sizes = np.bincount(grp, minlength=cand.size)
        split, settled = _verdicts(judge, table, cand, lines, ids, sizes, m)
        merged = ~split
        held.put(cand[merged], ids[merged[grp]], sizes[merged])
        alive[below[merged[below_of]]] = False
        table.children[cand[merged]] = -1
        dirty = np.concatenate([dirty, cand[~settled]])


def _insert(table: NodeTable, held: _Held, lines: np.ndarray, first: int,
            rule: SplitRule, judge: Judge, depth_cap: int, m: Machine) -> None:
    """Route lines ``first..`` to their leaves; re-split the overflowing ones."""
    node = np.zeros(lines.shape[0] - first, dtype=np.int64)
    lid = np.arange(first, lines.shape[0], dtype=np.int64)
    at_leaf, leaf_lid = [], []
    while node.size:     # one batched frontier descent, a level per pass
        inner = table.children[node, 0] >= 0
        at_leaf.append(node[~inner])
        leaf_lid.append(lid[~inner])
        node = table.children[node[inner]].ravel()
        lid = np.repeat(lid[inner], 4)
        m.record("elementwise", node.size)
        hit = segments_intersect_rects(lines[lid], table.boxes[node])
        node, lid = node[hit], lid[hit]
    leaf = np.concatenate(at_leaf)
    touched = np.unique(leaf)
    old, counts = held.get(touched)
    grp, ids = _union(
        np.concatenate([np.repeat(np.arange(touched.size), counts),
                        np.searchsorted(touched, leaf)]),
        np.concatenate([old, np.concatenate(leaf_lid)]), lines.shape[0], m)
    sizes = np.bincount(grp, minlength=touched.size)
    over = (_verdicts(judge, table, touched, lines, ids, sizes, m)[0]
            & (table.level[touched] < depth_cap))
    held.put(touched[~over], ids[~over[grp]], sizes[~over])
    if over.any():
        seg_node, lid, segments = split_rounds(
            table, lines, ids[over[grp]], Segments.from_lengths(sizes[over]),
            touched[over], rule, depth_cap, m)
        held.put(touched[over], np.zeros(0, dtype=np.int64),
                 np.zeros(int(over.sum()), dtype=np.int64))
        held.put(seg_node, lid, segments.lengths)


def _subtrees(children: np.ndarray, roots: np.ndarray):
    """Leaves and proper descendants under each root, tagged by root index."""
    node, tag = roots, np.arange(roots.size)
    leaves, leaf_of, below, below_of = [], [], [], []
    first = True
    while node.size:
        is_leaf = children[node, 0] < 0
        leaves.append(node[is_leaf])
        leaf_of.append(tag[is_leaf])
        if not first:
            below.append(node)
            below_of.append(tag)
        first = False
        node = children[node[~is_leaf]].ravel()
        tag = np.repeat(tag[~is_leaf], 4)
    cat = lambda parts: np.concatenate(parts) if parts else np.zeros(0, np.int64)
    return cat(leaf_of), cat(leaves), cat(below_of), cat(below)


def _union(grp: np.ndarray, ids: np.ndarray, n: int, m: Machine):
    """Per-group ascending, duplicate-free ids: a sort and a concentrate."""
    span = max(n, 1)
    key = sort(grp * span + ids, machine=m)
    key = delete_duplicates(mark_duplicates(key, machine=m), key, machine=m).arrays[0]
    return np.divmod(key, span)


def _verdicts(judge: Judge, table: NodeTable, nodes: np.ndarray,
              lines: np.ndarray, ids: np.ndarray, sizes: np.ndarray,
              m: Machine) -> Tuple[np.ndarray, np.ndarray]:
    """``judge`` over the nodes' grouped lines; an empty node never splits."""
    split = np.zeros(nodes.size, dtype=bool)
    settled = np.zeros(nodes.size, dtype=bool)
    full = sizes > 0
    if full.any():
        s, st = judge(lines[ids], Segments.from_lengths(sizes[full]),
                      table.boxes[nodes[full]], table.level[nodes[full]], m)
        split[full], settled[full] = s, st
    return split, settled


def _canonical(table: NodeTable, held: _Held, alive: np.ndarray,
               lines: np.ndarray, max_depth: int) -> Quadtree:
    """Renumber the live nodes by (level, Morton code): a fresh build's order."""
    alive = np.concatenate([alive, np.ones(len(table) - alive.size, dtype=bool)])
    held.fit(len(table))
    nodes = np.flatnonzero(alive)
    level = table.level[nodes]
    cells = (table.boxes[nodes, :2] / (table.domain / np.exp2(level))[:, None])
    code = morton_encode(cells[:, 0].astype(np.int64), cells[:, 1].astype(np.int64),
                         bits=max(int(max_depth), 1))
    order = nodes[np.lexsort((code, level))]
    new_id = np.full(len(table), -1, dtype=np.int64)
    new_id[order] = np.arange(order.size)
    parent = table.parent[order]
    children = table.children[order]
    node_lines, counts = held.get(order)
    return Quadtree(lines, table.boxes[order], table.level[order],
                    np.where(parent >= 0, new_id[parent], -1),
                    np.where(children >= 0, new_id[children], -1),
                    np.concatenate(([0], np.cumsum(counts))), node_lines,
                    table.domain, max_depth)
