"""The per-node merge and rebuild path the warm start replaced (reference).

Kept verbatim in spirit: deletion walks every node in a host loop,
merges a parent into its four leaf children when a per-family closure
allows it (capacity for the bucket PMR, the Section 4.5 rule for PM1),
and reassembles dense arrays with a stack walk; insertion is the full
canonical rebuild on the combined lines.

``test_warm_start_identity`` holds the warm start to the fresh build --
the specification -- and to this reference wherever the reference is
right.  It is not right everywhere: the PM1 rule is not nested (a block
that need not split can have a vertex-free child that must), so a merge
that only ever absorbs four *leaf* children misses some collapses.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.seq_pm1 import pm1_node_must_split
from repro.structures.bucket_pmr import build_bucket_pmr
from repro.structures.quadblock import Quadtree


def _survivor_lists(tree: Quadtree, ids):
    ids = np.asarray(ids, dtype=np.int64)
    n = tree.lines.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError("line id out of range")
    drop = np.zeros(n, dtype=bool)
    drop[ids] = True
    survivors = np.flatnonzero(~drop)
    remap = np.full(n, -1, dtype=np.int64)
    remap[survivors] = np.arange(survivors.size)
    new_lists = []
    for node in range(tree.num_nodes):
        held = tree.lines_in_node(node)
        new_lists.append(remap[held[~drop[held]]])
    return survivors, new_lists


def reference_delete_lines(tree: Quadtree, ids, capacity: int):
    survivors, new_lists = _survivor_lists(tree, ids)

    def mergeable(node: int, union: np.ndarray) -> bool:
        return union.size <= capacity

    is_leaf, new_lists = _merge_bottom_up(tree, new_lists, mergeable)
    return _rebuild_from(tree, survivors, is_leaf, new_lists), survivors


def reference_pm1_delete_lines(tree: Quadtree, ids):
    survivors, new_lists = _survivor_lists(tree, ids)
    surviving_lines = tree.lines[survivors]

    def mergeable(node: int, union: np.ndarray) -> bool:
        return not pm1_node_must_split(surviving_lines, union,
                                       tree.boxes[node], tree.domain)

    is_leaf, new_lists = _merge_bottom_up(tree, new_lists, mergeable)
    return _rebuild_from(tree, survivors, is_leaf, new_lists), survivors


def reference_insert_lines(tree: Quadtree, new_lines: np.ndarray, capacity: int):
    new_lines = np.atleast_2d(np.asarray(new_lines, dtype=float))
    combined = np.vstack([tree.lines, new_lines]) if tree.lines.size else new_lines
    rebuilt, _ = build_bucket_pmr(combined, int(tree.domain), capacity,
                                  max_depth=tree.max_depth)
    return rebuilt, np.arange(combined.shape[0], dtype=np.int64)


def _merge_bottom_up(tree: Quadtree, new_lists, mergeable):
    is_leaf = (tree.children[:, 0] < 0).copy()
    order = np.argsort(tree.level)[::-1]
    for node in order:
        ch = tree.children[node]
        if ch[0] < 0 or not all(is_leaf[c] for c in ch):
            continue
        union = np.unique(np.concatenate([new_lists[c] for c in ch])) \
            if any(new_lists[c].size for c in ch) else np.zeros(0, np.int64)
        if mergeable(int(node), union):
            new_lists[node] = union
            for c in ch:
                new_lists[c] = np.zeros(0, np.int64)
            is_leaf[node] = True
    return is_leaf, new_lists


def _rebuild_from(tree: Quadtree, survivors: np.ndarray, is_leaf: np.ndarray,
                  new_lists) -> Quadtree:
    k = tree.num_nodes
    keep_node = np.zeros(k, dtype=bool)
    stack = [0]
    while stack:
        node = stack.pop()
        keep_node[node] = True
        if not is_leaf[node]:
            stack.extend(int(c) for c in tree.children[node])
    new_index = np.full(k, -1, dtype=np.int64)
    new_index[keep_node] = np.arange(int(keep_node.sum()))

    kept = np.flatnonzero(keep_node)
    boxes = tree.boxes[kept]
    level = tree.level[kept]
    parent = np.where(tree.parent[kept] >= 0, new_index[tree.parent[kept]], -1)
    children = np.full((kept.size, 4), -1, dtype=np.int64)
    for new_i, old in enumerate(kept):
        if not is_leaf[old]:
            children[new_i] = new_index[tree.children[old]]

    counts = np.array([new_lists[old].size for old in kept], dtype=np.int64)
    node_ptr = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(counts, out=node_ptr[1:])
    node_lines = (np.concatenate([new_lists[old] for old in kept])
                  if counts.sum() else np.zeros(0, np.int64))

    return Quadtree(tree.lines[survivors], boxes, level, parent, children,
                    node_ptr, node_lines, tree.domain, tree.max_depth)
