"""The per-node quadtree build the array-native one replaced (reference).

Kept verbatim in spirit: a Python-list node table that splits one block
at a time, a dict from split node to its children, one loop over the new
segments and one over the CSR rows.  It runs the same Section 4.6
primitive as :func:`repro.structures.build_quadtree`, so any difference
between the two builds is a difference in node bookkeeping -- node
numbering, boxes, levels, parent/children links, CSR layout -- which is
what ``test_build_identity`` pins.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.machine import Segments, get_machine
from repro.primitives.quad_split import split_quad_nodes
from repro.structures.quadblock import Quadtree


def reference_child_box(box: np.ndarray, code: int) -> np.ndarray:
    x0, y0, x1, y1 = box
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)
    xbit = code & 1
    ybit = (code >> 1) & 1
    return np.array([
        cx if xbit else x0, cy if ybit else y0,
        x1 if xbit else cx, y1 if ybit else cy,
    ])


class ReferenceNodeTable:
    """Growable list-of-records table; ``split`` adds one block's children."""

    def __init__(self, domain: float):
        self.domain = float(domain)
        self.boxes: List[np.ndarray] = [np.array([0.0, 0.0, self.domain, self.domain])]
        self.level: List[int] = [0]
        self.parent: List[int] = [-1]
        self.children: List[Optional[Tuple[int, int, int, int]]] = [None]

    def split(self, node: int) -> Tuple[int, int, int, int]:
        if self.children[node] is not None:
            raise ValueError(f"node {node} already split")
        base = len(self.boxes)
        ids = (base, base + 1, base + 2, base + 3)
        for code in range(4):
            self.boxes.append(reference_child_box(self.boxes[node], code))
            self.level.append(self.level[node] + 1)
            self.parent.append(node)
            self.children.append(None)
        self.children[node] = ids
        return ids

    def freeze(self):
        k = len(self.boxes)
        children = np.full((k, 4), -1, dtype=np.int64)
        for i, ch in enumerate(self.children):
            if ch is not None:
                children[i] = ch
        return (np.vstack(self.boxes), np.asarray(self.level, dtype=np.int64),
                np.asarray(self.parent, dtype=np.int64), children)


def reference_build_quadtree(lines: np.ndarray, domain: int, rule,
                             max_depth: Optional[int] = None) -> Quadtree:
    lines = np.asarray(lines, dtype=float).reshape(-1, 4)
    depth_cap = int(np.log2(domain)) if max_depth is None else int(max_depth)
    m = get_machine()
    table = ReferenceNodeTable(domain)
    n = lines.shape[0]
    segs_xy = lines.copy()
    lid = np.arange(n, dtype=np.int64)
    segments = Segments.single(n)
    seg_node = np.zeros(1 if n else 0, dtype=np.int64)

    while n:
        node_boxes = np.vstack([table.boxes[i] for i in seg_node])
        node_levels = np.asarray([table.level[i] for i in seg_node], dtype=np.int64)
        verdict = np.asarray(rule(segs_xy, segments, node_boxes, node_levels, m), dtype=bool)
        split_flags = verdict & (node_levels < depth_cap)
        if not split_flags.any():
            break
        res = split_quad_nodes(segs_xy, node_boxes, segments, split_flags,
                               payloads={"lid": lid}, machine=m)
        children_of = {}
        for s in np.flatnonzero(split_flags):
            children_of[int(seg_node[s])] = table.split(int(seg_node[s]))
        new_seg_node = np.empty(res.segments.nseg, dtype=np.int64)
        for j in range(res.segments.nseg):
            parent_node = int(seg_node[res.parent_seg[j]])
            code = int(res.child_code[j])
            new_seg_node[j] = children_of[parent_node][code] if code >= 0 else parent_node
        segs_xy, lid, segments, seg_node = (res.segs_xy, res.payloads["lid"],
                                            res.segments, new_seg_node)

    boxes, level, parent, children = table.freeze()
    k = boxes.shape[0]
    counts = np.zeros(k, dtype=np.int64)
    counts[seg_node] = segments.lengths
    node_ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=node_ptr[1:])
    node_lines = np.empty(segments.n, dtype=np.int64)
    for s, sl in enumerate(segments.slices()):
        node = int(seg_node[s])
        node_lines[node_ptr[node]:node_ptr[node + 1]] = lid[sl]
    return Quadtree(lines, boxes, level, parent, children,
                    node_ptr, node_lines, float(domain), depth_cap)
