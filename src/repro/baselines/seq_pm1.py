"""Sequential PM1 quadtree (oracle for the data-parallel build).

The PM1 quadtree's shape is a pure function of the line set -- it does
not depend on insertion order -- so the natural sequential construction
is top-down recursive subdivision with exactly the Section 2.1 leaf
criteria.  The parallel build of Section 5.1 must produce an identical
decomposition; :func:`seq_pm1_decomposition` provides the reference.

Conventions match the parallel build (DESIGN.md Section 5): q-edge
membership is closed-box intersection, vertex membership is half-open
with the global top/right boundary closed, and subdivision is capped at
``max_depth``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..geometry.generators import check_power_of_two
from ..geometry.rect import child_boxes, contains_point_halfopen
from ..geometry.segment import validate_segments

__all__ = ["seq_pm1_decomposition", "pm1_node_must_split"]


def pm1_node_must_split(lines: np.ndarray, ids: np.ndarray, box: np.ndarray,
                        domain: float) -> bool:
    """The Section 4.5 decision, evaluated directly on one node."""
    if ids.size == 0:
        return False
    sub = lines[ids]
    boxes = np.tile(box, (ids.size, 1))
    p1_in = contains_point_halfopen(boxes, sub[:, 0], sub[:, 1], domain)
    p2_in = contains_point_halfopen(boxes, sub[:, 2], sub[:, 3], domain)
    eps = p1_in.astype(int) + p2_in.astype(int)
    mx, mn = int(eps.max()), int(eps.min())
    if mx == 2:
        return True
    if mx == 1 and mn == 0:
        return True
    if mx == 1 and mn == 1:
        px = np.where(p1_in, sub[:, 0], sub[:, 2])
        py = np.where(p1_in, sub[:, 1], sub[:, 3])
        return not (px.min() == px.max() and py.min() == py.max())
    return ids.size > 1  # mx == mn == 0


def seq_pm1_decomposition(lines: np.ndarray, domain: int,
                          max_depth: Optional[int] = None
                          ) -> list[tuple[tuple, tuple]]:
    """Reference PM1 decomposition as a sorted ``(box, line ids)`` list.

    Directly comparable with
    :meth:`repro.structures.Quadtree.decomposition_key`.
    """
    domain = check_power_of_two(domain)
    lines = validate_segments(lines)
    depth_cap = int(np.log2(domain)) if max_depth is None else int(max_depth)

    out: List[Tuple[tuple, tuple]] = []

    def recurse(box: np.ndarray, ids: np.ndarray, depth: int) -> None:
        if depth < depth_cap and pm1_node_must_split(lines, ids, box, float(domain)):
            for child in child_boxes(box):
                if ids.size:
                    inside = segments_intersect_rects(
                        lines[ids], np.tile(child, (ids.size, 1)))
                    recurse(child, ids[inside], depth + 1)
                else:
                    recurse(child, ids, depth + 1)
        else:
            out.append((tuple(box.tolist()), tuple(sorted(ids.tolist()))))

    root = np.array([0.0, 0.0, float(domain), float(domain)])
    recurse(root, np.arange(lines.shape[0], dtype=np.int64), 0)
    out.sort()
    return out
