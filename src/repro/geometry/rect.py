"""Vectorised axis-aligned rectangle algebra.

Rectangles are rows of an ``(n, 4)`` float array ``[xmin, ymin, xmax,
ymax]``.  The *empty* rectangle is encoded as ``[+inf, +inf, -inf,
-inf]`` so that union is simply elementwise min/max with no special
cases -- exactly the encoding the min/max scan identities produce, which
is why the R-tree split's prefix/suffix bounding boxes (paper Section
4.7, Figure 29) fall out of plain segmented scans.

All functions operate row-wise on equal-length inputs and are pure.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EMPTY_RECT",
    "UNION_SIGNS",
    "make_rects",
    "empty_rects",
    "is_empty",
    "validate_rects",
    "area",
    "perimeter",
    "union",
    "intersection",
    "intersection_area",
    "union_area_pairwise",
    "contains_rect",
    "contains_point",
    "contains_point_halfopen",
    "overlaps",
    "enlargement",
    "rects_from_segments",
    "child_boxes",
]

EMPTY_RECT = np.array([np.inf, np.inf, -np.inf, -np.inf])

#: ``max(x) == -min(-x)`` exactly, so the union of rectangles (min, min,
#: max, max over the columns) is one columnwise *min* of ``rects *
#: UNION_SIGNS``, times ``UNION_SIGNS`` again; the empty rectangle is all
#: ``+inf`` in that form.
UNION_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _as2d(rects) -> np.ndarray:
    """Coerce to an ``(n, 4)`` float view (copying only when needed)."""
    return np.atleast_2d(np.asarray(rects, dtype=float))


def make_rects(xmin, ymin, xmax, ymax) -> np.ndarray:
    """Stack coordinate vectors into an ``(n, 4)`` rectangle array."""
    r = np.stack([np.asarray(xmin, float), np.asarray(ymin, float),
                  np.asarray(xmax, float), np.asarray(ymax, float)], axis=-1)
    return np.atleast_2d(r)


def empty_rects(n: int) -> np.ndarray:
    """``n`` copies of the empty rectangle (the union identity)."""
    return np.tile(EMPTY_RECT, (n, 1))


def is_empty(rects: np.ndarray) -> np.ndarray:
    """True where a rectangle is empty (min exceeds max on either axis)."""
    rects = _as2d(rects)
    return (rects[:, 0] > rects[:, 2]) | (rects[:, 1] > rects[:, 3])


def validate_rects(rects: np.ndarray, name: str = "rects") -> np.ndarray:
    """Coerce to ``(n, 4)`` float; any row is legal (min > max is *empty*)."""
    rects = np.atleast_2d(np.asarray(rects, dtype=float))
    if rects.ndim != 2 or rects.shape[1] != 4:
        raise ValueError(f"{name} must have shape (n, 4), got {rects.shape}")
    return rects


def area(rects: np.ndarray) -> np.ndarray:
    """Row-wise area; empty rectangles have area 0."""
    rects = _as2d(rects)
    w = np.maximum(rects[:, 2] - rects[:, 0], 0.0)
    h = np.maximum(rects[:, 3] - rects[:, 1], 0.0)
    out = w * h
    out[is_empty(rects)] = 0.0
    return out


def perimeter(rects: np.ndarray) -> np.ndarray:
    """Row-wise perimeter; empty rectangles have perimeter 0."""
    rects = _as2d(rects)
    w = np.maximum(rects[:, 2] - rects[:, 0], 0.0)
    h = np.maximum(rects[:, 3] - rects[:, 1], 0.0)
    out = 2.0 * (w + h)
    out[is_empty(rects)] = 0.0
    return out


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise smallest rectangle enclosing both inputs."""
    a = _as2d(a)
    b = _as2d(b)
    return np.column_stack([
        np.minimum(a[:, 0], b[:, 0]), np.minimum(a[:, 1], b[:, 1]),
        np.maximum(a[:, 2], b[:, 2]), np.maximum(a[:, 3], b[:, 3]),
    ])


def intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise intersection (empty-encoded where disjoint)."""
    a = _as2d(a)
    b = _as2d(b)
    out = np.column_stack([
        np.maximum(a[:, 0], b[:, 0]), np.maximum(a[:, 1], b[:, 1]),
        np.minimum(a[:, 2], b[:, 2]), np.minimum(a[:, 3], b[:, 3]),
    ])
    bad = is_empty(out)
    out[bad] = EMPTY_RECT
    return out


def intersection_area(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise overlap area -- the quantity the R*-style split minimises."""
    return area(intersection(a, b))


def union_area_pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise area of the bounding union -- coverage, Guttman's goal."""
    return area(union(a, b))


def contains_rect(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """True where ``outer`` spatially contains ``inner`` (closed; every
    rectangle contains the empty rectangle)."""
    outer = _as2d(outer)
    inner = _as2d(inner)
    inside = ((outer[:, 0] <= inner[:, 0]) & (outer[:, 1] <= inner[:, 1]) &
              (outer[:, 2] >= inner[:, 2]) & (outer[:, 3] >= inner[:, 3]))
    return inside | is_empty(inner)


def contains_point(rects: np.ndarray, px, py) -> np.ndarray:
    """Closed-box point membership, row-wise."""
    rects = _as2d(rects)
    px = np.asarray(px, float)
    py = np.asarray(py, float)
    return ((rects[:, 0] <= px) & (px <= rects[:, 2]) &
            (rects[:, 1] <= py) & (py <= rects[:, 3]))


def contains_point_halfopen(rects: np.ndarray, px, py,
                            domain: float | None = None) -> np.ndarray:
    """Half-open membership ``[xmin, xmax) x [ymin, ymax)``.

    This is the **vertex membership** convention of the quadtree builders
    (DESIGN.md Section 5): every point belongs to exactly one block of a
    disjoint decomposition.  When ``domain`` is given, the global
    top/right boundary at ``x == domain`` / ``y == domain`` is treated as
    closed so boundary vertices are not orphaned.
    """
    rects = _as2d(rects)
    px = np.asarray(px, float)
    py = np.asarray(py, float)
    in_x = (rects[:, 0] <= px) & (px < rects[:, 2])
    in_y = (rects[:, 1] <= py) & (py < rects[:, 3])
    if domain is not None:
        in_x |= (px == domain) & (rects[:, 2] == domain) & (rects[:, 0] <= px)
        in_y |= (py == domain) & (rects[:, 3] == domain) & (rects[:, 1] <= py)
    return in_x & in_y


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """True where closed rectangles share at least a boundary point."""
    a = _as2d(a)
    b = _as2d(b)
    return ((a[:, 0] <= b[:, 2]) & (b[:, 0] <= a[:, 2]) &
            (a[:, 1] <= b[:, 3]) & (b[:, 1] <= a[:, 3]) &
            ~is_empty(a) & ~is_empty(b))


def enlargement(node_rects: np.ndarray, entry_rects: np.ndarray) -> np.ndarray:
    """Area growth of each node rectangle needed to admit each entry.

    The quantity Guttman's ChooseLeaf minimises when descending the
    R-tree (paper Section 2.3).
    """
    return area(union(node_rects, entry_rects)) - area(node_rects)


def child_boxes(boxes: np.ndarray) -> np.ndarray:
    """The four quadrants of every box: ``(..., 4)`` -> ``(..., 4, 4)``.

    Axis -2 is the child code (0=SW, 1=SE, 2=NW, 3=NE); one elementwise
    midpoint computation however many boxes are cut.
    """
    boxes = np.asarray(boxes, dtype=float)
    x0, y0, x1, y1 = (boxes[..., c] for c in range(4))
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)
    return np.stack([
        np.stack([x0, y0, cx, cy], axis=-1), np.stack([cx, y0, x1, cy], axis=-1),
        np.stack([x0, cy, cx, y1], axis=-1), np.stack([cx, cy, x1, y1], axis=-1),
    ], axis=-2)


def rects_from_segments(segments: np.ndarray) -> np.ndarray:
    """Minimum bounding rectangle of each segment row ``[x1, y1, x2, y2]``."""
    s = np.atleast_2d(np.asarray(segments, dtype=float))
    if s.shape[1] != 4:
        raise ValueError(f"segments must have shape (n, 4), got {s.shape}")
    return np.column_stack([
        np.minimum(s[:, 0], s[:, 2]), np.minimum(s[:, 1], s[:, 3]),
        np.maximum(s[:, 0], s[:, 2]), np.maximum(s[:, 1], s[:, 3]),
    ])
