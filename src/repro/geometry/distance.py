"""Vectorised distance predicates for nearest-neighbour search.

Supports the nearest-line queries: point-to-segment distance scores
candidates (the waves of :mod:`repro.structures.batch` and the brute
oracle), point-to-rectangle distance lower-bounds whole shards so a
sharded wave can skip them (a rectangle farther than the current best
cannot contain a closer line).
"""

from __future__ import annotations

import numpy as np

from .rect import validate_rects
from .segment import validate_segments

__all__ = ["point_segment_distance", "point_rect_distance",
           "points_segments_distance", "points_rects_distance",
           "points_rects_max_distance", "segment_intersection_points"]


def _paired(points, rows: np.ndarray, name: str) -> np.ndarray:
    """``points`` as ``(n, 2)``, one per row of ``rows``."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    if p.shape != (rows.shape[0], 2):
        raise ValueError(f"points must have shape (n, 2) matching {name}")
    return p


def point_segment_distance(px: float, py: float, segments: np.ndarray) -> np.ndarray:
    """Euclidean distance from the point to each closed segment."""
    s = validate_segments(segments)
    return points_segments_distance(np.broadcast_to([px, py], (len(s), 2)), s)


def point_rect_distance(px: float, py: float, rects: np.ndarray) -> np.ndarray:
    """Euclidean distance from the point to each closed rectangle.

    Zero inside or on the boundary; the branch-and-bound lower bound for
    any geometry the rectangle contains.
    """
    r = validate_rects(rects)
    return points_rects_distance(np.broadcast_to([px, py], (len(r), 2)), r)


def points_segments_distance(points: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance from ``points[i]`` to ``segments[i]``.

    The pairwise form of :func:`point_segment_distance` used by the
    batched nearest-line frontier, where every (query, candidate) pair
    carries its own point.
    """
    s = validate_segments(segments)
    p = _paired(points, s, "segments")
    x1, y1, x2, y2 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    dx = x2 - x1
    dy = y2 - y1
    len2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(len2 > 0,
                     ((p[:, 0] - x1) * dx + (p[:, 1] - y1) * dy) / len2, 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(p[:, 0] - (x1 + t * dx), p[:, 1] - (y1 + t * dy))


def points_rects_distance(points: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance from ``points[i]`` to ``rects[i]``.

    The pairwise form of :func:`point_rect_distance`: the lower bound a
    batched branch-and-bound frontier prunes on, one (query, node) pair
    per row.
    """
    r = validate_rects(rects)
    p = _paired(points, r, "rects")
    dx = np.maximum(np.maximum(r[:, 0] - p[:, 0], p[:, 0] - r[:, 2]), 0.0)
    dy = np.maximum(np.maximum(r[:, 1] - p[:, 1], p[:, 1] - r[:, 3]), 0.0)
    return np.hypot(dx, dy)


def points_rects_max_distance(points: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Row-wise distance from ``points[i]`` to the farthest corner of ``rects[i]``.

    For a node known to hold at least one line, this bounds the distance
    to *some* line in its subtree from above, so it is a valid upper
    bound for batched branch-and-bound pruning (the min-max distance of
    classic nearest-neighbour search, specialised to rectangles).
    """
    r = validate_rects(rects)
    p = _paired(points, r, "rects")
    dx = np.maximum(np.abs(p[:, 0] - r[:, 0]), np.abs(p[:, 0] - r[:, 2]))
    dy = np.maximum(np.abs(p[:, 1] - r[:, 1]), np.abs(p[:, 1] - r[:, 3]))
    return np.hypot(dx, dy)


def segment_intersection_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise intersection point of two properly crossing segment sets.

    Returns an ``(n, 2)`` array.  For non-intersecting pairs the row is
    NaN; for collinear-overlap pairs (no unique point) the midpoint of
    the shared extent is returned.  Endpoint touches resolve to the
    touch point.  Used by the map-overlay pipeline to materialise the
    crossing geometry of joined pairs.
    """
    a = validate_segments(a, "a")
    b = validate_segments(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError("row counts differ")
    p = a[:, 0:2]
    r = a[:, 2:4] - p
    q = b[:, 0:2]
    s = b[:, 2:4] - q
    rxs = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    qp = q - p
    qpxr = qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]
    out = np.full((a.shape[0], 2), np.nan)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / rxs
        u = qpxr / rxs
    proper = (rxs != 0) & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    out[proper] = p[proper] + t[proper, None] * r[proper]

    # collinear overlap: project b's endpoints onto a's parameter line
    collinear = (rxs == 0) & (qpxr == 0)
    if collinear.any():
        idx = np.flatnonzero(collinear)
        rr = r[idx]
        len2 = (rr * rr).sum(axis=1)
        safe = len2 > 0
        t0 = np.zeros(idx.size)
        t1 = np.zeros(idx.size)
        t0[safe] = ((q[idx] - p[idx]) * rr)[safe].sum(axis=1) / len2[safe]
        t1[safe] = ((q[idx] + s[idx] - p[idx]) * rr)[safe].sum(axis=1) / len2[safe]
        lo = np.maximum(np.minimum(t0, t1), 0.0)
        hi = np.minimum(np.maximum(t0, t1), 1.0)
        overlap = hi >= lo
        mid = 0.5 * (lo + hi)
        pts = p[idx] + mid[:, None] * rr
        sub = np.full((idx.size, 2), np.nan)
        sub[overlap] = pts[overlap]
        # degenerate a (a point): the point itself, but only if it lies on b
        degen = ~safe
        for j in np.flatnonzero(degen):
            row = idx[j]
            d = point_segment_distance(p[row, 0], p[row, 1], b[row][None, :])[0]
            sub[j] = p[row] if d == 0.0 else np.nan
        out[idx] = sub
    return out
