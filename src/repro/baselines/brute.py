"""Brute-force query oracles.

Ground truth for every query the structures answer; used by the test
suite and the query benchmarks.  All oracles are vectorised single
passes over the whole line set -- O(n) per query, no index.
"""

from __future__ import annotations

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..geometry.distance import point_segment_distance
from ..geometry.rect import rects_from_segments, validate_rects
from ..geometry.segment import validate_segments

__all__ = ["brute_window_query", "brute_point_query", "brute_bbox_query",
           "brute_nearest"]


def brute_window_query(lines: np.ndarray, rect) -> np.ndarray:
    """Ids of lines whose geometry intersects the closed rectangle."""
    lines = validate_segments(lines)
    rect = validate_rects(np.asarray(rect, float).reshape(1, 4))[0]
    if lines.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    hit = segments_intersect_rects(lines, np.tile(rect, (lines.shape[0], 1)))
    return np.flatnonzero(hit)


def brute_point_query(lines: np.ndarray, px: float, py: float) -> np.ndarray:
    """Ids of lines passing through the point (degenerate window)."""
    return brute_window_query(lines, [px, py, px, py])


def brute_bbox_query(lines: np.ndarray, rect) -> np.ndarray:
    """Ids of lines whose *bounding box* overlaps the rectangle.

    The filter-step oracle: R-tree candidate sets are compared against
    this before the exact refinement.
    """
    lines = validate_segments(lines)
    rect = validate_rects(np.asarray(rect, float).reshape(1, 4))[0]
    if lines.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    bb = rects_from_segments(lines)
    hit = ((bb[:, 0] <= rect[2]) & (rect[0] <= bb[:, 2]) &
           (bb[:, 1] <= rect[3]) & (rect[1] <= bb[:, 3]))
    return np.flatnonzero(hit)


def brute_nearest(lines: np.ndarray, px: float, py: float) -> tuple[int, float]:
    """Exhaustive nearest line; returns ``(line_id, distance)``, ties
    to the lowest id."""
    lines = np.atleast_2d(np.asarray(lines, dtype=float))
    if lines.shape[0] == 0:
        raise ValueError("empty line set has no nearest line")
    d = point_segment_distance(px, py, lines)
    best = int(np.argmin(d))  # argmin takes the first == lowest id on ties
    return best, float(d[best])
