"""R-tree node-split selection (paper Section 4.7, Figure 29).

Two data-parallel algorithms choose how an overflowing R-tree node's
entries (bounding rectangles) are divided between two new nodes.  Both
run simultaneously on every overflowing segment.

**Algorithm 1 -- mean split, O(1) per round.**  For each axis, the mean
of the entry-midpoint coordinates is computed with a segmented sum scan
and broadcast back with a copy scan; entries fall left or right of the
mean, min/max scans give the two resulting bounding boxes, and the axis
with the smaller box-box overlap wins.

**Algorithm 2 -- sorted sweep, O(log n) per round.**  For each axis,
entries are sorted by the low edge of their rectangle; upward inclusive
min/max scans give the bounding box of every prefix ("L Bbox" in Figure
29) and downward *exclusive* scans the box of every suffix ("R Bbox").
Every legal cut -- both sides receiving at least ``m`` entries -- is
scored by overlap area, ties broken by total perimeter, and the axis
with the better best-cut wins.

Either algorithm returns a per-entry boolean ``side`` (False = left
node) in the **original** entry order, ready for the unshuffle that
realises the split (Figure 40), plus per-segment diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry import rect as _rect
from ..machine import Machine, Segments, get_machine
from ..machine.broadcast import seg_broadcast, seg_reduce
from ..machine.scans import seg_scan_columns
from ..machine.sort import seg_rank

__all__ = ["RtreeSplitChoice", "mean_split", "sweep_split", "prefix_suffix_boxes"]


@dataclass(frozen=True)
class RtreeSplitChoice:
    """Chosen split for every segment.

    Attributes
    ----------
    side:
        Per-entry flag in original order; True goes to the right node.
    axis:
        Per-segment winning axis (0 = x, 1 = y).
    overlap:
        Per-segment overlap area of the two resulting boxes.
    left_box, right_box:
        Per-segment resulting bounding rectangles, ``(nseg, 4)``.
    """

    side: np.ndarray
    axis: np.ndarray
    overlap: np.ndarray
    left_box: np.ndarray
    right_box: np.ndarray


def _group_boxes(rects: np.ndarray, side: np.ndarray, segments: Segments,
                 m: Machine) -> tuple[np.ndarray, np.ndarray]:
    """Bounding boxes of the left/right groups of each segment (scans)."""
    signed = rects * _rect.UNION_SIGNS

    def union_of(group: np.ndarray) -> np.ndarray:   # non-members: the empty box
        masked = np.where(group[:, None], signed, np.inf)
        return seg_reduce(masked, segments, "min", machine=m) * _rect.UNION_SIGNS

    left, right = union_of(~side), union_of(side)
    m.record("elementwise", segments.n)
    return left, right


def mean_split(rects: np.ndarray, segments: Segments,
               machine: Optional[Machine] = None) -> RtreeSplitChoice:
    """Algorithm 1: split at the mean of the bounding-box midpoints.

    O(1) scans per invocation regardless of segment sizes.  Degenerate
    cases (all midpoints equal on the winning axis, so one side would be
    empty) fall back to a balanced rank split on that axis, keeping the
    primitive total a constant.
    """
    rects = _rect.validate_rects(rects)
    if rects.shape[0] != segments.n:
        raise ValueError("one rectangle per vector slot required")
    m = machine or get_machine()
    n = segments.n

    sides = []
    overlaps = []
    boxes = []
    counts = seg_reduce(np.ones(n, dtype=np.int64), segments, "+", machine=m)
    for axis in (0, 1):
        mid = 0.5 * (rects[:, 0 + axis] + rects[:, 2 + axis])
        m.record("elementwise", n)
        total = seg_reduce(mid, segments, "+", machine=m)
        mean = total / counts
        m.record("elementwise", segments.nseg)
        mean_b = seg_broadcast(mean, segments, machine=m)
        side = mid > mean_b
        m.record("elementwise", n)
        # guard: if every midpoint ties with the mean one side is empty;
        # fall back to a balanced split by within-segment rank.
        nright = seg_reduce(side.astype(np.int64), segments, "+", machine=m)
        degenerate = (nright == 0) | (nright == counts)
        if degenerate.any():
            ranks = seg_rank(mid, segments, machine=m)
            offset = ranks - segments.heads[segments.ids]
            half = seg_broadcast(counts // 2, segments, machine=m)
            balanced = offset >= half
            m.record("elementwise", n)
            side = np.where(seg_broadcast(degenerate, segments, machine=m), balanced, side)
        lbox, rbox = _group_boxes(rects, side, segments, m)
        overlaps.append(_rect.intersection_area(lbox, rbox))
        m.record("elementwise", segments.nseg)
        sides.append(side)
        boxes.append((lbox, rbox))

    axis = (overlaps[1] < overlaps[0]).astype(np.int64)
    m.record("elementwise", segments.nseg)
    axis_b = seg_broadcast(axis, segments, machine=m).astype(bool)
    side = np.where(axis_b, sides[1], sides[0])
    m.record("elementwise", n)
    overlap = np.where(axis == 1, overlaps[1], overlaps[0])
    left = np.where(axis[:, None] == 1, boxes[1][0], boxes[0][0])
    right = np.where(axis[:, None] == 1, boxes[1][1], boxes[0][1])
    return RtreeSplitChoice(side, axis, overlap, left, right)


def prefix_suffix_boxes(rects_sorted: np.ndarray, segments: Segments,
                        machine: Optional[Machine] = None) -> tuple[np.ndarray, np.ndarray]:
    """Figure 29's scan stage on already-sorted rectangles.

    Returns ``(L, R)``: ``L[i]`` is the bounding box of the sorted
    segment prefix ending at (and including) entry ``i`` (upward
    inclusive min/max scans); ``R[i]`` is the box of the suffix strictly
    after ``i`` (downward exclusive scans).  Empty suffixes are
    inf-encoded, exactly the scan identities.
    """
    rects_sorted = _rect.validate_rects(rects_sorted)
    m = machine or get_machine()
    # the four coordinate scans of each direction as one min-scan
    signed = rects_sorted * _rect.UNION_SIGNS
    L = seg_scan_columns(signed, segments, "min", "up", True, machine=m)
    R = seg_scan_columns(signed, segments, "min", "down", False, machine=m)
    return L * _rect.UNION_SIGNS, R * _rect.UNION_SIGNS


def _axis_candidate(rects: np.ndarray, segments: Segments, min_counts: np.ndarray,
                    axis: int, m: Machine):
    """Best legal cut along one axis; returns per-segment and per-entry data."""
    n = segments.n
    key = rects[:, 0 + axis]
    ranks = seg_rank(key, segments, machine=m)

    m.record("permute", n)
    inv = np.empty(n, dtype=np.int64)
    inv[ranks] = np.arange(n, dtype=np.int64)  # inv: sorted slot -> original
    rects_sorted = np.take(rects, inv, axis=0)

    L, R = prefix_suffix_boxes(rects_sorted, segments, machine=m)

    offsets = segments.offsets_within()
    length_b = seg_broadcast(segments.lengths, segments, machine=m)
    min_b = seg_broadcast(min_counts, segments, machine=m)
    k = offsets + 1                       # cutting after sorted slot i puts k entries left
    legal = (k >= min_b) & (length_b - k >= min_b)
    m.record("elementwise", n)

    overlap = _rect.intersection_area(L, R)
    perim = _rect.perimeter(L) + _rect.perimeter(R)
    m.record("elementwise", n)
    m.record("elementwise", n)

    inf = np.inf
    score_o = np.where(legal, overlap, inf)
    best_o = seg_reduce(score_o, segments, "min", machine=m)
    best_o_b = seg_broadcast(best_o, segments, machine=m)
    score_p = np.where(legal & (score_o == best_o_b), perim, inf)
    m.record("elementwise", n)
    best_p = seg_reduce(score_p, segments, "min", machine=m)
    best_p_b = seg_broadcast(best_p, segments, machine=m)
    score_k = np.where(score_p == best_p_b, offsets, np.iinfo(np.int64).max)
    m.record("elementwise", n)
    best_k = seg_reduce(score_k, segments, "min", machine=m)

    # side in original order: entries whose sorted offset exceeds the cut
    best_k_b = seg_broadcast(best_k, segments, machine=m)
    side_sorted = offsets > best_k_b
    m.record("elementwise", n)
    m.record("permute", n)
    side = np.empty(n, dtype=bool)
    side[inv] = side_sorted                # map back to original order

    cut_index = segments.heads + best_k    # sorted slot of the last left entry
    lbox = L[np.clip(cut_index, 0, max(n - 1, 0))] if n else np.zeros((0, 4))
    rbox = R[np.clip(cut_index, 0, max(n - 1, 0))] if n else np.zeros((0, 4))
    return side, best_o, best_p, lbox, rbox


def sweep_split(rects: np.ndarray, segments: Segments, min_fill: int = 1,
                node_capacity: Optional[int] = None,
                machine: Optional[Machine] = None) -> RtreeSplitChoice:
    """Algorithm 2: sorted-sweep split minimising bounding-box overlap.

    ``min_fill`` is the R-tree's ``m``.  The paper defines a cut as
    legal "where each of the two resulting nodes receives at least m/M
    of the lines being redistributed": when ``node_capacity`` (the
    R-tree's ``M``) is given, each side must receive at least
    ``max(m, ceil(len * m / M))`` entries -- the fractional bound is
    what makes node sizes shrink geometrically and the build finish in
    O(log n) rounds.  Without ``node_capacity`` the bound is the
    absolute ``m``.  Segments shorter than ``2 * min_fill`` are rejected
    (an order-(m, M) R-tree never asks, since overflowing nodes hold at
    least ``M + 1 >= 2m + 1`` entries).
    """
    rects = _rect.validate_rects(rects)
    if rects.shape[0] != segments.n:
        raise ValueError("one rectangle per vector slot required")
    if min_fill < 1:
        raise ValueError("min_fill must be >= 1")
    if segments.nseg and int(segments.lengths.min()) < 2 * min_fill:
        raise ValueError("a segment is too small to split with the given min_fill")
    m = machine or get_machine()
    n = segments.n

    lengths = segments.lengths
    if node_capacity is not None:
        if node_capacity < 2 * min_fill:
            raise ValueError("node_capacity must be at least 2 * min_fill")
        # floor keeps a legal cut feasible for every length (2m <= M implies
        # 2 * floor(len * m / M) <= len), capped at len // 2 for safety.
        min_counts = np.minimum(
            np.maximum(min_fill, lengths * min_fill // node_capacity),
            lengths // 2)
    else:
        min_counts = np.minimum(np.full(segments.nseg, min_fill, dtype=np.int64),
                                lengths // 2)
        min_counts = np.maximum(min_counts, 1)

    res_x = _axis_candidate(rects, segments, min_counts, 0, m)
    res_y = _axis_candidate(rects, segments, min_counts, 1, m)

    ox, px_ = res_x[1], res_x[2]
    oy, py_ = res_y[1], res_y[2]
    axis = ((oy < ox) | ((oy == ox) & (py_ < px_))).astype(np.int64)
    m.record("elementwise", segments.nseg)
    axis_b = seg_broadcast(axis, segments, machine=m).astype(bool)
    side = np.where(axis_b, res_y[0], res_x[0])
    m.record("elementwise", n)
    overlap = np.where(axis == 1, oy, ox)
    left = np.where(axis[:, None] == 1, res_y[3], res_x[3])
    right = np.where(axis[:, None] == 1, res_y[4], res_x[4])
    return RtreeSplitChoice(side, axis, overlap, left, right)
