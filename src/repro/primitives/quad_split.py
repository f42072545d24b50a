"""Quadtree node splitting (paper Section 4.6, Figures 23-28).

Splitting a quadtree node is a two-stage process operating on the line
processor vector:

1. the node is cut at its horizontal midline ``y = cy``: every line
   whose q-edge meets both halves is **cloned** (Figure 24), each line
   then decides whether it lies in the bottom (B) or top (T) half, and
   an **unshuffle** concentrates the two groups (Figures 25-26);
2. the two halves are cut at the vertical midline ``x = cx`` the same
   way (Figures 26-28).

Children therefore emerge in ``SW, SE, NW, NE`` order (Morton order with
y as the high bit).  Q-edge membership is closed-box intersection, so a
line touching a split axis inside the node belongs to both sides and is
cloned -- Samet's convention (DESIGN.md Section 5).

Many nodes split in the same round: the primitive takes a per-segment
``split_flags`` vector and performs every split simultaneously with one
fixed sequence of scans, clones, unshuffles and permutes (this is what
makes each build round O(1) primitives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..machine import Machine, Segments, get_machine
from ..machine.broadcast import seg_broadcast
from .cloning import clone
from .unshuffle import unshuffle

__all__ = ["QuadSplitResult", "split_quad_nodes"]


@dataclass(frozen=True)
class QuadSplitResult:
    """Outcome of one simultaneous node-splitting round.

    Attributes
    ----------
    segs_xy:
        Line geometry after cloning and regrouping, ``(n', 4)``.
    payloads:
        The carried payload vectors, by name, likewise moved.
    segments:
        New descriptor: each splitting segment is replaced by its
        non-empty child groups, in ``SW, SE, NW, NE`` order; non-splitting
        segments pass through unchanged.
    parent_seg:
        For each new segment, the input segment it came from.
    child_code:
        For each new segment, the child quadrant (0=SW, 1=SE, 2=NW,
        3=NE) when the parent split, else -1.
    """

    segs_xy: np.ndarray
    payloads: Dict[str, np.ndarray]
    segments: Segments
    parent_seg: np.ndarray
    child_code: np.ndarray


def _half_boxes(boxes: np.ndarray, axis: int, mid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper halves of per-line node boxes cut at ``mid`` on ``axis``."""
    low = boxes.copy()
    high = boxes.copy()
    low[:, 2 + axis] = mid
    high[:, 0 + axis] = mid
    return low, high


def _stage(segs_xy: np.ndarray, boxes: np.ndarray, payload: Dict[str, np.ndarray],
           seg: Segments, splitting: np.ndarray, axis: int,
           m: Machine):
    """One half-split stage: clone axis-crossers, partition low/high.

    ``axis`` is 1 for the first (y) stage and 0 for the second (x) stage.
    Returns ``(segs_xy, boxes, payload, segments, side, splitting)``:
    updated geometry, node boxes, payloads, segment descriptor, per-line
    side bits (0 = low half, 1 = high half; 0 for lines whose node is
    not splitting) and the splitting flag re-aligned to the new layout.
    """
    n = seg.n
    mid = 0.5 * (boxes[:, 0 + axis] + boxes[:, 2 + axis])
    m.record("elementwise", n)
    low_box, high_box = _half_boxes(boxes, axis, mid)

    in_low = segments_intersect_rects(segs_xy, low_box)
    in_high = segments_intersect_rects(segs_xy, high_box)
    m.record("elementwise", n)
    m.record("elementwise", n)
    crossing = in_low & in_high & splitting
    m.record("elementwise", n)

    # geometry and boxes travel as (n, 4) payloads: one routing each
    names = list(payload)
    cr = clone(crossing, segs_xy, boxes, splitting, in_high, crossing,
               *[payload[k] for k in names], segments=seg, machine=m)
    segs_xy, boxes, splitting, in_high, crossing = cr.arrays[:5]
    payload = dict(zip(names, cr.arrays[5:]))
    seg = cr.segments
    n = seg.n

    # side: clones take the high half, crossing originals the low half,
    # everyone else the (unique) half its q-edge meets; non-splitting
    # segments uniformly report low so their order is untouched.
    m.record("elementwise", n)
    side = np.where(crossing, cr.is_clone, in_high) & splitting

    ur = unshuffle(side, segs_xy, boxes, splitting, side,
                   *[payload[k] for k in names], segments=seg, machine=m)
    segs_xy, boxes, splitting, side = ur.arrays[:4]
    payload = dict(zip(names, ur.arrays[4:]))

    # shrink each split line's node box to the half it now lives in
    mid = 0.5 * (boxes[:, 0 + axis] + boxes[:, 2 + axis])
    m.record("elementwise", n)
    lo_col, hi_col = 0 + axis, 2 + axis
    boxes[:, hi_col] = np.where(splitting & ~side, mid, boxes[:, hi_col])
    boxes[:, lo_col] = np.where(splitting & side, mid, boxes[:, lo_col])

    new_ids = seg.ids * 2 + side.astype(np.int64)
    new_seg = Segments.from_ids(new_ids)
    return segs_xy, boxes, payload, new_seg, side.astype(np.int64), splitting


def split_quad_nodes(segs_xy: np.ndarray, node_boxes: np.ndarray,
                     segments: Segments, split_flags: np.ndarray,
                     payloads: Optional[Dict[str, np.ndarray]] = None,
                     machine: Optional[Machine] = None) -> QuadSplitResult:
    """Split every flagged node into four quadrants simultaneously.

    Parameters
    ----------
    segs_xy:
        ``(n, 4)`` line geometry.
    node_boxes:
        ``(nseg, 4)`` box of each node (one per segment).
    segments:
        Current node grouping.
    split_flags:
        ``(nseg,)`` boolean verdicts (from the capacity check or the PM1
        rule).
    payloads:
        Optional named vectors (line ids, etc.) to carry along.
    """
    segs_xy = np.asarray(segs_xy, dtype=float)
    node_boxes = np.asarray(node_boxes, dtype=float)
    split_flags = np.asarray(split_flags, dtype=bool)
    if segs_xy.shape != (segments.n, 4):
        raise ValueError("segs_xy must be (n, 4) matching the segment descriptor")
    if node_boxes.shape != (segments.nseg, 4):
        raise ValueError("node_boxes must be (nseg, 4)")
    if split_flags.shape != (segments.nseg,):
        raise ValueError("split_flags must have one entry per segment")
    payload = {k: np.asarray(v) for k, v in (payloads or {}).items()}
    for k, v in payload.items():
        if v.shape[:1] != (segments.n,):
            raise ValueError(f"payload {k!r} length mismatch")

    m = machine or get_machine()

    # every line learns its node's box and the split decision (broadcasts)
    boxes = seg_broadcast(node_boxes, segments, machine=m)
    splitting = seg_broadcast(split_flags, segments, machine=m).astype(bool)

    payload["__orig_seg__"] = segments.ids.copy()

    # stage 1: cut at y = cy (bottom | top), stage 2: cut at x = cx
    segs_xy, boxes, payload, seg1, side1, splitting = _stage(
        segs_xy, boxes, payload, segments, splitting, axis=1, m=m)
    payload["__side1__"] = side1
    segs_xy, boxes, payload, seg2, side2, splitting = _stage(
        segs_xy, boxes, payload, seg1, splitting, axis=0, m=m)

    side1 = payload.pop("__side1__")
    orig_seg = payload.pop("__orig_seg__")

    child = 2 * side1 + side2
    heads = seg2.heads
    parent_seg = orig_seg[heads]
    was_split = split_flags[parent_seg]
    child_code = np.where(was_split, child[heads], -1)

    return QuadSplitResult(
        segs_xy=segs_xy,
        payloads=payload,
        segments=seg2,
        parent_seg=parent_seg.astype(np.int64),
        child_code=child_code.astype(np.int64),
    )
