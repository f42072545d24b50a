"""PM1 split determination (paper Section 4.5, Figures 20-22).

Whether a PM1 quadtree node must subdivide needs more information than a
line count.  With ``EPs`` = the number of endpoints each line has inside
the node (0, 1 or 2), and per-node maxima/minima of ``EPs`` obtained by
segmented scans, the decision tree is:

* ``max == 2``                      -> split (two vertices of one line);
* ``max == 1 and min == 0``         -> split (a vertex plus a passing
  line that cannot share it);
* ``max == min == 1``               -> split unless the minimum bounding
  box of the in-node endpoints is a single point (then every line shares
  that one vertex -- Figure 21);
* ``max == min == 0``               -> split iff more than one line
  passes through (a vertex-free leaf may hold at most one q-edge --
  Figure 22).

Vertex membership is **half-open** (DESIGN.md Section 5): each endpoint
belongs to exactly one node of the disjoint decomposition, with the
global top/right boundary closed so nothing is orphaned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry.rect import UNION_SIGNS, contains_point_halfopen
from ..machine import Machine, Segments, get_machine
from ..machine.broadcast import seg_reduce

__all__ = ["PM1SplitDecision", "pm1_should_split"]


@dataclass(frozen=True)
class PM1SplitDecision:
    """Per-node split verdict plus the intermediate scan products.

    ``must_split`` is the verdict; the remaining fields are the
    quantities Figures 20-22 annotate, kept for tests and tracing.
    """

    must_split: np.ndarray
    max_eps: np.ndarray
    min_eps: np.ndarray
    mbb: np.ndarray           # (nseg, 4) endpoint MBB (inf-encoded when none)
    line_counts: np.ndarray


def pm1_should_split(segs_xy: np.ndarray, line_boxes: np.ndarray,
                     segments: Segments, domain: float,
                     machine: Optional[Machine] = None) -> PM1SplitDecision:
    """Decide which nodes must subdivide (one verdict per segment).

    Parameters
    ----------
    segs_xy:
        ``(n, 4)`` line geometry, one row per line processor.
    line_boxes:
        ``(n, 4)`` box of the node each line currently resides in
        (every line stores its node's size and position -- Section 4.6).
    segments:
        Node grouping of the line processors.
    domain:
        Side of the global space (closes the top/right boundary for
        vertex membership).
    """
    segs_xy = np.asarray(segs_xy, dtype=float)
    if segs_xy.shape != (segments.n, 4):
        raise ValueError("segs_xy must be (n, 4) matching the segment descriptor")
    line_boxes = np.asarray(line_boxes, dtype=float)
    if line_boxes.shape != (segments.n, 4):
        raise ValueError("line_boxes must be (n, 4) matching the segment descriptor")

    m = machine or get_machine()
    n = segments.n

    p1_in = contains_point_halfopen(line_boxes, segs_xy[:, 0], segs_xy[:, 1], domain)
    p2_in = contains_point_halfopen(line_boxes, segs_xy[:, 2], segs_xy[:, 3], domain)
    m.record("elementwise", n)
    m.record("elementwise", n)
    eps = p1_in.astype(np.int64) + p2_in.astype(np.int64)
    m.record("elementwise", n)

    max_eps = seg_reduce(eps, segments, "max", machine=m)
    min_eps = seg_reduce(eps, segments, "min", machine=m)

    # Figure 21: MBB of the endpoints lying inside the node, as one
    # min-reduction over UNION_SIGNS-signed columns.  Endpoints outside
    # contribute the empty box (the scan identity).
    signed = np.minimum(
        np.where(p1_in[:, None], segs_xy[:, [0, 1, 0, 1]] * UNION_SIGNS, np.inf),
        np.where(p2_in[:, None], segs_xy[:, [2, 3, 2, 3]] * UNION_SIGNS, np.inf))
    m.record("elementwise", n)
    m.record("elementwise", n)
    mbb = seg_reduce(signed, segments, "min", machine=m) * UNION_SIGNS

    # Figure 22: plain line count for the vertex-free case.
    counts = seg_reduce(np.ones(n, dtype=np.int64), segments, "+", machine=m)

    mbb_is_point = (mbb[:, 0] == mbb[:, 2]) & (mbb[:, 1] == mbb[:, 3])
    m.record("elementwise", segments.nseg)
    must_split = np.where(
        max_eps == 2, True,
        np.where(
            (max_eps == 1) & (min_eps == 0), True,
            np.where(
                (max_eps == 1) & (min_eps == 1), ~mbb_is_point,
                counts > 1,  # max == min == 0
            ),
        ),
    ).astype(bool)
    m.record("elementwise", segments.nseg)

    return PM1SplitDecision(must_split, max_eps, min_eps, mbb, counts)
