"""Data-parallel bucket PMR quadtree construction (paper Section 5.2).

In the data-parallel environment every line is inserted simultaneously,
so the classic PMR quadtree's split-once rule -- whose result depends on
insertion order (Figure 34) -- is replaced by the **bucket** PMR rule:
an overflowing block splits repeatedly until every sub-bucket holds at
most ``capacity`` lines or the maximal resolution is reached.  The
resulting shape is *independent of insertion order*, which is exactly
why the paper adopts it.

Each round is a capacity check (Section 4.4) followed by the
simultaneous node split (Section 4.6); a node at the maximal depth is
left alone even when over capacity, like node 9 in Figure 38.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..machine import Machine, Segments
from ..primitives.capacity import overflowing_nodes
from .build import BuildTrace, SplitRule, build_quadtree
from .quadblock import Quadtree

__all__ = ["build_bucket_pmr", "BucketPMRQuadtree", "occupancy_bound_ok", "pmr_rule"]

BucketPMRQuadtree = Quadtree  # the bucket PMR result type is the generic quadtree


def build_bucket_pmr(lines: np.ndarray, domain: int, capacity: int,
                     max_depth: Optional[int] = None,
                     machine: Optional[Machine] = None) -> tuple[Quadtree, BuildTrace]:
    """Build the data-parallel bucket PMR quadtree.

    Parameters
    ----------
    lines:
        ``(n, 4)`` segments inside ``[0, domain]^2``.
    domain:
        Space side, a power of two.
    capacity:
        Maximal bucket occupancy ``b``; blocks above it split (until
        ``max_depth``).
    max_depth:
        The quadtree's maximal height (Figure 4 uses 3 on the 8x8
        space); defaults to the 1x1-block resolution.
    """
    return build_quadtree(lines, domain, pmr_rule(capacity), max_depth=max_depth,
                          machine=machine)


def pmr_rule(capacity: int) -> SplitRule:
    """The bucket split rule: a node splits while it holds more than
    ``capacity`` lines (the Section 4.4 capacity check)."""
    if capacity < 1:
        raise ValueError("bucket capacity must be at least 1")

    def rule(segs_xy: np.ndarray, segments: Segments, node_boxes: np.ndarray,
             node_levels: np.ndarray, m: Machine) -> np.ndarray:
        return overflowing_nodes(segments, capacity, machine=m)
    return rule


def occupancy_bound_ok(tree: Quadtree, capacity: int) -> bool:
    """Check the paper's occupancy bound (Section 2.2).

    Below the maximal depth, a bucket's occupancy never exceeds
    ``capacity``; buckets *at* the maximal depth may hold any number.
    (The classical PMR bound ``threshold + depth`` applies to the
    split-once rule; the bucket variant is strictly tighter because it
    splits until the bound holds.)
    """
    counts = np.diff(tree.node_ptr)
    leaf = tree.is_leaf
    below_cap = tree.level < tree.max_depth
    return bool(np.all(counts[leaf & below_cap] <= capacity))
