"""Node capacity check (paper Section 4.4, Figure 19).

For decompositions whose splitting rule looks only at the number of
items in a node -- the bucket PMR quadtree and the R-tree -- a node
overflows when its segment group holds more lines than the capacity.
The count is obtained with a downward inclusive segmented addition scan
(whose value at each segment head is the group total), and the decision
is broadcast back to the lines so each processor knows whether it is
about to take part in a split.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..machine import Machine, Segments, get_machine
from ..machine.broadcast import seg_broadcast, seg_count

__all__ = ["node_counts", "overflowing_nodes", "overflow_per_line"]


def node_counts(segments: Segments, machine: Optional[Machine] = None) -> np.ndarray:
    """Lines per node, via Figure 19's downward inclusive scan of ones."""
    return seg_count(segments, machine=machine)


def overflowing_nodes(segments: Segments, capacity: int,
                      machine: Optional[Machine] = None) -> np.ndarray:
    """Per-segment flag: does the node exceed ``capacity`` lines?"""
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    m = machine or get_machine()
    counts = node_counts(segments, machine=m)
    m.record("elementwise", segments.nseg)
    return counts > capacity


def overflow_per_line(segments: Segments, capacity: int,
                      machine: Optional[Machine] = None) -> np.ndarray:
    """Broadcast the overflow decision to every line processor."""
    m = machine or get_machine()
    flags = overflowing_nodes(segments, capacity, machine=m)
    return seg_broadcast(flags, segments, machine=m)
