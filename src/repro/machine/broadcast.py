"""Segmented broadcast and reduction helpers (paper Section 4.7, [Hung89]).

The paper repeatedly uses two communication idioms on segmented vectors:

* "This value is then **broadcast** to all other nodes in the segment
  group with an upward segmented scan (using the copy operator)."
* "The number of lines in the segment is then **passed by the first
  line** in the linear ordering to the ... node processor" -- i.e. a
  per-segment reduction read off at the segment head.

This module packages both: per-segment reductions (one scan and one
gather each), head/tail extraction (one gather), and value dissemination
from heads to whole segments (one copy-scan).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .machine import Machine, get_machine
from .permute import gather
from .scans import SCAN_OPS, _coerce, _ufunc, seg_scan, seg_scan_columns
from .vector import Segments

__all__ = [
    "seg_broadcast",
    "seg_reduce",
    "seg_count",
    "seg_first",
    "seg_last",
]


def seg_broadcast(per_segment_values, segments: Segments,
                  machine: Optional[Machine] = None) -> np.ndarray:
    """Spread one value per segment across that segment's slots.

    ``per_segment_values`` has length ``segments.nseg``; the result has
    length ``segments.n``.  Implemented as the copy-scan of [Hung89]
    after placing each value at its segment head (one permute + one
    scan).  An ``(nseg, k)`` array is ``k`` value vectors (the four
    coordinates of each node's box): one pass, recorded ``k`` times.
    """
    vals = np.asarray(per_segment_values)
    if vals.ndim not in (1, 2) or vals.shape[0] != segments.nseg:
        raise ValueError(f"need one value per segment ({segments.nseg}), got shape {vals.shape}")
    m = machine or get_machine()
    for _ in range(1 if vals.ndim == 1 else vals.shape[1]):
        m.record("permute", segments.n)
    placed = np.zeros((segments.n,) + vals.shape[1:], dtype=vals.dtype)
    placed[segments.heads] = vals
    scan = seg_scan if vals.ndim == 1 else seg_scan_columns
    return scan(placed, segments, "copy", "up", True, machine=m)


def seg_reduce(data, segments: Segments, op: str = "+",
               machine: Optional[Machine] = None) -> np.ndarray:
    """Per-segment reduction, one result per segment (length ``nseg``).

    On the machine this is a downward inclusive scan whose value at each
    segment head is the whole-segment combination -- exactly the paper's
    node capacity check pattern (Section 4.4, Figure 19) -- followed by
    a head gather, and that is what is recorded: one ``scan``, one
    ``permute``.  The host computes only the values that are read, with
    one O(n) ``ufunc.reduceat`` over the segment heads (exact for
    min/max on floats, where a scan would need the log-step network).
    An ``(n, k)`` array is ``k`` vectors reduced in one pass and recorded
    ``k`` times, giving ``(nseg, k)``.
    """
    if op not in SCAN_OPS:
        raise ValueError(f"unknown scan operator {op!r}; expected one of {SCAN_OPS}")
    data = _coerce(data, op, ndim=2 if np.ndim(data) == 2 else 1)
    if segments.n != data.shape[0]:
        raise ValueError(f"segment descriptor covers {segments.n} slots, data has {data.shape[0]}")
    m = machine or get_machine()
    for _ in range(1 if data.ndim == 1 else data.shape[1]):
        m.record("scan", segments.n)
        m.record("permute", segments.nseg)
    if op == "copy":                    # a downward copy-scan spreads the tails
        return data[segments.tails]
    if segments.n == 0:
        return data.copy()
    return _ufunc(op).reduceat(data, segments.heads)


def seg_count(segments: Segments, machine: Optional[Machine] = None) -> np.ndarray:
    """Number of elements in each segment, computed on-machine.

    Equivalent to ``segments.lengths`` but costed: it is the line count
    every build round broadcasts to its node processors.
    """
    ones = np.ones(segments.n, dtype=np.int64)
    return seg_reduce(ones, segments, "+", machine=machine)


def seg_first(data, segments: Segments, machine: Optional[Machine] = None) -> np.ndarray:
    """Value held by the first processor of each segment (one gather)."""
    return gather(np.asarray(data), segments.heads, machine=machine)


def seg_last(data, segments: Segments, machine: Optional[Machine] = None) -> np.ndarray:
    """Value held by the last processor of each segment (one gather)."""
    return gather(np.asarray(data), segments.tails, machine=machine)
