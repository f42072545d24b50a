"""Duplicate deletion (paper Section 4.3, Figures 17-18; *concentrate*).

Removes flagged duplicate entries from a sorted linear ordering by
counting, for each element, the number of deletions between it and the
left end, then shifting everything left by that amount:

1. ``F1 = up-scan(duplicate_flag, +, ex)``;
2. ``F2 = ew(-, P, F1)``;
3. ``permute(X, F2)`` restricted to the survivors.

:func:`mark_duplicates` derives the flag vector from sorted keys (an
element is a duplicate when it equals its left neighbour), which is how
the spatial-join and query pipelines deduplicate line identifiers after
collecting q-edges from multiple blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..machine import Machine, Segments, get_machine
from ..machine.scans import seg_scan

__all__ = ["DedupResult", "mark_duplicates", "delete_duplicates"]


@dataclass(frozen=True)
class DedupResult:
    """Outcome of a duplicate deletion.

    Attributes
    ----------
    arrays:
        Compacted payload vectors (duplicates removed).
    kept:
        Input indices of the survivors, in output order.
    segments:
        Shrunk descriptor (``None`` when unsegmented, or when a whole
        segment was deleted -- impossible when heads are never flagged).
    """

    arrays: Tuple[np.ndarray, ...]
    kept: np.ndarray
    segments: Optional[Segments]


def mark_duplicates(keys, segments: Optional[Segments] = None,
                    machine: Optional[Machine] = None) -> np.ndarray:
    """Flag elements equal to their left neighbour (requires sorted keys).

    Segment heads are never flagged, so per-segment first occurrences
    always survive.  One elementwise comparison on the machine.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    m = machine or get_machine()
    m.record("elementwise", keys.size)
    flags = np.zeros(keys.size, dtype=bool)
    if keys.size > 1:
        flags[1:] = keys[1:] == keys[:-1]
    if segments is not None:
        if segments.n != keys.size:
            raise ValueError("segment descriptor does not cover the vector")
        flags[segments.heads] = False
    return flags


def delete_duplicates(flags, *arrays, segments: Optional[Segments] = None,
                      machine: Optional[Machine] = None) -> DedupResult:
    """Remove flagged elements, compacting the survivors leftward.

    The index arithmetic is Figure 18's; only survivor slots are routed
    (their destinations are injective by construction).
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim != 1:
        raise ValueError("duplicate flags must be one-dimensional")
    n = flags.size
    for a in arrays:
        if np.asarray(a).shape[:1] != (n,):
            raise ValueError("payload length does not match flag vector")
    if segments is not None:
        if segments.n != n:
            raise ValueError("segment descriptor does not cover the vector")
        if n and flags[segments.heads].any():
            raise ValueError("cannot delete a segment head; whole-segment deletion "
                             "must go through the node table, not the vector")

    m = machine or get_machine()
    f1 = seg_scan(flags.astype(np.int64), None, "+", "up", False, machine=m)
    m.record("elementwise", n)
    new_pos = np.arange(n, dtype=np.int64) - f1

    keep = ~flags
    kept = np.flatnonzero(keep)
    m.record("permute", n)
    out_arrays = tuple(np.asarray(a)[kept] for a in arrays)

    new_segments: Optional[Segments] = None
    if segments is not None:
        removed = np.bincount(segments.ids[flags], minlength=segments.nseg)
        new_segments = Segments.from_lengths(segments.lengths - removed)
    # new_pos[kept] is contiguous 0..len-1 by construction; exposed for
    # the tests that verify Figure 18's arithmetic.
    return DedupResult(out_arrays, kept, new_segments)
