"""Cloning (paper Section 4.1, Figures 13-14; Nassimi & Sahni's *generalize*).

Cloning replicates an arbitrary set of flagged elements within the
linear processor ordering: each flagged element ends up immediately
followed by a fresh copy of itself.  The node-splitting primitive uses
it to duplicate every line that intersects a split axis (Figure 24).

Mechanics, exactly as Figure 14:

1. ``F1 = up-scan(clone_flag, +, ex)`` -- how far right each element
   must shift to open gaps for the clones;
2. ``F2 = ew(+, P, F1)`` -- new position of each original element;
3. ``permute(X, F2)`` -- spread the originals out (gaps where clones go);
4. each cloning element copies itself into the next slot.

When the vector is segmented, clones stay inside their original's
segment, and the returned descriptor reflects the grown segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..machine import Machine, Segments, get_machine
from ..machine.scans import seg_scan

__all__ = ["CloneResult", "clone"]


@dataclass(frozen=True)
class CloneResult:
    """Outcome of a cloning operation.

    Attributes
    ----------
    arrays:
        The payload vectors, each grown by the number of set flags.
    source:
        For every output slot, the input index it was copied from
        (clones share their original's source).
    is_clone:
        True exactly at the inserted copies.
    segments:
        Grown descriptor (``None`` when the input was unsegmented).
    """

    arrays: Tuple[np.ndarray, ...]
    source: np.ndarray
    is_clone: np.ndarray
    segments: Optional[Segments]


def clone(flags, *arrays, segments: Optional[Segments] = None,
          machine: Optional[Machine] = None) -> CloneResult:
    """Replicate flagged elements in place (the paper's cloning primitive).

    Parameters
    ----------
    flags:
        Boolean vector; True elements are duplicated, the copy landing in
        the slot immediately after the original.
    arrays:
        Any number of equal-length payload vectors to carry through.
    segments:
        Optional descriptor; clones remain in their segment.

    Returns
    -------
    CloneResult
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim != 1:
        raise ValueError("clone flags must be one-dimensional")
    n = flags.size
    for a in arrays:
        if np.asarray(a).shape[:1] != (n,):
            raise ValueError("payload length does not match flag vector")
    if segments is not None and segments.n != n:
        raise ValueError("segment descriptor does not cover the vector")

    m = machine or get_machine()
    seg = segments if segments is not None else Segments.single(n)

    # Figure 14, steps 1-3.  The offset scan is deliberately unsegmented:
    # clones never cross segment boundaries because the shift at a head
    # already accounts for every clone to its left.
    offset = seg_scan(flags.astype(np.int64), None, "+", "up", False, machine=m)
    m.record("elementwise", n)
    new_pos = np.arange(n, dtype=np.int64) + offset
    total = n + int(flags.sum())

    m.record("permute", n)
    source = np.full(total, -1, dtype=np.int64)
    source[new_pos] = np.arange(n, dtype=np.int64)

    # step 4: each cloning element copies itself into the next slot.  A
    # gap always directly follows its original, so one shifted fill
    # completes every copy at once.
    is_clone = source < 0
    if total:
        m.record("elementwise", total)
        filler = np.empty(total, dtype=np.int64)
        filler[0] = 0
        filler[1:] = source[:-1]
        source = np.where(is_clone, filler, source)

    out_arrays = tuple(np.take(a, source, axis=0) for a in arrays)
    if arrays:
        m.record("permute", total)

    new_segments: Optional[Segments] = None
    if segments is not None:
        grown = np.bincount(seg.ids[flags], minlength=segments.nseg)
        new_segments = Segments.from_lengths(segments.lengths + grown)

    return CloneResult(out_arrays, source, is_clone, new_segments)
