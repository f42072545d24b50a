"""Unshuffling (paper Section 4.2, Figures 15-16; *packing* / *splitting*).

Unshuffling physically separates two mutually exclusive, collectively
exhaustive subsets of a group: the "a" elements concentrate at the left
end of each segment and the "b" elements at the right, each subset
keeping its relative order (the operation is a stable partition).  Node
splitting uses it to regroup lines by the side of a split axis they lie
on (Figures 25-27); the R-tree build uses it to realise a chosen node
split (Figure 40).

Mechanics, exactly as Figure 16:

1. ``F1 = up-scan(X == b, +, in)`` -- for each "a", how many "b"s sit
   between it and the left end;
2. ``F2 = down-scan(X == a, +, in)`` -- for each "b", how many "a"s sit
   between it and the right end;
3. ``F3 = ew(-, P, F1)`` for the "a"s and ``ew(+, P, F2)`` for the "b"s;
4. ``permute(X, F3)``.

When segmented, each segment partitions independently (the scans are
segmented, so the index arithmetic never leaves a segment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..machine import Machine, Segments, get_machine
from ..machine.scans import seg_scan

__all__ = ["UnshuffleResult", "unshuffle"]


@dataclass(frozen=True)
class UnshuffleResult:
    """Outcome of an unshuffle.

    Attributes
    ----------
    arrays:
        The payload vectors, partitioned within each segment.
    destination:
        Slot each input element moved to (the ``F3`` vector).
    left_counts:
        Per segment, how many elements went left -- the boundary offset
        the tree builders use to subdivide segments after a split.
    """

    arrays: Tuple[np.ndarray, ...]
    destination: np.ndarray
    left_counts: np.ndarray


def unshuffle(side, *arrays, segments: Optional[Segments] = None,
              machine: Optional[Machine] = None) -> UnshuffleResult:
    """Stable within-segment partition (the paper's unshuffle primitive).

    Parameters
    ----------
    side:
        Boolean vector: False elements ("a"s) pack toward the left end of
        their segment, True elements ("b"s) toward the right.
    arrays:
        Equal-length payload vectors to move.
    segments:
        Optional descriptor; ``None`` treats the vector as one segment.
    """
    side = np.asarray(side, dtype=bool)
    if side.ndim != 1:
        raise ValueError("side vector must be one-dimensional")
    n = side.size
    for a in arrays:
        if np.asarray(a).shape[:1] != (n,):
            raise ValueError("payload length does not match side vector")
    if segments is not None and segments.n != n:
        raise ValueError("segment descriptor does not cover the vector")

    m = machine or get_machine()
    seg = segments if segments is not None else Segments.single(n)

    is_b = side.astype(np.int64)
    is_a = (~side).astype(np.int64)
    f1 = seg_scan(is_b, seg, "+", "up", True, machine=m)
    f2 = seg_scan(is_a, seg, "+", "down", True, machine=m)
    p = np.arange(n, dtype=np.int64)
    m.record("elementwise", n)
    m.record("elementwise", n)
    dest = np.where(side, p + f2, p - f1)

    # routing every payload to ``dest`` == reading it through the inverse map
    m.record("permute", n)
    order = np.empty(n, dtype=np.int64)
    order[dest] = p
    out_arrays = [np.take(a, order, axis=0) for a in arrays]

    left_counts = np.add.reduceat(is_a, seg.heads) if n else np.zeros(0, dtype=np.int64)
    return UnshuffleResult(tuple(out_arrays), dest, left_counts)
