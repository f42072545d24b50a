"""Spatial join of two line maps (paper Section 6's cited application).

The conclusion notes the Section 4 primitives "have been used in the
implementation of other data-parallel spatial operations such as
polygonization and spatial join [Hoel93, Hoel94a, Hoel94b]".  This
module provides the join -- all pairs ``(i, j)`` with line ``i`` of map
A intersecting line ``j`` of map B -- plus the brute-force oracle:

* :func:`index_join` -- the join as a batch of window queries: the
  smaller map's segment MBRs probe the other map's index in waves of
  :data:`WAVE` windows, through the same kernels that serve window
  probes (:func:`~repro.structures.sharded.index_wave`: a plain tree's
  ``batch_core`` or a sharded index's ``query_wave``).  Any two indexes
  join -- plain quadtree, plain R-tree or sharded, of either family and
  over any domains.
* :func:`brute_join` -- exact tree-free oracle (and the engine's
  degraded path): x-sorted blocks of A against the rows of B their
  MBR meets.

The wave cannot miss a pair: the crossing point of two intersecting
segments lies in the probe segment's MBR and in a leaf block (or entry
box) holding the other segment, so the closed-overlap frontier reaches
it.  Candidate pairs are verified with the exact segment-segment
intersection predicate, and results are returned as a sorted, unique
``(k, 2)`` index array.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..geometry.rect import overlaps, rects_from_segments
from ..geometry.segment import segments_intersect_segments, validate_segments
from ..machine import Machine
from .sharded import index_wave

__all__ = ["brute_join", "index_join", "overlay_points"]

#: probe windows per wave: bounds the frontier and the candidate pairs
#: held at once, so peak memory does not grow with the probe map
WAVE = 4096


def overlay_points(a: np.ndarray, b: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Intersection geometry of joined pairs (the overlay's node set).

    Given the ``(k, 2)`` pair index array returned by any join, compute
    the ``(k, 2)`` crossing coordinates: the unique intersection point
    for properly crossing pairs, the touch point for endpoint contacts,
    and the midpoint of the shared extent for collinear overlaps (which
    have no unique point).
    """
    from ..geometry.distance import segment_intersection_points

    a = validate_segments(a, "a")
    b = validate_segments(b, "b")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        return np.zeros((0, 2))
    return segment_intersection_points(a[pairs[:, 0]], b[pairs[:, 1]])


def _verify_pairs(a: np.ndarray, b: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Exact-test candidate index pairs and return them sorted & unique."""
    if ii.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    keys = ii.astype(np.int64) * (b.shape[0] + 1) + jj
    uniq = np.unique(keys)
    ii = uniq // (b.shape[0] + 1)
    jj = uniq % (b.shape[0] + 1)
    hit = segments_intersect_segments(a[ii], b[jj])
    out = np.column_stack([ii[hit], jj[hit]])
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def brute_join(a: np.ndarray, b: np.ndarray, block: int = 512) -> np.ndarray:
    """All intersecting pairs without an index, culled by block MBR.

    ``a`` is taken in x-midpoint order, ``block`` rows at a time (which
    bounds memory), and each block is tested against only the rows of
    ``b`` whose MBR meets the block's MBR: intersecting segments have
    overlapping MBRs, so the cull drops no pair and the oracle stays
    exact and tree-free.
    """
    a = validate_segments(a, "a")
    b = validate_segments(b, "b")
    order = np.argsort(a[:, 0] + a[:, 2], kind="stable")
    a_box = rects_from_segments(a)
    b_box = rects_from_segments(b)
    rows: List[np.ndarray] = []
    for start in range(0, a.shape[0], block):
        ids = order[start:start + block]
        mbr = np.concatenate([a_box[ids, :2].min(axis=0),
                              a_box[ids, 2:].max(axis=0)])
        near = np.flatnonzero(overlaps(b_box, mbr[None, :]))
        ii = np.repeat(ids, near.size)
        jj = np.tile(near, ids.size)
        hit = segments_intersect_segments(a[ii], b[jj])
        if hit.any():
            rows.append(np.column_stack([ii[hit], jj[hit]]))
    if not rows:
        return np.zeros((0, 2), dtype=np.int64)
    out = np.concatenate(rows).astype(np.int64)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def index_join(a, b, machine: Optional[Machine] = None) -> np.ndarray:
    """All intersecting pairs between two indexes, as window waves.

    ``a`` and ``b`` are any servable indexes (plain ``Quadtree`` /
    ``RTree`` or ``ShardedIndex``).  The map with fewer segments probes
    the other (``a`` on a tie): each wave of at most :data:`WAVE` of its
    segment MBRs runs as one ``exact=False`` window wave over the other
    index, and the candidates are verified per wave.  Returns the same
    sorted, unique ``(k, 2)`` array as :func:`brute_join`, rows
    ``(line of a, line of b)``.
    """
    swap = b.lines.shape[0] < a.lines.shape[0]
    probe, index = (b, a) if swap else (a, b)
    rects = rects_from_segments(probe.lines)
    rows: List[np.ndarray] = []
    for start in range(0, rects.shape[0], WAVE):
        (ids, ptr), _ = index_wave(index, "window", rects[start:start + WAVE],
                                   False, machine)
        qid = np.repeat(np.arange(start, start + ptr.size - 1), np.diff(ptr))
        rows.append(_verify_pairs(probe.lines, index.lines, qid, ids))
    out = (np.concatenate(rows) if rows
           else np.zeros((0, 2), dtype=np.int64))
    if swap:
        out = out[:, ::-1]
        out = out[np.lexsort((out[:, 1], out[:, 0]))]
    return out
