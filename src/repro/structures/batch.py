"""Data-parallel batch query processing.

The companion papers ([Hoel94b]'s "performance of data-parallel spatial
operations") process query *sets*, not single probes: one processor per
(query, node) pair, expanding level-synchronously.  This module provides
that style of bulk evaluation on both tree families, one **wave** of
mixed probes per pass: every row of a wave is a window, and each
family has one wave core:

* the frontier is a vector of (query id, node id) pairs;
* each round every pair tests its query window against its node's
  rectangle in one whole-array step and expands into children;
* at the leaves, candidate (query, line) pairs are deduplicated (the
  paper's section 4.3 duplicate deletion: a bucket PMR quadtree stores
  a segment in every block it crosses, so one window meets it once per
  leaf) and only the distinct pairs take the one vectorised exact test.

An empty (inverted) window is swapped for ``EMPTY_RECT`` once, when
the frontier is seeded, so it leaves in the first round and every
round's prune is four closed-overlap comparisons with no emptiness
test (node boxes, level MBRs and entry boxes are never empty).

A point probe is its degenerate window ``[px, py, px, py]``.  A
nearest probe is a closed square around its point that only shrinks:
its first half-side is the distance to a representative segment from
the tree's cell table (``cells``, derived once per tree), an upper bound
on the answer; on a quadtree each round that reaches leaves shrinks it
to the best distance scored so far.  Every segment at most that far
away meets the square, so the answer is one segmented min over the
scored ``(distance, id)`` pairs, ties to the lowest id.

Results are identical to the retired scalar searches, kept as test
references, and to brute force (test invariants), but the work is
whole-array per tree level -- O(height) vector steps
for any number and mix of queries, each over the frontier: child lists
come from the tree's once-derived adjacency and the hit stream is
packed by one sort (:mod:`.csr`), so nothing a call does is
proportional to the map.  A wave core returns ``(ids, ptr, nid, nd)``:
the window and point rows' hits as CSR, the nearest rows' line id and
distance.  :data:`FAMILY` and :func:`wave_core` are the structure
table: the one place that says which core serves a (structure family,
exactness) wave, on a plain tree and on each shard alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..geometry.distance import points_segments_distance
from ..geometry.rect import EMPTY_RECT, contains_point_halfopen, validate_rects
from ..machine import Machine, get_machine
from ..resilience import PartialResult
from .csr import distinct_pairs, gather_csr, pack_csr, pack_sorted, run_heads

if TYPE_CHECKING:
    from .quadblock import Quadtree
    from .rtree import RTree

#: nothing is star-exported: the structure table and the wave helpers
#: below are imported by name
__all__: List[str] = []

_NO_IDS = np.zeros(0, dtype=np.int64)

#: probe kinds by their code in a wave's per-row ``kinds``
KINDS = ("window", "point", "nearest")
WINDOW, POINT, NEAREST = range(3)


def _views(ids: np.ndarray, ptr: np.ndarray) -> List[np.ndarray]:
    """The public edge: per-query (read-only) views of a packed result."""
    cuts = ptr.tolist()
    return [ids[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _cat(parts: List[np.ndarray], empty: np.ndarray = _NO_IDS) -> np.ndarray:
    return np.concatenate(parts) if parts else empty


def _leaf_pairs(tree: Quadtree, leaf_q: np.ndarray, leaf_n: np.ndarray):
    """Candidate (query, line) pairs from the lines stored at each leaf."""
    counts, lines = gather_csr(tree.node_ptr, tree.node_lines, leaf_n)
    return np.repeat(leaf_q, counts), lines


def _meets(boxes: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Closed overlap of non-empty boxes with seeded windows, row-wise:
    four comparisons (:func:`~repro.geometry.rect.overlaps` without its
    emptiness tests, which :func:`_start` made redundant)."""
    return ((boxes[:, 0] <= windows[:, 2]) & (windows[:, 0] <= boxes[:, 2])
            & (boxes[:, 1] <= windows[:, 3]) & (windows[:, 1] <= boxes[:, 3]))


def _prune_window(m: Machine, rects, q_frontier, n_frontier, boxes):
    """Drop the (query, node) pairs whose box misses the query window.
    Each tested pair is a node visit: the test is recorded in the
    ``visit`` phase, which :func:`one_probe` sums."""
    m.record("elementwise", q_frontier.size, phase="visit")
    alive = _meets(boxes, rects[q_frontier])
    return q_frontier[alive], n_frontier[alive]


def _verify_and_pack(m: Machine, tree, rects, qid, lid, exact: bool):
    """Dedupe the candidate pairs, exact-test the distinct ones, pack
    them per query.

    A quadtree window meets a segment once per leaf that stores it, so
    the dedupe comes first and the exact test runs on distinct pairs
    only; R-tree pairs are distinct already.  ``exact=False`` keeps
    every distinct candidate from the reached leaves, matching the
    scalar ``window_query``'s filter-step semantics.
    """
    q, ids = distinct_pairs(qid, lid, tree.lines.shape[0])
    if exact and q.size:
        m.record("elementwise", q.size)
        keep = segments_intersect_rects(tree.lines[ids], rects[q])
        q = q[keep]
        ids = ids[keep]
    return pack_sorted(q, ids, rects.shape[0])


def wave_rows(payloads) -> np.ndarray:
    """A wave's ``(n, 4)`` rows: windows as given, a two-column point
    batch as its degenerate windows ``[px, py, px, py]``."""
    rows = np.asarray(payloads, dtype=float)
    if rows.shape[-1:] == (2,):
        return np.tile(rows.reshape(-1, 2), 2)
    return validate_rects(rows.reshape(-1, 4))


def wave_kinds(kinds, n: int) -> np.ndarray:
    """Per-row kind codes (:data:`KINDS`): one code for all ``n`` rows,
    or one per row; a code outside :data:`KINDS` is refused."""
    codes = np.asarray(kinds, dtype=np.int8)
    foreign = codes.view(np.uint8) >= len(KINDS)    # negative codes wrap high
    if foreign.any():
        raise ValueError(f"unknown probe kind code {int(codes[foreign].flat[0])}"
                         f" (codes: {dict(enumerate(KINDS))})")
    return np.broadcast_to(codes, (n,))


def _squares(pts: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Closed squares of half-side ``half`` around ``pts``, padded by a
    few ulps of the coordinates so that rounding never cuts off a
    segment lying exactly that far away."""
    half = half + 1e-9 * (1.0 + half + np.abs(pts).max(axis=1))
    return np.hstack([pts - half[:, None], pts + half[:, None]])


class _Nearest:
    """The nearest rows of one wave: their squares, the scored (row,
    line, distance) triples, and the segmented min over them."""

    def __init__(self, m: Machine, tree, rects: np.ndarray, near):
        self.mask, self.pts, rows = near, rects[:, :2], np.flatnonzero(near)
        if tree.lines.shape[0] == 0 or not np.isfinite(self.pts[rows]).all():
            raise ValueError("a nearest probe needs a finite point and a line")
        m.record("elementwise", rows.size)
        self.best = np.full(near.size, np.inf)
        lo, scale, reps = tree.cells    # points off the grid take its border
        c = np.clip((self.pts[rows] - lo) * scale, 0, len(reps) - 1).astype(np.int64)
        self.best[rows] = points_segments_distance(
            self.pts[rows], tree.lines[reps[c[:, 1], c[:, 0]]])
        self.rects = rects.copy()
        self.rects[rows] = _squares(self.pts[rows], self.best[rows])
        self.scored: List[tuple] = []

    def score(self, m: Machine, lines, qid, lid, shrink: bool):
        """Score the nearest rows' candidate pairs (with ``shrink``, and
        shrink their squares to the best distance so far); returns the
        other rows' pairs."""
        at = self.mask[qid]
        if not at.any():
            return qid, lid
        q, lid_q = qid[at], lid[at]
        m.record("elementwise", q.size)
        dist = points_segments_distance(self.pts[q], lines[lid_q])
        self.scored.append((q, lid_q, dist))
        if shrink:
            m.record("scan", q.size)
            np.minimum.at(self.best, q, dist)
            self.rects[q] = _squares(self.pts[q], self.best[q])
        return qid[~at], lid[~at]

    def answer(self, span: int):
        """Per-row ``(nid, nd)`` (``-1`` / ``inf`` off the nearest rows):
        a row's own representative is always scored, so none is empty."""
        return _reduce_nearest(*map(np.concatenate, zip(*self.scored)),
                               self.mask.size, span)


def _start(machine, tree, rows, kinds):
    """A wave's machine, windows, nearest rows and full frontier: an
    empty (inverted) window becomes ``EMPTY_RECT`` and leaves in the
    first round; a wave without nearest rows (``found is None``) records
    only the window kernel's steps."""
    m, rects = machine or get_machine(), wave_rows(rows)
    empty = (rects[:, 0] > rects[:, 2]) | (rects[:, 1] > rects[:, 3])
    if empty.any():
        rects = np.where(empty[:, None], EMPTY_RECT, rects)
    near = wave_kinds(kinds, rects.shape[0]) == NEAREST
    found = _Nearest(m, tree, rects, near) if near.any() else None
    nq = rects.shape[0]
    return (m, rects if found is None else found.rects, found,
            np.arange(nq, dtype=np.int64), np.zeros(nq, dtype=np.int64))


def _answer(m, tree, rects, qid, lid, exact, found):
    nq, span = rects.shape[0], tree.lines.shape[0]
    return _verify_and_pack(m, tree, rects, qid, lid, exact) + (
        found.answer(span) if found is not None else
        (np.full(nq, -1, dtype=np.int64), np.full(nq, np.inf)))


def _wave_quadtree(tree: Quadtree, rows, kinds, exact: bool,
                   machine: Optional[Machine]):
    m, rects, found, q_frontier, n_frontier = _start(machine, tree, rows,
                                                     kinds)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    while q_frontier.size:
        q_frontier, n_frontier = _prune_window(
            m, rects, q_frontier, n_frontier, tree.boxes[n_frontier])
        if not q_frontier.size:
            break
        is_leaf = tree.children[n_frontier, 0] < 0
        # leaves: emit candidate (query, line) pairs; nearest rows score
        # theirs and shrink their squares before the next prune
        leaf_q = q_frontier[is_leaf]
        if leaf_q.size:
            qid, lid = _leaf_pairs(tree, leaf_q, n_frontier[is_leaf])
            if found is not None:
                qid, lid = found.score(m, tree.lines, qid, lid, True)
            hit_q.append(qid)
            hit_l.append(lid)
        # internal: expand into all four children
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        m.record("permute", int_q.size * 4)
        q_frontier = np.repeat(int_q, 4)
        n_frontier = tree.children[int_n].reshape(-1)
    return _answer(m, tree, rects, _cat(hit_q), _cat(hit_l), exact, found)


def _wave_rtree(tree: RTree, rows, kinds, exact: bool,
                machine: Optional[Machine]):
    m, rects, found, q_frontier, n_frontier = _start(machine, tree, rows,
                                                     kinds)
    for level in range(tree.height - 1, 0, -1):
        q_frontier, n_frontier = _prune_window(
            m, rects, q_frontier, n_frontier, tree.level_mbr[level][n_frontier])
        if not q_frontier.size:
            break
        # expand to the children of every surviving node
        counts, n_frontier = gather_csr(*tree.adjacency[level], n_frontier)
        m.record("permute", n_frontier.size)
        q_frontier = np.repeat(q_frontier, counts)
    # leaf level: test the surviving (query, leaf) pairs, then entries
    if q_frontier.size:
        q_frontier, n_frontier = _prune_window(
            m, rects, q_frontier, n_frontier, tree.level_mbr[0][n_frontier])
    counts, lid = gather_csr(*tree.adjacency[0], n_frontier)
    qid = np.repeat(q_frontier, counts)
    if qid.size:
        m.record("elementwise", qid.size)
        keep = _meets(tree.entry_bbox[lid], rects[qid])
        qid = qid[keep]
        lid = lid[keep]
    if found is not None:
        qid, lid = found.score(m, tree.lines, qid, lid, False)
    return _answer(m, tree, rects, qid, lid, exact, found)


# -- point probes ---------------------------------------------------------


def _point_quadtree(tree: Quadtree, points, machine: Optional[Machine]):
    """Each point's leaf residents (half-open block membership, as in
    :meth:`Quadtree.find_leaf`), none outside the domain."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = machine or get_machine()
    nq = pts.shape[0]
    if nq == 0:
        return _NO_IDS, np.zeros(1, dtype=np.int64)
    m.record("elementwise", nq)
    inside = contains_point_halfopen(np.broadcast_to(tree.boxes[0], (nq, 4)),
                                     pts[:, 0], pts[:, 1], tree.domain)
    q_frontier = np.flatnonzero(inside).astype(np.int64)
    n_frontier = np.zeros(q_frontier.size, dtype=np.int64)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    while q_frontier.size:
        is_leaf = tree.children[n_frontier, 0] < 0
        leaf_q = q_frontier[is_leaf]
        if leaf_q.size:
            qid, lid = _leaf_pairs(tree, leaf_q, n_frontier[is_leaf])
            hit_q.append(qid)
            hit_l.append(lid)
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        if not int_q.size:
            break
        # expand into all four children, keep the one holding the point
        m.record("permute", int_q.size * 4)
        cq = np.repeat(int_q, 4)
        cn = tree.children[int_n].reshape(-1)
        m.record("elementwise", cq.size)
        keep = contains_point_halfopen(tree.boxes[cn], pts[cq, 0], pts[cq, 1],
                                       tree.domain)
        q_frontier = cq[keep]
        n_frontier = cn[keep]
    return pack_csr(_cat(hit_q), _cat(hit_l), nq, tree.lines.shape[0])


# -- nearest probes -------------------------------------------------------


def _reduce_nearest(qid: np.ndarray, lid: np.ndarray, dist: np.ndarray,
                    nq: int, span: int):
    """Per-query ``(line id, distance)`` minimising distance then id:
    the first entry of each query's run in the sorted fused key (``-1``
    and ``inf`` for a query without candidates)."""
    best = np.full(nq, np.inf)
    np.minimum.at(best, qid, dist)
    at_best = dist <= best[qid]
    q, lids = np.divmod(np.sort(qid[at_best] * span + lid[at_best]), span)
    heads = run_heads(q)
    nid = np.full(nq, -1, dtype=np.int64)
    nid[q[heads]] = lids[heads]
    return nid, best


def _pairs(lids: np.ndarray, dists: np.ndarray) -> List[tuple]:
    return list(zip(lids.tolist(), dists.tolist()))


# -- the structure table ----------------------------------------------------

#: structure name -> tree family; the family picks every kernel
FAMILY = {"pmr": "quadtree", "pm1": "quadtree", "rtree": "rtree"}


def _filter_quadtree(tree: Quadtree, rows, kinds, machine):
    """``exact=False`` on a quadtree: a wave of points answers with each
    point's leaf residents (none outside the domain), any other wave
    with the window filter."""
    rows = wave_rows(rows)
    points = wave_kinds(kinds, len(rows)) == POINT
    if not points.any():
        return _wave_quadtree(tree, rows, kinds, False, machine)
    if not points.all():
        raise ValueError("a quadtree filter wave holds points alone")
    return _point_quadtree(tree, rows[:, :2], machine) \
        + (np.full(len(rows), -1, dtype=np.int64), np.full(len(rows), np.inf))


def wave_core(family: str, exact: bool):
    """The core serving one wave on a ``family`` tree:
    ``core(tree, rows, kinds, machine)`` -> ``(ids, ptr, nid, nd)``
    over a wave's rows (:func:`wave_rows`) and kinds
    (:func:`wave_kinds`).  An exact point answer -- the segments through
    the point -- never depends on a tree's (or a shard's) decomposition.
    ``exact=False`` keeps each family's native candidates for windows
    and points: an R-tree's unrefined window filter, a quadtree's leaf
    residents; nearest rows are always exact.
    """
    if family == "quadtree" and not exact:
        return _filter_quadtree
    fused = _wave_quadtree if family == "quadtree" else _wave_rtree
    return lambda tree, rows, kinds, m: fused(tree, rows, kinds, exact, m)


def wave_answers(ids, ptr, nid, nd, kinds) -> list:
    """The edge cut of a wave: an id view per window or point row, an
    ``(id, distance)`` pair per nearest row."""
    kinds = wave_kinds(kinds, nid.size).tolist()
    return [pair if k == NEAREST else view for k, view, pair in
            zip(kinds, _views(ids, ptr), _pairs(nid, nd))]


def one_probe(index, kind: int, probe, exact: bool = True,
              count_visits: bool = False,
              deadline_at: Optional[float] = None):
    """A scalar query as a wave of one row: every scalar call of a plain
    tree or a sharded index comes here, and goes on through
    :func:`~.sharded.index_wave` (imported on call: that module builds
    on this one).

    ``probe`` is a window ``[x0, y0, x1, y1]``, reshaped to one row
    first (a 2x2 rect would otherwise read as two points), or a point
    ``(px, py)``, carried as its degenerate window.  Returns the row's
    ids, a read-only view of the packed answer, or ``(id, distance)``
    for a nearest probe; with ``count_visits``, ``(ids, visits)``: the
    summed size of the frontier each prune tested (experiment C6's
    metric), read off the same wave's ``visit`` records.  A sharded wave
    whose ``deadline_at`` dropped planned shards answers a
    :class:`~repro.resilience.PartialResult`.  The wave records on a
    machine of its own, not the caller's.
    """
    from .sharded import index_wave
    row = np.asarray(probe, dtype=float)
    row = row.reshape(1, 4) if kind == WINDOW else np.tile(row.reshape(1, 2), 2)
    m = Machine(trace=count_visits)
    (ids, ptr, nid, nd), shards = index_wave(index, kind, row, exact, m,
                                              deadline_at)
    if kind == NEAREST:
        return int(nid[0]), float(nd[0])
    ids = ids[ptr[0]:ptr[1]]
    if shards and shards[2]:
        return PartialResult(ids, shards_dropped=shards[2],
                             shards_completed=shards[3])
    if count_visits:
        return ids, sum(n for phase, _, n in m.events if phase == "visit")
    return ids
