"""Batch (data-parallel) vs scalar query processing.

The companion papers evaluate query *sets* processed one processor per
(query, node) pair; this bench measures one wave over the whole set
against a loop of scalar queries -- each a one-probe wave -- with both
answering like brute force (enforced here and in the unit tests).
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.baselines import brute_window_query
from repro.engine.worker import batch_kernel
from repro.geometry import random_segments
from repro.geometry.rect import overlaps
from repro.machine import Machine
from repro.structures import build_bucket_pmr, build_rtree

from conftest import print_experiment


def _windows(structure, exact=True):
    """The structure table's window kernel: one id array per window."""
    run = batch_kernel(structure, "window", exact)
    return lambda tree, rects, machine=None: run(tree, rects, machine)


quad_windows = _windows("pmr")
rtree_windows = _windows("rtree")

DOMAIN = 4096


@pytest.fixture(scope="module")
def built(uniform_map):
    pmr, _ = build_bucket_pmr(uniform_map, DOMAIN, 8)
    rt, _ = build_rtree(uniform_map, 2, 8)
    return pmr, rt


def test_report_batch_equivalence(built, query_windows, benchmark):
    pmr, rt = built
    rects = np.vstack(query_windows)
    got_q = quad_windows(pmr, rects)
    got_r = rtree_windows(rt, rects)
    for i, r in enumerate(rects):
        want = brute_window_query(pmr.lines, r)
        assert np.array_equal(got_q[i], want)
        assert np.array_equal(got_r[i], want)

    m_q = Machine()
    quad_windows(pmr, rects, machine=m_q)
    m_r = Machine()
    rtree_windows(rt, rects, machine=m_r)
    rows = [
        ["bucket PMR", len(rects), pmr.height, m_q.total_primitives],
        ["R-tree", len(rects), rt.height, m_r.total_primitives],
    ]
    table = format_table(
        ["structure", "queries", "tree height", "vector rounds (primitives)"],
        rows)
    print_experiment("ext: batch queries -- O(height) vector rounds for the "
                     "whole query set", table)
    benchmark(quad_windows, pmr, rects)


def test_scalar_loop_quadtree(built, query_windows, benchmark):
    pmr, _ = built
    benchmark(lambda: [pmr.window_query(r) for r in query_windows])


def test_batch_quadtree(built, query_windows, benchmark):
    pmr, _ = built
    rects = np.vstack(query_windows)
    benchmark(quad_windows, pmr, rects)


def test_scalar_loop_rtree(built, query_windows, benchmark):
    _, rt = built
    benchmark(lambda: [rt.window_query(r) for r in query_windows])


def test_batch_rtree(built, query_windows, benchmark):
    _, rt = built
    rects = np.vstack(query_windows)
    benchmark(rtree_windows, rt, rects)


def test_report_duplicate_deletion():
    """Candidate, distinct and kept (query, line) pairs per window probe.

    A bucket PMR quadtree stores a segment in every leaf its q-edge
    crosses (paper section 4.1), so one window meets it once per such
    leaf; the window kernels delete the duplicates (section 4.3) before
    the exact test, which therefore runs on the distinct pairs only.
    R-tree entries are stored once, so their candidates are distinct
    already.  Map and windows are the bench spine's: 20k uniform
    segments (domain 4096, ``max_len`` 128, seed 7) and windows of
    log-uniform side 16..512.
    """
    lines = random_segments(20000, domain=DOMAIN, max_len=DOMAIN // 32,
                            seed=7)
    pmr, _ = build_bucket_pmr(lines, DOMAIN, 8)
    rt, _ = build_rtree(lines, 2, 8)
    rng = np.random.default_rng(7)
    side = np.exp(rng.uniform(np.log(16), np.log(512), 512))
    lo = rng.random((512, 2)) * (DOMAIN - side)[:, None]
    rects = np.column_stack([lo, lo + side[:, None]])
    leaves = np.flatnonzero(pmr.children[:, 0] < 0)
    per_leaf = np.diff(pmr.node_ptr)[leaves]
    rows = []
    for name, tree, structure in (("bucket PMR", pmr, "pmr"),
                                  ("R-tree", rt, "rtree")):
        distinct = sum(r.size for r in _windows(structure, False)(tree, rects))
        kept = sum(r.size for r in _windows(structure)(tree, rects))
        if tree is pmr:   # one candidate per (window, reached leaf, line)
            cand = sum(int(per_leaf[overlaps(pmr.boxes[leaves],
                                             np.tile(r, (leaves.size, 1)))]
                           .sum()) for r in rects)
        else:
            cand = distinct
        assert kept <= distinct <= cand
        rows.append([name, f"{cand / len(rects):.1f}",
                     f"{distinct / len(rects):.1f}",
                     f"{kept / len(rects):.1f}"])
    print_experiment(
        "ext: duplicate deletion before the exact test (pairs per window "
        "probe)",
        format_table(["structure", "candidates", "distinct", "kept"], rows))
