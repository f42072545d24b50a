"""Batch (data-parallel) query tests: window, point, and nearest probes.

The kernels are the structure table's, looked up by name with
:func:`repro.engine.worker.batch_kernel`; their oracles are brute force
and the scalar searches the one-probe waves retired
(``reference_batch``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import brute_nearest, brute_point_query
from repro.engine.worker import batch_kernel
from repro.geometry import clustered_map, random_segments
from repro.machine import Machine
from repro.structures import build_bucket_pmr, build_pm1, build_rtree

from . import reference_batch as ref

DOMAIN = 512


def kernel(structure, kind, exact=True):
    """One answer per probe of a wave of ``kind`` probes."""
    run = batch_kernel(structure, kind, exact)
    return lambda tree, payload, machine=None: run(tree, payload, machine)


quad_windows = kernel("pmr", "window")
rtree_windows = kernel("rtree", "window")
quad_points = kernel("pmr", "point", exact=False)   # leaf residents
rtree_points = kernel("rtree", "point")
quad_nearests = kernel("pmr", "nearest")
rtree_nearests = kernel("rtree", "nearest")


def windows(k, seed):
    rng = np.random.default_rng(seed)
    r = np.zeros((k, 4))
    r[:, 0] = rng.integers(0, 400, k)
    r[:, 1] = rng.integers(0, 400, k)
    r[:, 2] = r[:, 0] + rng.integers(8, 112, k)
    r[:, 3] = r[:, 1] + rng.integers(8, 112, k)
    return r


class TestQuadtreeBatch:
    def setup_method(self):
        self.segs = random_segments(250, DOMAIN, 48, seed=3)
        self.tree, _ = build_bucket_pmr(self.segs, DOMAIN, 6)

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_scalar_queries(self, exact):
        rects = windows(30, 4)
        got = kernel("pmr", "window", exact)(self.tree, rects)
        assert len(got) == 30
        for i, r in enumerate(rects):
            want = ref.quadtree_window_query(self.tree, r, exact=exact)
            assert np.array_equal(got[i], want)

    def test_single_query(self):
        rect = np.array([[10, 10, 200, 200]], float)
        got = quad_windows(self.tree, rect)
        assert np.array_equal(got[0], ref.quadtree_window_query(self.tree, rect[0]))

    def test_empty_query_set(self):
        assert quad_windows(self.tree, np.zeros((0, 4))) == []

    def test_all_miss(self):
        rects = np.array([[600, 600, 700, 700], [-50, -50, -10, -10]], float)
        got = quad_windows(self.tree, rects)
        assert all(g.size == 0 for g in got)

    def test_works_on_pm1(self):
        tree, _ = build_pm1(np.unique(self.segs, axis=0), DOMAIN)
        rects = windows(10, 5)
        got = quad_windows(tree, rects)
        for i, r in enumerate(rects):
            assert np.array_equal(got[i], ref.quadtree_window_query(tree, r))

    def test_rounds_bounded_by_height(self):
        m = Machine()
        rects = windows(64, 6)
        quad_windows(self.tree, rects, machine=m)
        # one elementwise test per frontier round: height+1 rounds max
        assert m.counts["elementwise"] <= self.tree.height + 2


class TestRtreeBatch:
    def setup_method(self):
        self.segs = clustered_map(250, clusters=5, spread=40, domain=DOMAIN, seed=7)
        self.tree, _ = build_rtree(self.segs, 2, 8)

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_scalar_queries(self, exact):
        rects = windows(30, 8)
        got = kernel("rtree", "window", exact)(self.tree, rects)
        for i, r in enumerate(rects):
            want = ref.rtree_window_query(self.tree, r, exact=exact)
            assert np.array_equal(got[i], want)

    def test_single_leaf_tree(self):
        small, _ = build_rtree(self.segs[:3], 1, 4)
        rects = windows(6, 9)
        got = rtree_windows(small, rects)
        for i, r in enumerate(rects):
            assert np.array_equal(got[i], ref.rtree_window_query(small, r))

    def test_all_miss(self):
        rects = np.array([[600, 600, 700, 700]], float)
        got = rtree_windows(self.tree, rects)
        assert got[0].size == 0


def points(k, seed, lo=0, hi=500):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(lo, hi, k), rng.uniform(lo, hi, k)])


class TestEdgeCases:
    """Empty query lists and zero-segment trees must not raise."""

    def setup_method(self):
        self.segs = random_segments(40, DOMAIN, 48, seed=11)

    def test_empty_query_list_quadtree(self):
        tree, _ = build_bucket_pmr(self.segs, DOMAIN, 4)
        assert quad_windows(tree, []) == []
        assert quad_windows(tree, np.zeros((0, 4))) == []
        assert quad_points(tree, []) == []
        assert quad_nearests(tree, np.zeros((0, 2))) == []

    def test_empty_query_list_rtree(self):
        tree, _ = build_rtree(self.segs, 2, 6)
        assert rtree_windows(tree, []) == []
        assert rtree_windows(tree, np.zeros((0, 4))) == []
        assert rtree_points(tree, []) == []
        assert rtree_nearests(tree, np.zeros((0, 2))) == []

    def test_zero_segment_quadtree(self):
        tree, _ = build_bucket_pmr(np.zeros((0, 4)), DOMAIN, 4)
        got = quad_windows(tree, [[0, 0, 100, 100]])
        assert len(got) == 1 and got[0].size == 0
        got = quad_points(tree, [[5.0, 5.0]])
        assert len(got) == 1 and got[0].size == 0

    def test_zero_segment_rtree(self):
        tree, _ = build_rtree(np.zeros((0, 4)), 1, 4)
        got = rtree_windows(tree, [[0, 0, 100, 100]])
        assert len(got) == 1 and got[0].size == 0

    def test_zero_segment_nearest_raises_like_scalar(self):
        qt, _ = build_bucket_pmr(np.zeros((0, 4)), DOMAIN, 4)
        rt, _ = build_rtree(np.zeros((0, 4)), 1, 4)
        with pytest.raises(ValueError):
            quad_nearests(qt, [[1.0, 1.0]])
        with pytest.raises(ValueError):
            rtree_nearests(rt, [[1.0, 1.0]])
        with pytest.raises(ValueError):
            qt.nearest(1.0, 1.0)
        with pytest.raises(ValueError):
            rt.nearest(1.0, 1.0)


class TestPointProbes:
    def setup_method(self):
        self.segs = random_segments(250, DOMAIN, 48, seed=13)
        self.pmr, _ = build_bucket_pmr(self.segs, DOMAIN, 6)
        self.rt, _ = build_rtree(self.segs, 2, 8)

    def test_quadtree_matches_scalar(self):
        pts = points(40, 14)
        got = quad_points(self.pmr, pts)
        for i, (x, y) in enumerate(pts):
            assert np.array_equal(got[i], ref.quadtree_point_query(self.pmr, x, y))

    def test_pm1_matches_scalar(self):
        tree, _ = build_pm1(np.unique(self.segs, axis=0), DOMAIN)
        pts = points(20, 15)
        got = quad_points(tree, pts)
        for i, (x, y) in enumerate(pts):
            assert np.array_equal(got[i], ref.quadtree_point_query(tree, x, y))

    def test_rtree_matches_scalar(self):
        pts = points(40, 16)
        got = rtree_points(self.rt, pts)
        for i, (x, y) in enumerate(pts):
            assert np.array_equal(got[i], brute_point_query(self.segs, x, y))

    def test_outside_domain_strict_raises(self):
        """The scalar query refuses a point outside the domain."""
        with pytest.raises(ValueError, match="outside the domain"):
            self.pmr.point_query(DOMAIN + 50.0, 5.0)

    def test_outside_domain_lenient_is_empty(self):
        """A wave answers a point outside the domain with no residents."""
        got = quad_points(self.pmr, [[DOMAIN + 50.0, 5.0], [5.0, 5.0]])
        assert got[0].size == 0
        assert np.array_equal(got[1], ref.quadtree_point_query(self.pmr, 5.0, 5.0))

    def test_rounds_bounded_by_height(self):
        m = Machine()
        quad_points(self.pmr, points(64, 17), machine=m)
        assert m.counts["elementwise"] <= self.pmr.height + 2


class TestNearestProbes:
    def setup_method(self):
        self.segs = clustered_map(250, clusters=6, spread=40, domain=DOMAIN,
                                  seed=19)
        self.pmr, _ = build_bucket_pmr(self.segs, DOMAIN, 6)
        self.rt, _ = build_rtree(self.segs, 2, 8)

    def test_quadtree_matches_scalar_and_brute(self):
        pts = points(40, 20)
        got = quad_nearests(self.pmr, pts)
        for i, (x, y) in enumerate(pts):
            assert got[i] == ref.quadtree_nearest(self.pmr, x, y)
            assert got[i] == brute_nearest(self.segs, x, y)

    def test_rtree_matches_scalar_and_brute(self):
        pts = points(40, 21)
        got = rtree_nearests(self.rt, pts)
        for i, (x, y) in enumerate(pts):
            assert got[i] == ref.rtree_nearest(self.rt, x, y)
            assert got[i] == brute_nearest(self.segs, x, y)

    def test_single_line_tree(self):
        one = self.segs[:1]
        qt, _ = build_bucket_pmr(one, DOMAIN, 4)
        rt, _ = build_rtree(one, 1, 4)
        pts = points(8, 22)
        for res in (quad_nearests(qt, pts), rtree_nearests(rt, pts)):
            for i, (x, y) in enumerate(pts):
                assert res[i] == brute_nearest(one, x, y)

    def test_tie_breaks_to_lowest_id(self):
        # two identical-distance lines straddling the probe point
        segs = np.array([[10, 20, 30, 20], [10, 40, 30, 40.]])
        qt, _ = build_bucket_pmr(segs, 64, 2)
        rt, _ = build_rtree(segs, 1, 4)
        got_q = quad_nearests(qt, [[20.0, 30.0]])[0]
        got_r = rtree_nearests(rt, [[20.0, 30.0]])[0]
        assert got_q == got_r == brute_nearest(segs, 20.0, 30.0)
        assert got_q[0] == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_fuzz_nearest_consensus(seed):
    rng = np.random.default_rng(seed)
    segs = random_segments(int(rng.integers(3, 80)), DOMAIN, 48, seed=seed)
    pmr, _ = build_bucket_pmr(segs, DOMAIN, 4)
    rt, _ = build_rtree(segs, 1, 4)
    pts = points(10, seed)
    got_q = quad_nearests(pmr, pts)
    got_r = rtree_nearests(rt, pts)
    for i, (x, y) in enumerate(pts):
        want = brute_nearest(segs, x, y)
        assert got_q[i] == want
        assert got_r[i] == want


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_fuzz_batch_consensus(seed):
    rng = np.random.default_rng(seed)
    segs = random_segments(int(rng.integers(5, 80)), DOMAIN, 48, seed=seed)
    pmr, _ = build_bucket_pmr(segs, DOMAIN, 4)
    rt, _ = build_rtree(segs, 1, 4)
    rects = windows(8, seed)
    got_q = quad_windows(pmr, rects)
    got_r = rtree_windows(rt, rects)
    for a, b in zip(got_q, got_r):
        assert np.array_equal(a, b)
