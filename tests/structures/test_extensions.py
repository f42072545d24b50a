"""Extension-module tests: linear quadtrees, dynamic updates, nearest,
overlay points."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import brute_nearest
from repro.geometry import paper_dataset, random_segments
from repro.structures import (
    brute_join,
    build_bucket_pmr,
    build_pm1,
    build_rtree,
    delete_lines,
    insert_lines,
    overlay_points,
    to_linear,
)


class TestLinearQuadtree:
    def setup_method(self):
        self.segs = random_segments(60, domain=128, max_len=24, seed=5)
        self.tree, _ = build_bucket_pmr(self.segs, 128, 4)
        self.lin = to_linear(self.tree)

    def test_structure_checks(self):
        self.lin.check()
        assert self.lin.num_leaves == self.tree.num_leaves

    def test_codes_cover_space_disjointly(self):
        spans = 4 ** (self.lin.height - self.lin.levels)
        assert int(spans.sum()) == 4 ** self.lin.height

    def test_point_queries_match_pointered_tree(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            px, py = rng.uniform(0, 128, 2)
            got = set(self.lin.point_query(px, py).tolist())
            want = set(self.tree.point_query(px, py).tolist())
            assert got == want, (px, py)

    def test_domain_corner(self):
        got = set(self.lin.point_query(128, 128).tolist())
        want = set(self.tree.point_query(128, 128).tolist())
        assert got == want

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            self.lin.find_leaf(129, 0)

    def test_hilbert_ordering_valid_but_not_searchable(self):
        lin_h = to_linear(self.tree, curve="hilbert")
        lin_h.check()
        with pytest.raises(ValueError, match="Morton"):
            lin_h.find_leaf(1, 1)

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            to_linear(self.tree, curve="peano-gosper")

    def test_pm1_tree_also_linearises(self):
        tree, _ = build_pm1(paper_dataset(), 8)
        lin = to_linear(tree)
        lin.check()
        assert set(lin.point_query(1.2, 6.2).tolist()) >= {2, 3, 8}


class TestDynamicUpdates:
    CAP = 4
    DOMAIN = 128

    def setup_method(self):
        self.segs = random_segments(70, domain=self.DOMAIN, max_len=24, seed=8)
        self.tree, _ = build_bucket_pmr(self.segs, self.DOMAIN, self.CAP)

    @pytest.mark.parametrize("drop", [
        [0], [1, 2, 3], list(range(0, 70, 3)), list(range(60)),
    ])
    def test_delete_equals_fresh_rebuild(self, drop):
        new_tree, survivors = delete_lines(self.tree, np.array(drop), self.CAP)
        fresh, _ = build_bucket_pmr(self.segs[survivors], self.DOMAIN, self.CAP)
        assert new_tree.decomposition_key() == fresh.decomposition_key()
        new_tree.check(full=True)

    def test_delete_everything_collapses(self):
        new_tree, survivors = delete_lines(self.tree, np.arange(70), self.CAP)
        assert survivors.size == 0
        assert new_tree.num_nodes == 1

    def test_delete_nothing_is_identity(self):
        new_tree, survivors = delete_lines(self.tree, np.array([], dtype=int), self.CAP)
        assert new_tree.decomposition_key() == self.tree.decomposition_key()

    def test_delete_merges_nodes(self):
        new_tree, _ = delete_lines(self.tree, np.arange(50), self.CAP)
        assert new_tree.num_nodes < self.tree.num_nodes

    def test_bad_id_rejected(self):
        with pytest.raises(IndexError):
            delete_lines(self.tree, np.array([99]), self.CAP)

    def test_insert_matches_rebuild(self):
        extra = random_segments(15, domain=self.DOMAIN, max_len=24, seed=9)
        grown, idmap = insert_lines(self.tree, extra, self.CAP)
        fresh, _ = build_bucket_pmr(np.vstack([self.segs, extra]),
                                    self.DOMAIN, self.CAP)
        assert grown.decomposition_key() == fresh.decomposition_key()
        assert idmap.size == 85

    def test_insert_then_delete_roundtrip(self):
        extra = random_segments(10, domain=self.DOMAIN, max_len=24, seed=10)
        grown, _ = insert_lines(self.tree, extra, self.CAP)
        back, survivors = delete_lines(grown, np.arange(70, 80), self.CAP)
        assert back.decomposition_key() == self.tree.decomposition_key()

    @settings(max_examples=15, deadline=None)
    @given(st.sets(st.integers(0, 69), max_size=40))
    def test_delete_property(self, drop):
        drop_arr = np.array(sorted(drop), dtype=int)
        new_tree, survivors = delete_lines(self.tree, drop_arr, self.CAP)
        fresh, _ = build_bucket_pmr(self.segs[survivors], self.DOMAIN, self.CAP)
        assert new_tree.decomposition_key() == fresh.decomposition_key()


class TestNearest:
    def setup_method(self):
        self.segs = random_segments(90, domain=256, max_len=32, seed=12)
        self.quad, _ = build_bucket_pmr(self.segs, 256, 4)
        self.rtree, _ = build_rtree(self.segs, 2, 8)

    def test_matches_brute_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            px, py = rng.uniform(-20, 276, 2)  # includes points outside
            want_id, want_d = brute_nearest(self.segs, px, py)
            for tree in (self.quad, self.rtree):
                got_id, got_d = tree.nearest(px, py)
                assert got_id == want_id and abs(got_d - want_d) < 1e-9

    def test_point_on_a_line(self):
        seg = self.segs[7]
        got_id, got_d = self.quad.nearest(seg[0], seg[1])
        assert got_d == 0.0

    def test_empty_tree_rejected(self):
        empty, _ = build_bucket_pmr(np.zeros((0, 4)), 256, 4)
        with pytest.raises(ValueError):
            empty.nearest(1, 1)
        empty_r, _ = build_rtree(np.zeros((0, 4)), 1, 4)
        with pytest.raises(ValueError):
            empty_r.nearest(1, 1)


class TestOverlayPoints:
    def test_points_lie_on_both_segments(self):
        from repro.geometry import point_segment_distance
        a = random_segments(40, 128, 32, seed=20)
        b = random_segments(40, 128, 32, seed=21)
        pairs = brute_join(a, b)
        pts = overlay_points(a, b, pairs)
        assert pts.shape == (pairs.shape[0], 2)
        for (i, j), (px, py) in zip(pairs, pts):
            assert point_segment_distance(px, py, a[i][None, :])[0] < 1e-7
            assert point_segment_distance(px, py, b[j][None, :])[0] < 1e-7

    def test_empty_pairs(self):
        assert overlay_points(np.zeros((0, 4)), np.zeros((0, 4)),
                              np.zeros((0, 2), int)).shape == (0, 2)

    def test_shared_vertex_of_paper_dataset(self):
        segs = paper_dataset()
        pairs = np.array([[2, 3]])  # c and d share (1, 6)
        pts = overlay_points(segs, segs, pairs)
        assert tuple(pts[0]) == (1.0, 6.0)


class TestPM1Dynamic:
    def setup_method(self):
        from repro.structures.dynamic import pm1_delete_lines
        self.pm1_delete_lines = pm1_delete_lines
        raw = random_segments(45, domain=64, max_len=16, seed=14)
        self.segs = np.unique(raw, axis=0)
        self.tree, _ = build_pm1(self.segs, 64)

    @pytest.mark.parametrize("step", [2, 3, 5])
    def test_delete_equals_fresh_rebuild(self, step):
        drop = np.arange(0, self.segs.shape[0], step)
        new_tree, survivors = self.pm1_delete_lines(self.tree, drop)
        fresh, _ = build_pm1(self.segs[survivors], 64)
        assert new_tree.decomposition_key() == fresh.decomposition_key()
        new_tree.check(full=True)

    def test_delete_to_single_line(self):
        keep_one = np.arange(1, self.segs.shape[0])
        new_tree, survivors = self.pm1_delete_lines(self.tree, keep_one)
        assert survivors.size == 1
        fresh, _ = build_pm1(self.segs[survivors], 64)
        assert new_tree.decomposition_key() == fresh.decomposition_key()

    def test_merging_releases_pathology(self):
        """Deleting one of the Figure 2 pair collapses the deep chain."""
        from repro.geometry import pathological_pair
        segs = pathological_pair(64, 1)
        tree, _ = build_pm1(segs, 64)
        new_tree, _ = self.pm1_delete_lines(tree, np.array([1]))
        assert new_tree.num_nodes < tree.num_nodes
        assert new_tree.height < tree.height


class TestLinearWindowQuery:
    def setup_method(self):
        self.segs = random_segments(70, domain=128, max_len=24, seed=15)
        self.tree, _ = build_bucket_pmr(self.segs, 128, 4)
        self.lin = to_linear(self.tree)

    @pytest.mark.parametrize("rect", [
        [0, 0, 128, 128], [10, 10, 50, 40], [100, 100, 128, 128], [63, 63, 65, 65],
    ])
    def test_matches_pointered_tree(self, rect):
        got = set(self.lin.window_query(np.array(rect, float)).tolist())
        want = set(self.tree.window_query(np.array(rect, float)).tolist())
        assert got == want

    def test_inexact_is_superset(self):
        rect = np.array([20, 20, 60, 60], float)
        exact = set(self.lin.window_query(rect, exact=True).tolist())
        loose = set(self.lin.window_query(rect, exact=False).tolist())
        assert exact <= loose


class TestMachineTrace:
    def test_trace_records_events(self):
        from repro.machine import Machine
        from repro.machine.scans import seg_scan
        m = Machine(trace=True)
        with m.phase("demo"):
            seg_scan(np.arange(4), machine=m)
        assert m.events == [("demo", "scan", 4)]
        out = m.format_trace()
        assert "demo" in out and "scan(n=4)" in out

    def test_untraced_machine_rejects_format(self):
        from repro.machine import Machine
        m = Machine()
        with pytest.raises(ValueError):
            m.format_trace()

    def test_trace_truncates(self):
        from repro.machine import Machine
        m = Machine(trace=True)
        for _ in range(10):
            m.record("scan", 1)
        out = m.format_trace(limit=3)
        assert "7 more" in out

    def test_reset_clears_events(self):
        from repro.machine import Machine
        m = Machine(trace=True)
        m.record("scan", 1)
        m.reset()
        assert m.events == []


class TestLinearCodeRangeQuery:
    def setup_method(self):
        self.segs = random_segments(90, domain=128, max_len=24, seed=33)
        tree, _ = build_bucket_pmr(self.segs, 128, 4)
        self.lin = to_linear(tree)

    @pytest.mark.parametrize("rect", [
        [0, 0, 128, 128], [32, 32, 64, 64], [10.5, 3.25, 77.5, 90.0],
        [127, 127, 128, 128], [0, 0, 1, 1],
    ])
    def test_equals_filter_query(self, rect):
        r = np.array(rect, float)
        for exact in (True, False):
            a = np.unique(self.lin.window_query(r, exact=exact))
            b = np.unique(self.lin.window_query_codes(r, exact=exact))
            assert np.array_equal(a, b)

    def test_window_outside_domain(self):
        got = self.lin.window_query_codes(np.array([200, 200, 300, 300], float))
        assert got.size == 0

    def test_hilbert_rejected(self):
        tree, _ = build_bucket_pmr(self.segs, 128, 4)
        lin_h = to_linear(tree, curve="hilbert")
        with pytest.raises(ValueError, match="Morton"):
            lin_h.window_query_codes(np.array([0, 0, 10, 10], float))
