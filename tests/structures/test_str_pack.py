"""STR bulk-loading tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import brute_window_query
from repro.geometry import clustered_map, random_segments
from repro.machine import Machine, use_machine
from repro.extras import build_rtree_str
from repro.structures import build_rtree


class TestBuild:
    @pytest.mark.parametrize("n", [1, 4, 9, 65, 500])
    def test_invariants(self, n):
        segs = random_segments(n, 512, 48, seed=n)
        tree = build_rtree_str(segs, 2, 8)
        tree.check(strict_min_fill=False)

    def test_leaves_are_packed_full(self):
        segs = random_segments(640, 1024, 64, seed=1)
        tree = build_rtree_str(segs, 2, 8)
        counts = np.bincount(tree.line_leaf, minlength=tree.num_leaves)
        assert np.count_nonzero(counts == 8) >= tree.num_leaves - 2

    def test_fewer_nodes_than_dynamic_build(self):
        segs = random_segments(1000, 2048, 64, seed=2)
        packed = build_rtree_str(segs, 2, 8)
        dyn, _ = build_rtree(segs, 2, 8)
        assert packed.num_nodes < dyn.num_nodes

    def test_empty_input(self):
        tree = build_rtree_str(np.zeros((0, 4)), 1, 4)
        assert tree.height == 1

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            build_rtree_str(random_segments(5, 64, 16, seed=0), 3, 4)

    def test_two_sorts_per_level(self):
        segs = random_segments(512, 1024, 64, seed=3)
        m = Machine()
        with use_machine(m):
            tree = build_rtree_str(segs, 2, 8)
        levels_packed = tree.height - 1 if tree.height > 1 else 1
        assert m.counts["sort"] == 2 * levels_packed


class TestQueries:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_matches_brute(self, seed):
        segs = clustered_map(300, clusters=4, spread=40, domain=1024, seed=seed)
        tree = build_rtree_str(segs, 2, 8)
        for rect in ([0, 0, 1024, 1024], [100, 100, 400, 500], [900, 10, 1000, 90]):
            got = set(tree.window_query(np.array(rect, float)).tolist())
            want = set(brute_window_query(segs, rect).tolist())
            assert got == want

    def test_nearest_works_on_packed_tree(self):
        from repro.structures import brute_nearest, rtree_nearest
        segs = random_segments(150, 512, 48, seed=4)
        tree = build_rtree_str(segs, 2, 8)
        rng = np.random.default_rng(5)
        for _ in range(20):
            px, py = rng.uniform(0, 512, 2)
            assert rtree_nearest(tree, px, py) == brute_nearest(segs, px, py)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_property_fuzz(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    segs = random_segments(n, 256, 32, seed=seed)
    tree = build_rtree_str(segs, 1, int(rng.integers(3, 10)))
    tree.check(strict_min_fill=False)
    rect = np.array([30, 30, 180, 200], float)
    assert set(tree.window_query(rect).tolist()) == \
        set(brute_window_query(segs, rect).tolist())
