"""Spatial-join tests (the Section 6 application)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import clustered_map, paper_dataset, random_segments
from repro.structures import (
    brute_join,
    build_bucket_pmr,
    build_rtree,
    index_join,
)
from repro.structures import join as join_mod
from repro.structures.sharded import build_index


class TestBruteJoin:
    def test_known_pairs(self):
        a = np.array([[0, 0, 4, 4], [10, 10, 12, 12]], float)
        b = np.array([[0, 4, 4, 0], [20, 20, 22, 22]], float)
        got = brute_join(a, b)
        assert got.tolist() == [[0, 0]]

    def test_self_join_of_paper_dataset(self):
        segs = paper_dataset()
        pairs = brute_join(segs, segs)
        keys = set(map(tuple, pairs.tolist()))
        # every line intersects itself
        assert all((i, i) in keys for i in range(9))
        # c, d, i pairwise intersect (shared vertex)
        for i in (2, 3, 8):
            for j in (2, 3, 8):
                assert (i, j) in keys

    def test_empty_inputs(self):
        assert brute_join(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 2)

    def test_blocking_is_invisible(self):
        a = random_segments(40, 128, 32, seed=0)
        b = random_segments(40, 128, 32, seed=1)
        assert np.array_equal(brute_join(a, b, block=7), brute_join(a, b, block=512))


@pytest.mark.parametrize("seed_a,seed_b,n", [(0, 1, 50), (2, 3, 80), (4, 5, 30)])
class TestStructuredJoins:
    def test_quadtree_join_matches_brute(self, seed_a, seed_b, n):
        a = random_segments(n, 256, 48, seed=seed_a)
        b = random_segments(n, 256, 48, seed=seed_b)
        ta, _ = build_bucket_pmr(a, 256, 8)
        tb, _ = build_bucket_pmr(b, 256, 8)
        assert np.array_equal(index_join(ta, tb), brute_join(a, b))

    def test_rtree_join_matches_brute(self, seed_a, seed_b, n):
        a = random_segments(n, 256, 48, seed=seed_a)
        b = random_segments(n, 256, 48, seed=seed_b)
        ra, _ = build_rtree(a, 2, 8)
        rb, _ = build_rtree(b, 2, 8)
        assert np.array_equal(index_join(ra, rb), brute_join(a, b))


class TestJoinEdgeCases:
    def test_mismatched_domains_join(self):
        a = random_segments(10, 64, 16, seed=0)
        b = random_segments(10, 128, 16, seed=1)
        ta, _ = build_bucket_pmr(a, 64, 4)
        tb, _ = build_bucket_pmr(b, 128, 4)
        assert np.array_equal(index_join(ta, tb), brute_join(a, b))

    def test_disjoint_maps_have_no_pairs(self):
        a = np.array([[0, 0, 10, 10]], float)
        b = np.array([[100, 100, 120, 120]], float)
        ta, _ = build_bucket_pmr(a, 128, 4)
        tb, _ = build_bucket_pmr(b, 128, 4)
        assert index_join(ta, tb).shape == (0, 2)

    def test_uneven_tree_depths(self):
        """One dense map (deep tree) joined with one sparse map."""
        a = clustered_map(120, clusters=1, spread=10, domain=256, seed=6)
        b = random_segments(10, 256, 64, seed=7)
        ta, _ = build_bucket_pmr(a, 256, 2)
        tb, _ = build_bucket_pmr(b, 256, 8)
        assert np.array_equal(index_join(ta, tb), brute_join(a, b))
        ra, _ = build_rtree(a, 2, 4)
        rb, _ = build_rtree(b, 1, 8)
        assert np.array_equal(index_join(ra, rb), brute_join(a, b))

    def test_empty_rtree_join(self):
        ra, _ = build_rtree(np.zeros((0, 4)), 1, 3)
        rb, _ = build_rtree(paper_dataset(), 1, 3)
        assert index_join(ra, rb).shape == (0, 2)


# -- index_join: the window-wave join against the oracles ---------------------

SIDE = 64   # coordinates on a 4-unit lattice: block edges down to depth 4


@st.composite
def lattice_maps(draw, max_n=30):
    """Segments with lattice endpoints: axis-parallel rows (zero-width
    MBRs), rows lying on quadtree block edges, shared endpoints,
    collinear overlaps, repeats and zero-length segments."""
    n = draw(st.integers(0, max_n))
    coord = st.integers(0, SIDE // 4).map(lambda v: 4.0 * v)
    rows = []
    for _ in range(n):
        x0, y0 = draw(coord), draw(coord)
        shape = draw(st.sampled_from(["free", "horizontal", "vertical"]))
        x1 = x0 if shape == "vertical" else draw(coord)
        y1 = y0 if shape == "horizontal" else draw(coord)
        rows.append([x0, y0, x1, y1])
    return np.array(rows, dtype=float).reshape(-1, 4)


INDEXES = [("pmr", 1), ("pmr", 3), ("rtree", 1), ("rtree", 3)]


@settings(max_examples=60, deadline=None)
@given(a=lattice_maps(), b=lattice_maps(),
       kinds=st.tuples(st.sampled_from(INDEXES), st.sampled_from(INDEXES)),
       wave=st.sampled_from([1, 3, join_mod.WAVE]))
def test_index_join_matches_brute(a, b, kinds, wave):
    """Any pairing of plain / sharded pmr / rtree indexes, either map
    larger (the column swap), either map empty, and -- with a wave of 1
    or 3 windows -- probe ids offset across many wave boundaries."""
    (sa, ka), (sb, kb) = kinds
    ia = build_index(a, SIDE, sa, shards=ka, capacity=4, max_depth=6)
    ib = build_index(b, SIDE, sb, shards=kb, capacity=4, max_depth=6)
    with mock.patch.object(join_mod, "WAVE", wave):
        got = index_join(ia, ib)
    want = brute_join(a, b)
    assert got.dtype == np.int64 and got.shape[1] == 2
    assert np.array_equal(got, want)


def _axis_map(rng, n, horizontal):
    """``n`` axis-parallel segments on a 16-unit lattice of a 1024 domain
    (so most lie on quadtree block edges), lengths 0..64."""
    fixed = 16.0 * rng.integers(0, 65, n)
    lo = 16.0 * rng.integers(0, 61, n)
    hi = lo + 16.0 * rng.integers(0, 5, n)
    cols = (lo, fixed, hi, fixed) if horizontal else (fixed, lo, fixed, hi)
    return np.column_stack(cols)


@pytest.mark.parametrize("n_a,n_b", [(4200, 4300), (4300, 4200)])
def test_two_waves_match_the_crossing_oracle(n_a, n_b):
    """Both maps longer than one wave: horizontal rows against vertical
    ones, whose intersecting pairs are exact on the lattice (closed
    spans, so touching endpoints count) without an all-pairs scan.  The
    MBR-culled :func:`brute_join` answers to the same oracle."""
    rng = np.random.default_rng(11)
    a = _axis_map(rng, n_a, horizontal=True)
    b = _axis_map(rng, n_b, horizontal=False)
    hit = ((a[:, 0, None] <= b[None, :, 0]) & (b[None, :, 0] <= a[:, 2, None])
           & (b[None, :, 1] <= a[:, 1, None]) & (a[:, 1, None] <= b[None, :, 3]))
    want = np.argwhere(hit).astype(np.int64)
    assert min(n_a, n_b) > join_mod.WAVE and want.shape[0] > 0
    pmr = build_index(a, 1024, "pmr", capacity=8)
    sharded = build_index(b, 1024, "rtree", shards=4)
    assert np.array_equal(index_join(pmr, sharded), want)
    assert np.array_equal(brute_join(a, b), want)
