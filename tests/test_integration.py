"""End-to-end integration and cross-structure fuzz tests.

Each test drives the whole pipeline -- generate, build every structure,
query, join -- and demands bitwise agreement between all answers.  These
are the repository's "one of these is lying" detectors: a bug in any
build, query, or predicate breaks cross-structure consensus somewhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Machine,
    brute_join,
    brute_nearest,
    brute_window_query,
    build_bucket_pmr,
    build_pm1,
    build_rtree,
    index_join,
    to_linear,
    use_machine,
)
from repro.baselines import SeqRTree
from repro.geometry import clustered_map, random_segments, road_map, star_map

DOMAIN = 256


def build_everything(segs):
    pmr, _ = build_bucket_pmr(segs, DOMAIN, 4)
    pm1, _ = build_pm1(np.unique(segs, axis=0), DOMAIN)
    rtree, _ = build_rtree(segs, 2, 6)
    seq = SeqRTree.build(segs, m=2, M=6)
    lin = to_linear(pmr)
    return pmr, pm1, rtree, seq, lin


@pytest.mark.parametrize("generator,kwargs", [
    (random_segments, dict(n=60, domain=DOMAIN, max_len=32, seed=1)),
    (clustered_map, dict(n=60, clusters=3, spread=24, domain=DOMAIN, seed=2)),
    (road_map, dict(rows=5, cols=5, domain=DOMAIN, jitter=4, seed=3)),
    (star_map, dict(stars=3, rays=6, radius=24, domain=DOMAIN, seed=4)),
])
class TestCrossStructureConsensus:
    def test_window_queries_agree(self, generator, kwargs):
        segs = generator(**kwargs)
        pmr, pm1, rtree, seq, lin = build_everything(segs)
        uniq = np.unique(segs, axis=0)
        rng = np.random.default_rng(9)
        for _ in range(12):
            x, y = rng.integers(0, DOMAIN - 40, 2)
            rect = np.array([x, y, x + rng.integers(8, 40),
                             y + rng.integers(8, 40)], float)
            truth = set(brute_window_query(segs, rect).tolist())
            for tree in (pmr, rtree, seq, lin):
                assert set(tree.window_query(rect).tolist()) == truth
            # PM1 built over deduplicated lines: compare by geometry
            got_pm1 = {tuple(uniq[i]) for i in pm1.window_query(rect)}
            want_geo = {tuple(segs[i]) for i in truth}
            want_geo_canon = {
                g if g <= (g[2], g[3], g[0], g[1]) else (g[2], g[3], g[0], g[1])
                for g in want_geo}
            got_canon = {
                g if g <= (g[2], g[3], g[0], g[1]) else (g[2], g[3], g[0], g[1])
                for g in got_pm1}
            assert got_canon == want_geo_canon

    def test_nearest_agrees(self, generator, kwargs):
        segs = generator(**kwargs)
        pmr, _, rtree, _, _ = build_everything(segs)
        rng = np.random.default_rng(10)
        for _ in range(12):
            px, py = rng.uniform(0, DOMAIN, 2)
            want = brute_nearest(segs, px, py)
            assert pmr.nearest(px, py) == want
            assert rtree.nearest(px, py) == want


class TestJoinConsensus:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_joins_agree_under_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        a = random_segments(int(rng.integers(5, 40)), DOMAIN, 48, seed=seed)
        b = random_segments(int(rng.integers(5, 40)), DOMAIN, 48, seed=seed + 1)
        want = brute_join(a, b)
        qa, _ = build_bucket_pmr(a, DOMAIN, 4)
        qb, _ = build_bucket_pmr(b, DOMAIN, 4)
        assert np.array_equal(index_join(qa, qb), want)
        ra, _ = build_rtree(a, 1, 4)
        rb, _ = build_rtree(b, 1, 4)
        assert np.array_equal(index_join(ra, rb), want)


class TestAccountingIsolation:
    def test_builds_do_not_leak_into_other_machines(self):
        segs = random_segments(50, DOMAIN, 32, seed=5)
        m1 = Machine()
        with use_machine(m1):
            build_bucket_pmr(segs, DOMAIN, 4)
        m2 = Machine()
        with use_machine(m2):
            build_bucket_pmr(segs, DOMAIN, 4)
        assert m1.steps == m2.steps
        assert m1.counts == m2.counts

    def test_explicit_machine_bypasses_default(self):
        from repro import get_machine, reset_machine
        segs = random_segments(30, DOMAIN, 32, seed=6)
        reset_machine()
        before = get_machine().steps
        build_bucket_pmr(segs, DOMAIN, 4, machine=Machine())
        assert get_machine().steps == before


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6))
def test_fuzz_full_pipeline(seed):
    """Generate, build all, spot-check one query of each kind."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    segs = random_segments(n, DOMAIN, 40, seed=seed)
    pmr, trace = build_bucket_pmr(segs, DOMAIN, int(rng.integers(1, 6)))
    pmr.check(full=(n <= 25))
    rtree, _ = build_rtree(segs, 1, int(rng.integers(3, 8)))
    rtree.check()
    rect = np.array([20, 20, 120, 140], float)
    truth = set(brute_window_query(segs, rect).tolist())
    assert set(pmr.window_query(rect).tolist()) == truth
    assert set(rtree.window_query(rect).tolist()) == truth
