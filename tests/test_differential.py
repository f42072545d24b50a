"""Differential property harness: sharded == unsharded == brute.

The sharding tentpole's correctness claim is *set identity*: for every
query kind, a sharded index must return exactly what the unsharded
tree and the brute-force oracle return, regardless of shard count or
curve ordering.  This harness drives that claim over seeded map
families chosen to stress different failure modes:

* ``uniform``  -- the default random workload;
* ``grid``     -- axis-aligned road grids (many collinear touches,
  segments crossing shard MBR boundaries);
* ``clustered``-- skewed density, so equal-count cuts produce shards
  with very different MBR areas;
* ``collinear``-- segments along one line, the worst case for both
  quadtree decomposition and R-tree overlap;
* ``single``   -- one segment, exercising the K > n degenerate path.

Every family runs at K in {1, 2, 7} under both curve orderings, for
window, point, nearest, and join.  Point queries compare against brute
only: the sharded index answers points as exact degenerate windows,
whereas the plain quadtree's ``point_query`` reports leaf candidates
(a decomposition-dependent superset), so tree-vs-sharded equality is
not the right oracle there.

The ``slow``-marked variant repeats the sweep on larger maps; tier-1
excludes it (``-m "not slow"`` in addopts) and CI runs it in a second
job with the same fixed seeds.

``test_engine_differential`` lifts the same identity one layer up:
probes through :class:`repro.engine.SpatialQueryEngine` against the
brute oracle.
"""

import numpy as np
import pytest

from repro.baselines.brute import (brute_nearest, brute_point_query,
                                   brute_window_query)
from repro.geometry import clustered_map, random_segments, road_map
from repro.structures import (
    brute_join,
    build_bucket_pmr,
    build_rtree,
    build_sharded,
    index_join,
)

from .structures import reference_batch as ref

DOMAIN = 1024
SHARD_COUNTS = (1, 2, 7)
ORDERINGS = ("morton", "hilbert")
STRUCTURES = ("pmr", "rtree")


def collinear_map(n, seed):
    """Segments strung along one diagonal, with touching endpoints."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.02, 0.98, n + 1)) * DOMAIN
    segs = np.column_stack([t[:-1], t[:-1], t[1:], t[1:]])
    return segs


def make_family(family, seed, big=False):
    scale = 8 if big else 1
    if family == "uniform":
        return random_segments(90 * scale, DOMAIN, 96, seed=seed)
    if family == "grid":
        k = 6 if not big else 16
        return road_map(rows=k, cols=k, domain=DOMAIN, seed=seed)
    if family == "clustered":
        return clustered_map(80 * scale, clusters=5, spread=60,
                             domain=DOMAIN, seed=seed)
    if family == "collinear":
        return collinear_map(24 * scale, seed)
    if family == "single":
        return np.array([[100.0, 200.0, 700.0, 450.0]])
    raise AssertionError(family)


def full_tree(structure, lines):
    if structure == "pmr":
        tree, _ = build_bucket_pmr(lines, DOMAIN, 8)
        return tree, ref.quadtree_window_query, ref.quadtree_nearest
    tree, _ = build_rtree(lines, 2, 8)
    return tree, ref.rtree_window_query, ref.rtree_nearest


def probe_windows(rng, k):
    lo = rng.uniform(0, DOMAIN * 0.85, (k, 2))
    hi = np.minimum(lo + rng.uniform(4, DOMAIN * 0.4, (k, 2)), DOMAIN)
    return np.hstack([lo, hi])


def run_differential(family, structure, shards, ordering, seed,
                     big=False, probes=10):
    lines = make_family(family, seed, big=big)
    idx = build_sharded(lines, DOMAIN, structure, shards=shards,
                        ordering=ordering)
    idx.check()
    # the unsharded tree through the scalar searches the one-probe waves
    # retired (test references)
    tree, scalar_window, scalar_nearest = full_tree(structure, lines)
    rng = np.random.default_rng(seed + 1000)
    # window: sharded == unsharded exact == brute
    for rect in probe_windows(rng, probes):
        got = idx.window_query(rect)
        assert np.array_equal(got, brute_window_query(lines, rect)), \
            (family, structure, shards, ordering, "window")
        assert np.array_equal(got, np.unique(scalar_window(tree, rect))), \
            (family, structure, shards, ordering, "window-vs-tree")
    # point + nearest: anchor half the probes on segment interiors so
    # point queries actually hit
    pts = rng.uniform(0, DOMAIN, (probes, 2))
    mids = 0.5 * (lines[:, 0:2] + lines[:, 2:4])
    pts[::2] = mids[rng.integers(0, mids.shape[0], pts[::2].shape[0])]
    for px, py in pts:
        assert np.array_equal(idx.point_query(px, py),
                              brute_point_query(lines, px, py)), \
            (family, structure, shards, ordering, "point")
        gid, d = idx.nearest(px, py)
        bid, bd = brute_nearest(lines, px, py)
        assert (gid, d) == (bid, pytest.approx(bd)), \
            (family, structure, shards, ordering, "nearest")
        tid, td = scalar_nearest(tree, px, py)
        assert (gid, d) == (tid, pytest.approx(td)), \
            (family, structure, shards, ordering, "nearest-vs-tree")
    # join: self-join against a second sharded index with a different cut
    other = build_sharded(lines, DOMAIN, structure,
                          shards=max(1, shards - 1), ordering=ordering)
    assert np.array_equal(index_join(idx, other),
                          brute_join(lines, lines)), \
        (family, structure, shards, ordering, "join")


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("family",
                         ["uniform", "grid", "clustered", "collinear",
                          "single"])
def test_sharded_identical_to_unsharded_and_brute(family, structure, shards,
                                                  ordering):
    run_differential(family, structure, shards, ordering, seed=7)


@pytest.mark.slow
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("family", ["uniform", "grid", "clustered"])
@pytest.mark.parametrize("seed", [11, 29])
def test_sharded_identity_large_maps(family, structure, shards, ordering,
                                     seed):
    run_differential(family, structure, shards, ordering, seed=seed,
                     big=True, probes=25)


def run_engine_differential(family, structure, shards, seed, probes=8):
    """Engine answers == brute oracle."""
    from repro.engine import SpatialQueryEngine

    lines = np.unique(make_family(family, seed), axis=0)
    with SpatialQueryEngine(structure=structure, shards=shards,
                            ordering="hilbert", max_batch=64, max_wait=0.3,
                            workers=2) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        rng = np.random.default_rng(seed + 2000)
        rects = probe_windows(rng, probes)
        pts = rng.uniform(0, DOMAIN, (probes, 2))
        mids = 0.5 * (lines[:, 0:2] + lines[:, 2:4])
        pts[::2] = mids[rng.integers(0, mids.shape[0], pts[::2].shape[0])]
        w = [eng.submit_window(fp, r) for r in rects]
        p = [eng.submit_point(fp, pt) for pt in pts]
        n = [eng.submit_nearest(fp, pt) for pt in pts]
        eng.flush()
        for fut, rect in zip(w, rects):
            assert np.array_equal(fut.result(120),
                                  brute_window_query(lines, rect)), \
                (family, structure, shards, "window")
        for fut, (px, py) in zip(p, pts):
            # the engine point contract is exact stabbing regardless of
            # structure or shard layout, so equality (not superset) is
            # the oracle here
            assert np.array_equal(fut.result(120),
                                  brute_point_query(lines, px, py)), \
                (family, structure, shards, "point")
        for fut, (px, py) in zip(n, pts):
            gid, d = fut.result(120)
            bid, bd = brute_nearest(lines, px, py)
            assert (gid, d) == (bid, pytest.approx(bd)), \
                (family, structure, shards, "nearest")


@pytest.mark.parametrize("shards", (1, 3))
@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("family", ["uniform", "clustered"])
def test_engine_differential(family, structure, shards):
    run_engine_differential(family, structure, shards, seed=17)
