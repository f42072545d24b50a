"""The O(frontier) batch kernels give the very answers the old ones gave.

Every kernel in :mod:`repro.structures.batch` is compared with
``reference_batch`` -- the per-call-``argsort`` / ``np.unique``-loop
kernels it replaced -- array-equal: values, order, dtype ``int64``,
nearest ties by lowest id, and the same per-batch ``machine`` steps and
primitive counts, because the engine's answers, its ``steps`` /
``primitives`` accounting and the differential suites stand on them.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.extras import build_rtree_str
from repro.geometry import clustered_map, random_segments
from repro.machine import Machine
from repro.structures import batch, build_bucket_pmr, build_pm1, build_rtree

from . import reference_batch

DOMAIN = 512
BATCH_SIZES = (0, 1, 7, 64, 300)


def crossing(seed):
    """Long lines through many blocks: duplicate q-edges across leaves,
    and a shared endpoint fan so nearest probes tie on distance."""
    rng = np.random.default_rng(seed)
    long = np.column_stack([rng.integers(0, 64, 40), rng.integers(0, DOMAIN, 40),
                            rng.integers(448, DOMAIN, 40), rng.integers(0, DOMAIN, 40)])
    fan = np.column_stack([np.full(12, 256), np.full(12, 256),
                           rng.integers(0, DOMAIN, 12), rng.integers(0, DOMAIN, 12)])
    return np.unique(np.concatenate([long, fan]).astype(float), axis=0)


MAPS = {
    "uniform": lambda seed: random_segments(300, DOMAIN, 48, seed=seed),
    "clustered": lambda seed: clustered_map(300, clusters=5, spread=40,
                                            domain=DOMAIN, seed=seed),
    "crossing": crossing,
    "single": lambda seed: np.array([[10.0, 20.0, 200.0, 90.0]]),
}

BUILDS = {
    "pmr": lambda segs: build_bucket_pmr(segs, DOMAIN, 4)[0],
    "pm1": lambda segs: build_pm1(np.unique(segs, axis=0), DOMAIN, max_depth=7)[0],
    "rtree": lambda segs: build_rtree(segs, 2, 6)[0],
    "str": lambda segs: build_rtree_str(segs, 2, 6),
}


@lru_cache(maxsize=None)
def tree_of(map_kind, structure, map_seed):
    return BUILDS[structure](MAPS[map_kind](map_seed))


def probes(tree, nq, seed):
    """Windows (some degenerate, some missing the map) and points (on
    segment ends, anywhere, and a few outside the domain)."""
    rng = np.random.default_rng(seed)
    lo = rng.integers(-40, DOMAIN, (nq, 2)).astype(float)
    side = rng.integers(0, 160, (nq, 2)) * (rng.random((nq, 1)) < 0.9)
    rects = np.column_stack([lo, lo + side])
    ends = tree.lines[rng.integers(0, tree.lines.shape[0], nq), :2]
    anywhere = rng.uniform(-30, DOMAIN + 30, (nq, 2))
    pts = np.where(rng.random((nq, 1)) < 0.4, ends, anywhere)
    return rects, pts


def both(name, tree, payload, **kw):
    """One kernel on both implementations, each on a fresh machine: the
    per-batch accounting must agree before the answers are compared."""
    runs = []
    for mod in (batch, reference_batch):
        m = Machine()
        runs.append((getattr(mod, name)(tree, payload, machine=m, **kw), m))
    (got, gm), (want, wm) = runs
    assert (gm.steps, gm.total_primitives, gm.counts) == \
        (wm.steps, wm.total_primitives, wm.counts), name
    assert len(got) == len(want) == len(payload)
    return got, want


def assert_same_ids(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


@settings(max_examples=120, deadline=None)
@given(map_kind=st.sampled_from(sorted(MAPS)), structure=st.sampled_from(sorted(BUILDS)),
       map_seed=st.integers(0, 2), nq=st.sampled_from(BATCH_SIZES),
       exact=st.booleans(), seed=st.integers(0, 10**6))
def test_kernels_match_the_reference(map_kind, structure, map_seed, nq, exact, seed):
    tree = tree_of(map_kind, structure, map_seed)
    family = "rtree" if structure in ("rtree", "str") else "quadtree"
    rects, pts = probes(tree, nq, seed)

    assert_same_ids(*both(f"batch_window_query_{family}", tree, rects, exact=exact))
    if family == "quadtree":    # non-strict: points outside answer empty
        assert_same_ids(*both("batch_point_query_quadtree", tree, pts, strict=False))
    else:
        assert_same_ids(*both("batch_point_query_rtree", tree, pts, exact=exact))
    got, want = both(f"batch_nearest_{family}", tree, pts)
    assert got == want          # (id, distance) pairs, ties to the lowest id
    assert all(type(i) is int and type(d) is float for i, d in got)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("structure", sorted(BUILDS))
@pytest.mark.parametrize("map_kind", ["crossing", "uniform"])
def test_empty_whole_and_zero_area_windows(map_kind, structure, exact):
    """Inverted (min > max) windows leave the frontier at the seed:
    mixed into one batch with whole-domain and zero-area windows, and
    as a batch of their own, they keep the reference's ids and its
    per-batch accounting."""
    tree = tree_of(map_kind, structure, 0)
    family = "rtree" if structure in ("rtree", "str") else "quadtree"
    end = tree.lines[0]
    inverted = [[300, 10, 200, 90], [10, 300, 90, 200],
                [DOMAIN, DOMAIN, 0, 0], [end[0] + 1, end[1], end[0], end[1]]]
    whole = [[0, 0, DOMAIN, DOMAIN],
             [-DOMAIN, -DOMAIN, 2 * DOMAIN, 2 * DOMAIN]]
    zero_area = [[end[0], end[1], end[0], end[1]], [256, 256, 256, 256],
                 [100, 0, 100, DOMAIN], [0, 64, DOMAIN, 64]]
    mixed = np.array(inverted[:2] + whole + zero_area + inverted[2:], float)
    for rects in (mixed, np.array(inverted, float)):
        assert_same_ids(*both(f"batch_window_query_{family}", tree, rects,
                              exact=exact))


def test_strict_point_probe_still_rejects_the_outside():
    tree = tree_of("uniform", "pmr", 0)
    for mod in (batch, reference_batch):
        with pytest.raises(ValueError):
            mod.batch_point_query_quadtree(tree, [[-1.0, 5.0]], strict=True)
