"""A warm-started batch update is the fresh build, array for array.

:func:`repro.structures.dynamic.apply_batch` reaches the post-batch tree
from the parent's by merging released blocks, descending the new rows
and re-splitting only overflowing leaves.  Because the bucket PMR and
PM1 shapes are pure functions of the line set, the specification is the
fresh build on the post-batch lines, and the comparison is strict: every
:class:`~repro.structures.Quadtree` field, values and dtype, so node
numbering and CSR layout -- what fingerprints, stored indexes and the
shm payload stand on -- cannot drift.

Cells: map kind x {pmr, pm1} x batch kind x k, depth-capped trees, a
hypothesis search over small integer maps (rows on split axes, shared
endpoints), the frozen per-node reference (``reference_dynamic``), and
the scaling cell: for a fixed batch the machine work follows the tree's
depth, not the map's size.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import clustered_map, random_segments, road_map
from repro.machine import Machine
from repro.structures import build_bucket_pmr, build_pm1
from repro.structures.dynamic import apply_batch, delete_lines, pm1_delete_lines

from .reference_dynamic import (reference_delete_lines, reference_insert_lines,
                                reference_pm1_delete_lines)
from .test_build_identity import assert_same_tree

DOMAIN = 1024
CAPACITY = 4


def _clean(lines):
    """PM1-admissible rows: no zero-length line, no duplicate."""
    lines = lines[(lines[:, 0] != lines[:, 2]) | (lines[:, 1] != lines[:, 3])]
    canon = np.where((lines[:, 0:2] > lines[:, 2:4]).any(axis=1)[:, None],
                     lines[:, [2, 3, 0, 1]], lines)
    _, first = np.unique(canon, axis=0, return_index=True)
    return lines[np.sort(first)]


MAPS = {
    "uniform": lambda seed, n: random_segments(n, DOMAIN, 48, seed=seed),
    "clustered": lambda seed, n: clustered_map(n, clusters=4, spread=40,
                                               domain=DOMAIN, seed=seed),
    "grid": lambda seed, n: road_map(rows=6, cols=6, domain=DOMAIN,
                                     seed=seed)[:n],
    "pm1_sparse": lambda seed, n: random_segments(n // 2, DOMAIN, 24, seed=seed),
}
BATCHES = ("insert", "delete", "mixed", "delete_all", "insert_into_empty")


def build(structure, lines, max_depth=None):
    if structure == "pmr":
        return build_bucket_pmr(lines, DOMAIN, CAPACITY, max_depth=max_depth)[0]
    return build_pm1(lines, DOMAIN, max_depth=max_depth)[0]


def batch_case(kind, structure, batch, k, seed=0):
    """(parent lines, keep mask, inserted rows) for one cell."""
    rng = np.random.default_rng(seed)
    lines = _clean(MAPS[kind](seed, 240))
    rows = MAPS[kind](seed + 1, 240)
    if structure == "pm1":
        # fresh rows only: a PM1 map holds no duplicate
        pool = _clean(np.vstack([lines, rows]))[lines.shape[0]:]
    else:
        pool = rows
    rows = pool[rng.choice(pool.shape[0], min(k, pool.shape[0]), replace=False)]
    n = lines.shape[0]
    keep = np.ones(n, dtype=bool)
    if batch in ("delete", "mixed"):
        keep[rng.choice(n, min(k, n), replace=False)] = False
    elif batch == "delete_all":
        keep[:] = False
    if batch == "insert_into_empty":
        lines, keep = lines[:0], keep[:0]
    if batch in ("delete", "delete_all"):
        rows = rows[:0]
    return lines, keep, rows


def assert_warm_equals_fresh(structure, lines, keep, rows, max_depth=None):
    parent = build(structure, lines, max_depth)
    got = apply_batch(parent, structure, keep, rows, CAPACITY)
    want = build(structure, np.concatenate([lines[keep], rows]), max_depth)
    assert_same_tree(got, want)
    got.check(full=True)
    return got


@pytest.mark.parametrize("k", [1, 8, 64])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("structure", ["pmr", "pm1"])
@pytest.mark.parametrize("kind", sorted(MAPS))
def test_warm_start_is_the_fresh_build(kind, structure, batch, k):
    assert_warm_equals_fresh(structure, *batch_case(kind, structure, batch, k))


@pytest.mark.parametrize("structure", ["pmr", "pm1"])
@pytest.mark.parametrize("batch", ["insert", "delete", "mixed"])
def test_depth_capped_trees(structure, batch):
    lines, keep, rows = batch_case("clustered", structure, batch, 64, seed=3)
    got = assert_warm_equals_fresh(structure, lines, keep, rows, max_depth=4)
    assert got.height == 4     # the cap binds


def test_batches_chain_from_warm_parents():
    """Each commit warm-starts from the previous warm result."""
    rng = np.random.default_rng(9)
    lines = random_segments(300, DOMAIN, 48, seed=9)
    tree = build("pmr", lines)
    for step in range(8):
        keep = rng.random(tree.lines.shape[0]) > 0.05
        rows = random_segments(8, DOMAIN, 48, seed=100 + step)
        tree = apply_batch(tree, "pmr", keep, rows, CAPACITY)
        assert_same_tree(tree, build("pmr", tree.lines))


# -- hypothesis: small integer maps, rows on split axes, shared endpoints ----

SMALL = 32
coord = st.integers(0, SMALL)
row = st.tuples(coord, coord, coord, coord)


@settings(max_examples=120, deadline=None)
@given(lines=st.lists(row, max_size=40), rows=st.lists(row, max_size=12),
       drop=st.lists(st.booleans(), max_size=40),
       structure=st.sampled_from(["pmr", "pm1"]),
       capacity=st.integers(1, 3), max_depth=st.sampled_from([None, 3]))
def test_small_integer_maps(lines, rows, drop, structure, capacity, max_depth):
    lines = np.asarray(lines, dtype=float).reshape(-1, 4)
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    keep = np.ones(lines.shape[0], dtype=bool)
    keep[:len(drop)] = ~np.asarray(drop[:lines.shape[0]], dtype=bool)
    if structure == "pm1":
        lines = _clean(lines)
        keep = keep[:lines.shape[0]]
        rows = _clean(np.vstack([lines[keep], rows]))[int(keep.sum()):]
        builder = lambda L: build_pm1(L, SMALL, max_depth=max_depth)[0]
    else:
        builder = lambda L: build_bucket_pmr(L, SMALL, capacity, max_depth=max_depth)[0]
    got = apply_batch(builder(lines), structure, keep, rows, capacity)
    assert_same_tree(got, builder(np.concatenate([lines[keep], rows])))
    got.check(full=True)


# -- the frozen per-node reference ----------------------------------------


@pytest.mark.parametrize("drop", [[0], list(range(0, 240, 3)), list(range(200))])
def test_pmr_delete_agrees_with_the_reference(drop):
    lines = random_segments(240, DOMAIN, 48, seed=2)
    tree = build("pmr", lines)
    got, survivors = delete_lines(tree, drop, CAPACITY)
    want, want_survivors = reference_delete_lines(tree, drop, CAPACITY)
    assert np.array_equal(survivors, want_survivors)
    assert got.decomposition_key() == want.decomposition_key()


def test_pmr_insert_agrees_with_the_reference():
    tree = build("pmr", random_segments(240, DOMAIN, 48, seed=4))
    rows = random_segments(30, DOMAIN, 48, seed=5)
    got = apply_batch(tree, "pmr", np.ones(240, dtype=bool), rows, CAPACITY)
    assert_same_tree(got, reference_insert_lines(tree, rows, CAPACITY)[0])


def test_pm1_collapse_below_a_vertex_free_child():
    """Two lines from one vertex cross a sibling quadrant: that quadrant
    must split, its parent need not.  The reference only ever merges four
    *leaf* children, so deleting the line that forced the parent's split
    leaves it stuck; the warm start re-asks the rule above it."""
    segs = np.array([[1, 1, 20, 15], [1, 1, 15, 20], [5, 9, 6, 10.0]])
    tree = build_pm1(segs, 32)[0]
    fresh = build_pm1(segs[:2], 32)[0]
    got, _ = pm1_delete_lines(tree, [2])
    assert_same_tree(got, fresh)
    stale, _ = reference_pm1_delete_lines(tree, [2])
    assert stale.decomposition_key() != fresh.decomposition_key()


# -- scaling: the machine work of a fixed batch follows depth, not n --------


def test_fixed_batch_work_does_not_scale_with_the_map():
    steps, longest, heights = {}, {}, {}
    for n in (5000, 40000):
        lines = random_segments(n, 4096, 128, seed=1)
        tree = build_bucket_pmr(lines, 4096, 8)[0]
        rng = np.random.default_rng(3)
        runs = []
        for rep in range(5):
            keep = np.ones(n, dtype=bool)
            keep[rng.choice(n, 8, replace=False)] = False
            m = Machine()
            apply_batch(tree, "pmr", keep,
                        random_segments(8, 4096, 128, seed=100 + rep), 8, m)
            runs.append((m.steps, m.max_vector_length))
        steps[n] = float(np.median([s for s, _ in runs]))
        longest[n] = max(v for _, v in runs)
        heights[n] = tree.height
    # 8x the map: the tree is ~4 levels deeper and the batch's steps grow
    # with those levels only.  The longest vector is the batch's q-edges
    # (finer blocks cut a row into more of them), still far below n
    assert steps[40000] <= steps[5000] * heights[40000] / heights[5000]
    assert longest[40000] < 40000 // 20
    print(f"k=8 steps {steps} longest vector {longest} heights {heights}")
