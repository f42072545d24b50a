"""Adjacency and the cell table are derived once per tree and never shipped.

``RTree.adjacency`` and the nearest probes' cell table
(``RTree.cells`` / ``Quadtree.cells``) are caches on the tree object:
N kernel calls derive them once (counted, not timed), recomputing one
gives the same arrays, every io/store round trip answers identically
from a payload whose bytes (and the ``IndexKey`` naming them) do not
know the cache exists, threads racing the first touch all get the
reference answers, and the packed result a kernel returns is
read-only.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import IndexKey, dataset_fingerprint
from repro.engine.worker import batch_kernel
from repro.geometry import random_segments
from repro.store import IndexStore
from repro.structures import (Quadtree, RTree, build_bucket_pmr, build_rtree,
                              build_sharded)
from repro.structures.batch import NEAREST, WINDOW
from repro.structures.csr import cell_table
from repro.structures.io import (payload_checksum, payload_to_tree,
                                 structure_payload)

from . import reference_batch

DOMAIN = 1024
SEGS = random_segments(400, DOMAIN, 64, seed=21)
RNG = np.random.default_rng(5)
LO = RNG.integers(0, 900, (40, 2)).astype(float)
RECTS = np.column_stack([LO, LO + RNG.integers(4, 120, (40, 2))])
PTS = RNG.uniform(0, DOMAIN, (40, 2))

BUILDS = {"rtree": lambda: build_rtree(SEGS, 2, 8)[0],
          "pmr": lambda: build_bucket_pmr(SEGS, DOMAIN, 8)[0]}


def answers(tree, reference=False):
    family = "rtree" if isinstance(tree, RTree) else "quadtree"
    if reference:
        window = getattr(reference_batch, f"batch_window_query_{family}")(tree, RECTS)
        nearest = getattr(reference_batch, f"batch_nearest_{family}")(tree, PTS)
    else:
        name = "rtree" if family == "rtree" else "pmr"
        window = batch_kernel(name, "window", True)(tree, RECTS, None)
        nearest = batch_kernel(name, "nearest", True)(tree, PTS, None)
    return [w.tolist() for w in window], nearest


def test_n_kernel_calls_derive_once(monkeypatch):
    derivations = []
    for prop in (RTree.adjacency, RTree.cells, Quadtree.cells):
        def counting(tree, real=prop.func):
            derivations.append(type(tree).__name__)
            return real(tree)
        monkeypatch.setattr(prop, "func", counting)
    rt, qt = BUILDS["rtree"](), BUILDS["pmr"]()
    for _ in range(5):
        answers(rt)
        answers(qt)
        rt.window_query(RECTS[0])
        rt.lines_in_leaf(0)
    assert sorted(derivations) == ["Quadtree", "RTree", "RTree"]


def test_derived_state_is_not_a_field():
    for cls, name in ((RTree, "adjacency"), (RTree, "cells"),
                      (Quadtree, "cells")):
        assert name not in cls.__dataclass_fields__
    assert not hasattr(Quadtree, "occupancy")   # no kernel reads it


@pytest.mark.parametrize("structure", sorted(BUILDS))
def test_recomputing_the_cell_table_gives_the_same_arrays(structure):
    tree = BUILDS[structure]()
    answers(tree)
    first = tree.cells
    again = cell_table(payload_to_tree(structure_payload(tree)).lines)
    for a, b in zip(first, again):
        assert np.array_equal(a, b) and a.dtype == b.dtype
        assert not a.flags.writeable
    lo, scale, reps = first
    side = reps.shape[0]
    assert side & (side - 1) == 0 and side * side <= len(SEGS)
    assert reps.min() >= 0 and reps.max() < len(SEGS)   # every cell filled


@pytest.mark.parametrize("structure", sorted(BUILDS))
def test_round_trips_answer_identically_from_unchanged_bytes(structure, tmp_path):
    tree = BUILDS[structure]()
    before = structure_payload(tree)
    want = answers(tree, reference=True)
    assert answers(tree) == want                     # derives the cache
    after = structure_payload(tree)
    assert sorted(after) == sorted(before) and "cells" not in after
    assert payload_checksum(after) == payload_checksum(before)
    assert all(np.array_equal(after[k], before[k]) and
               after[k].dtype == before[k].dtype for k in before)

    assert answers(payload_to_tree(after)) == want

    key = IndexKey.make(dataset_fingerprint(SEGS), structure, capacity=8)
    assert "cells" not in dict(key.params)
    store = IndexStore(tmp_path / "cache")
    store.put(key, tree)
    loaded, manifest = store.get(key)
    assert manifest["checksum"] == payload_checksum(   # what a cold tree stores
        structure_payload(BUILDS[structure](), dict(key.params)))
    assert answers(loaded) == want


def test_sharded_payload_ships_no_derived_state():
    idx = build_sharded(SEGS, DOMAIN, structure="rtree", shards=3)
    before = payload_checksum(structure_payload(idx))
    for k in range(idx.num_shards):
        idx.query_shard_batch(k, WINDOW, RECTS)
        idx.query_shard_batch(k, NEAREST, PTS)
    assert payload_checksum(structure_payload(idx)) == before


@pytest.mark.parametrize("structure", sorted(BUILDS))
def test_threads_first_touching_one_tree_all_get_the_reference(structure):
    want = answers(BUILDS[structure](), reference=True)
    tree = BUILDS[structure]()
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda _: answers(tree), range(8)))
    assert all(g == want for g in got)


@pytest.mark.parametrize("structure", sorted(BUILDS))
def test_packed_results_are_read_only(structure):
    tree = BUILDS[structure]()
    out = batch_kernel(structure, "window", True)(tree, RECTS, None)
    hit = next(o for o in out if o.size)
    assert not hit.flags.writeable
    with pytest.raises(ValueError):
        hit[0] = -1
    with pytest.raises(ValueError):
        hit.sort()
