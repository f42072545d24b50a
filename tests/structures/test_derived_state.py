"""Adjacency and occupancy are derived once per tree and never shipped.

``RTree.adjacency`` / ``Quadtree.occupancy`` are caches on the tree
object: N kernel calls derive them once (counted, not timed), every
io/store/shm round trip answers identically from a payload whose bytes
do not know the cache exists, threads racing the first touch all get
the reference answers, and the packed result a kernel returns is
read-only.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import IndexKey, dataset_fingerprint
from repro.geometry import random_segments
from repro.shm import INDEX_PREFIX, ShmArena, attach_payload
from repro.store import IndexStore, store_key_id
from repro.structures import (Quadtree, RTree, build_bucket_pmr, build_rtree,
                              build_sharded)
from repro.structures import batch
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


def answers(tree, mod=batch):
    family = "rtree" if isinstance(tree, RTree) else "quadtree"
    window = getattr(mod, f"batch_window_query_{family}")(tree, RECTS)
    nearest = getattr(mod, f"batch_nearest_{family}")(tree, PTS)
    return [w.tolist() for w in window], nearest


def test_n_kernel_calls_derive_once(monkeypatch):
    derivations = []
    for prop in (RTree.adjacency, Quadtree.occupancy):
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
    assert sorted(derivations) == ["Quadtree", "RTree"]


def test_derived_state_is_not_a_field():
    for cls, name in ((RTree, "adjacency"), (Quadtree, "occupancy")):
        assert name not in cls.__dataclass_fields__


@pytest.mark.parametrize("structure", sorted(BUILDS))
def test_round_trips_answer_identically_from_unchanged_bytes(structure, tmp_path):
    tree = BUILDS[structure]()
    before = structure_payload(tree)
    want = answers(tree, reference_batch)
    assert answers(tree) == want                     # derives the cache
    after = structure_payload(tree)
    assert sorted(after) == sorted(before)
    assert payload_checksum(after) == payload_checksum(before)
    assert all(np.array_equal(after[k], before[k]) and
               after[k].dtype == before[k].dtype for k in before)

    assert answers(payload_to_tree(after)) == want

    key = IndexKey.make(dataset_fingerprint(SEGS), structure, capacity=8)
    store = IndexStore(tmp_path / "cache")
    store.put(key, tree)
    loaded, manifest = store.get(key)
    assert manifest["checksum"] == payload_checksum(   # what a cold tree stores
        structure_payload(BUILDS[structure](), dict(key.params)))
    assert answers(loaded) == want

    arena = ShmArena(registry_dir=str(tmp_path / "shm"))
    try:
        handle = arena.publish_payload(INDEX_PREFIX + store_key_id(key), after)
        att = attach_payload(handle)
        try:
            assert answers(payload_to_tree(att.value)) == want
        finally:
            att.close()
    finally:
        arena.close()


def test_sharded_payload_ships_no_derived_state():
    idx = build_sharded(SEGS, DOMAIN, structure="rtree", shards=3)
    before = payload_checksum(structure_payload(idx))
    for k in range(idx.num_shards):
        idx.query_shard_batch(k, "window", RECTS)
        idx.query_shard_batch(k, "nearest", PTS)
    assert payload_checksum(structure_payload(idx)) == before


@pytest.mark.parametrize("structure", sorted(BUILDS))
def test_threads_first_touching_one_tree_all_get_the_reference(structure):
    want = answers(BUILDS[structure](), reference_batch)
    tree = BUILDS[structure]()
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda _: answers(tree), range(8)))
    assert all(g == want for g in got)


@pytest.mark.parametrize("structure", sorted(BUILDS))
def test_packed_results_are_read_only(structure):
    tree = BUILDS[structure]()
    family = "rtree" if structure == "rtree" else "quadtree"
    out = getattr(batch, f"batch_window_query_{family}")(tree, RECTS)
    hit = next(o for o in out if o.size)
    assert not hit.flags.writeable
    with pytest.raises(ValueError):
        hit[0] = -1
    with pytest.raises(ValueError):
        hit.sort()
