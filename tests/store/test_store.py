"""IndexStore unit tests: atomic puts, manifests, integrity, LRU gc."""

import json
import os

import numpy as np
import pytest

from repro.engine import IndexKey
from repro.geometry import random_segments
from repro.store import IndexStore, store_key_id
from repro.structures import (
    build_bucket_pmr,
    build_pm1,
    build_rtree,
    build_sharded,
)

DOMAIN = 128


def segs(seed, n=70):
    return random_segments(n, DOMAIN, 24, seed=seed)


def make_tree(structure, lines, shards=1):
    if structure == "pmr":
        return build_bucket_pmr(lines, DOMAIN, 4)[0]
    if structure == "pm1":
        return build_pm1(np.unique(lines, axis=0), DOMAIN)[0]
    if structure == "rtree":
        return build_rtree(lines, 2, 6)[0]
    return build_sharded(lines, DOMAIN, structure="pmr", shards=shards)


def key_for(structure, fp="a" * 16, **params):
    return IndexKey.make(fp, structure, **params)


class TestKeyId:
    def test_stable_and_fingerprint_prefixed(self):
        key = key_for("pmr", capacity=8)
        assert store_key_id(key) == store_key_id(key)
        assert store_key_id(key).startswith("a" * 16 + "-pmr-")

    def test_params_change_the_id(self):
        assert (store_key_id(key_for("pmr", capacity=4))
                != store_key_id(key_for("pmr", capacity=8)))

    def test_structure_changes_the_id(self):
        assert (store_key_id(key_for("pmr", capacity=8))
                != store_key_id(key_for("rtree", capacity=8)))


class TestPutGet:
    @pytest.mark.parametrize("structure", ["pmr", "pm1", "rtree"])
    def test_roundtrip_bit_identical(self, tmp_path, structure):
        store = IndexStore(tmp_path)
        tree = make_tree(structure, segs(1))
        key = key_for(structure, capacity=8)
        path = store.put(key, tree, build_steps=12.5, build_primitives=7,
                         num_lines=70)
        assert os.path.exists(path)
        back, manifest = store.get(key)
        if structure == "rtree":
            assert np.array_equal(back.line_leaf, tree.line_leaf)
            for a, b in zip(back.level_mbr, tree.level_mbr):
                assert np.array_equal(a, b)
        else:
            assert back.decomposition_key() == tree.decomposition_key()
        assert manifest["build_steps"] == 12.5
        assert manifest["build_primitives"] == 7
        assert manifest["num_lines"] == 70
        assert (store.disk_hits, store.disk_misses) == (1, 0)

    def test_sharded_roundtrip(self, tmp_path):
        store = IndexStore(tmp_path)
        idx = make_tree("sharded", segs(2, n=90), shards=3)
        key = key_for("pmr", shards=3, ordering="morton")
        store.put(key, idx)
        back, _ = store.get(key)
        back.check()
        assert back.num_shards == idx.num_shards
        assert np.array_equal(back.lines, idx.lines)
        for a, b in zip(back.shards, idx.shards):
            assert np.array_equal(a.ids, b.ids)
            assert a.tree.decomposition_key() == b.tree.decomposition_key()

    def test_miss_counts(self, tmp_path):
        store = IndexStore(tmp_path)
        assert store.get(key_for("pmr", capacity=8)) is None
        assert store.disk_misses == 1

    def test_no_temp_files_left(self, tmp_path):
        store = IndexStore(tmp_path)
        store.put(key_for("pmr"), make_tree("pmr", segs(1)))
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]

    def test_manifest_matches_archive(self, tmp_path):
        store = IndexStore(tmp_path)
        key = key_for("pmr", capacity=4)
        path = store.put(key, make_tree("pmr", segs(3)))
        with open(store.manifest_path_for(key)) as fh:
            manifest = json.load(fh)
        assert manifest["fingerprint"] == key.fingerprint
        assert manifest["structure"] == "pmr"
        assert manifest["params"] == {"capacity": 4}
        assert manifest["size_bytes"] == os.path.getsize(path)
        from repro.structures import inspect_structure
        info = inspect_structure(path)
        assert info["checksum"] == manifest["checksum"]
        assert info["params"] == {"capacity": 4}

    def test_overwrite_is_idempotent(self, tmp_path):
        store = IndexStore(tmp_path)
        key = key_for("pmr")
        tree = make_tree("pmr", segs(1))
        store.put(key, tree)
        store.put(key, tree)
        assert len(store.entries()) == 1

    def test_observer_events(self, tmp_path):
        events = []
        store = IndexStore(tmp_path, observer=events.append)
        key = key_for("pmr")
        store.get(key)
        store.put(key, make_tree("pmr", segs(1)))
        store.get(key)
        assert events == ["disk_miss", "spill", "disk_hit"]


class TestCorruption:
    def corrupt(self, path):
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            fh.write(b"\xde\xad\xbe\xef" * 8)

    def test_quarantine_on_garbage(self, tmp_path):
        store = IndexStore(tmp_path)
        key = key_for("pmr", capacity=8)
        path = store.put(key, make_tree("pmr", segs(1)))
        self.corrupt(path)
        assert store.get(key) is None
        assert store.corrupt_evictions == 1
        assert not os.path.exists(path)
        assert not os.path.exists(store.manifest_path_for(key))
        assert store.quarantined() == [os.path.basename(path)]
        # after quarantine the entry is a plain miss
        assert store.get(key) is None
        assert store.disk_misses == 1

    def test_truncated_file_quarantined(self, tmp_path):
        store = IndexStore(tmp_path)
        key = key_for("rtree", capacity=6)
        path = store.put(key, make_tree("rtree", segs(2)))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 3)
        assert store.get(key) is None
        assert store.corrupt_evictions == 1

    def test_clear_empties_quarantine(self, tmp_path):
        store = IndexStore(tmp_path)
        key = key_for("pmr")
        path = store.put(key, make_tree("pmr", segs(1)))
        self.corrupt(path)
        store.get(key)
        assert store.quarantined()
        store.clear()
        assert store.quarantined() == []
        assert store.entries() == []


class TestEviction:
    def fill(self, store, n=4):
        keys = []
        for i in range(n):
            key = key_for("pmr", fp=f"{i:016x}", capacity=4)
            path = store.put(key, make_tree("pmr", segs(i + 1, n=40)))
            os.utime(path, (1000.0 + i, 1000.0 + i))   # deterministic LRU
            keys.append(key)
        return keys

    def test_gc_removes_least_recently_used_first(self, tmp_path):
        store = IndexStore(tmp_path)
        keys = self.fill(store)
        sizes = [os.path.getsize(store.path_for(k)) for k in keys]
        budget = sizes[-2] + sizes[-1]          # room for the two newest
        removed, freed = store.gc(budget)
        assert removed == 2 and freed == sizes[0] + sizes[1]
        left = [e.fingerprint for e in store.entries()]
        assert left == [keys[2].fingerprint, keys[3].fingerprint]
        assert store.disk_evictions == 2

    def test_get_refreshes_lru_position(self, tmp_path):
        store = IndexStore(tmp_path)
        keys = self.fill(store)
        store.get(keys[0])                      # touch the oldest
        removed, _ = store.gc(os.path.getsize(store.path_for(keys[0])) + 1)
        assert removed == 3
        assert [e.fingerprint for e in store.entries()] == [keys[0].fingerprint]

    def test_budget_enforced_on_put(self, tmp_path):
        store = IndexStore(tmp_path, budget_bytes=1)
        tree = make_tree("pmr", segs(1, n=40))
        for i in range(2):
            store.put(key_for("pmr", fp=f"{i:016x}", capacity=4), tree)
        # every put immediately evicts down to the (tiny) budget
        assert len(store.entries()) == 0
        assert store.disk_evictions >= 2

    def test_gc_without_budget_is_noop(self, tmp_path):
        store = IndexStore(tmp_path)
        self.fill(store, n=2)
        assert store.gc() == (0, 0)
        assert len(store.entries()) == 2

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            IndexStore(tmp_path, budget_bytes=-1)
        with pytest.raises(ValueError):
            IndexStore(tmp_path).gc(-5)


class TestDeletion:
    def test_delete_one(self, tmp_path):
        store = IndexStore(tmp_path)
        key = key_for("pmr")
        store.put(key, make_tree("pmr", segs(1)))
        assert store.delete(key) is True
        assert store.delete(key) is False
        assert store.entries() == []

    def test_delete_fingerprint_scopes_to_dataset(self, tmp_path):
        store = IndexStore(tmp_path)
        tree = make_tree("pmr", segs(1))
        for fp in ("a" * 16, "b" * 16):
            for cap in (4, 8):
                store.put(key_for("pmr", fp=fp, capacity=cap), tree)
        assert store.delete_fingerprint("a" * 16) == 2
        assert {e.fingerprint for e in store.entries()} == {"b" * 16}

    def test_delete_fingerprint_survives_lost_manifest(self, tmp_path):
        store = IndexStore(tmp_path)
        key = key_for("pmr")
        store.put(key, make_tree("pmr", segs(1)))
        os.unlink(store.manifest_path_for(key))
        assert store.delete_fingerprint(key.fingerprint) == 1
        assert store.entries() == []

    def test_entries_survive_lost_manifest(self, tmp_path):
        store = IndexStore(tmp_path)
        key = key_for("rtree", capacity=6)
        store.put(key, make_tree("rtree", segs(1)))
        os.unlink(store.manifest_path_for(key))
        (entry,) = store.entries()
        assert entry.fingerprint == key.fingerprint
        assert entry.structure == "rtree"
        assert entry.checksum is None


class TestOrphanSweep:
    def plant_orphans(self, cache_dir):
        paths = [os.path.join(cache_dir, ".tmp-dead1.npz"),
                 os.path.join(cache_dir, ".tmp-dead2.json")]
        for p in paths:
            with open(p, "wb") as fh:
                fh.write(b"half-written by a killed process")
        return paths

    def test_startup_sweeps_crashed_writer_leftovers(self, tmp_path):
        # a store that crashed mid-_atomic_* leaves unclaimed .tmp- files
        IndexStore(tmp_path).put(key_for("pmr"), make_tree("pmr", segs(1)))
        orphans = self.plant_orphans(str(tmp_path))
        store = IndexStore(tmp_path)
        assert all(not os.path.exists(p) for p in orphans)
        assert store.orphan_temps_removed == 2
        assert store.snapshot()["orphan_temps_removed"] == 2
        # the real entry is untouched
        (entry,) = store.entries()
        assert entry.structure == "pmr"

    def test_gc_sweeps_orphans_too(self, tmp_path):
        store = IndexStore(tmp_path, budget_bytes=1 << 30)
        store.put(key_for("pmr"), make_tree("pmr", segs(1)))
        orphans = self.plant_orphans(str(tmp_path))
        store.gc()
        assert all(not os.path.exists(p) for p in orphans)
        assert store.orphan_temps_removed == 2
