"""Two-tier cache integration: spill, warm start, invalidation, corruption.

The acceptance invariants of the store subsystem: with a populated
``cache_dir`` the registry serves ``get()`` from disk without
rebuilding (asserted via a counting builder wrapper and the
``disk_hits`` stats), disk-loaded trees are bit-identical to freshly
built ones for all three structures and sharded indexes, and a
corrupted store file is quarantined and transparently rebuilt.
"""

import os

import numpy as np
import pytest

import repro.engine.registry as registry_mod
from repro.engine import IndexRegistry, SpatialQueryEngine
from repro.geometry import random_segments
from repro.store import IndexStore

DOMAIN = 512

#: engine-style (structure, params) for every index family
CASES = [
    ("pmr", {"capacity": 8}),
    ("pm1", {}),
    ("rtree", {"min_fill": 2, "capacity": 8}),
    ("pmr", {"capacity": 8, "shards": 3, "ordering": "hilbert"}),
    ("rtree", {"min_fill": 2, "capacity": 8, "shards": 2,
               "ordering": "morton"}),
]


def segs(seed, n=80):
    return random_segments(n, DOMAIN, 48, seed=seed)


@pytest.fixture
def counting_builders(monkeypatch):
    """Wrap IndexRegistry.BUILDERS so each structure counts its builds."""
    counts = {}

    def wrap(name, fn):
        def counting(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counting

    wrapped = {name: wrap(name, fn)
               for name, fn in IndexRegistry.BUILDERS.items()}
    monkeypatch.setattr(IndexRegistry, "BUILDERS", wrapped)
    return counts


def tree_key(tree):
    """Order-sensitive identity of any servable tree (incl. sharded)."""
    if hasattr(tree, "shards"):
        return tuple(
            (tuple(s.ids.tolist()), tree_key(s.tree)) for s in tree.shards)
    if hasattr(tree, "decomposition_key"):
        return tree.decomposition_key()
    return (tree.lines.tobytes(), tree.line_leaf.tobytes(),
            tuple(m.tobytes() for m in tree.level_mbr))


class TestSpillAndReload:
    def test_eviction_spills_instead_of_dropping(self, tmp_path,
                                                 counting_builders):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=1, store=store)
        fp = reg.register(segs(1), domain=DOMAIN)
        built = reg.get(fp, "pmr", capacity=8).tree
        reg.get(fp, "rtree", min_fill=2, capacity=8)   # evicts the pmr
        assert reg.evictions == 1 and reg.spills == 1
        assert len(store.entries()) == 1
        # the reload is a disk hit, not a rebuild
        back = reg.get(fp, "pmr", capacity=8)
        assert counting_builders["pmr"] == 1
        assert reg.disk_hits == 1
        assert back.tree.decomposition_key() == built.decomposition_key()

    def test_eviction_order_oldest_spills_first(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=2, store=store)
        fps = [reg.register(segs(s), domain=DOMAIN) for s in (1, 2, 3)]
        reg.get(fps[0], "pmr", capacity=8)     # cache: [0]
        reg.get(fps[1], "pmr", capacity=8)     # cache: [0, 1]
        reg.get(fps[0], "pmr", capacity=8)     # touch 0 -> [1, 0]
        reg.get(fps[2], "pmr", capacity=8)     # evicts 1 (the LRU)
        assert [k.fingerprint for k in reg.cached_keys()] == [fps[0], fps[2]]
        (entry,) = store.entries()
        assert entry.fingerprint == fps[1]

    def test_disk_hit_restores_build_accounting(self, tmp_path):
        reg = IndexRegistry(capacity=1, store=IndexStore(tmp_path))
        fp = reg.register(segs(1), domain=DOMAIN)
        built = reg.get(fp, "pmr", capacity=8)
        reg.get(fp, "rtree", min_fill=2, capacity=8)
        loaded = reg.get(fp, "pmr", capacity=8)
        assert loaded.build_steps == built.build_steps > 0
        assert loaded.build_primitives == built.build_primitives > 0
        assert loaded.num_lines == built.num_lines == 80

    @pytest.mark.parametrize("structure,params", CASES)
    def test_warm_start_is_bit_identical(self, tmp_path, counting_builders,
                                         structure, params):
        lines = segs(4)
        store = IndexStore(tmp_path)
        reg1 = IndexRegistry(capacity=4, store=store)
        fp = reg1.register(lines, domain=DOMAIN)
        built = reg1.get(fp, structure, **params).tree
        reg1.spill_all()
        before = dict(counting_builders)

        reg2 = IndexRegistry(capacity=4, store=IndexStore(tmp_path))
        fp2 = reg2.register(lines, domain=DOMAIN)
        assert fp2 == fp
        loaded = reg2.get(fp2, structure, **params).tree
        assert counting_builders == before          # no rebuild at all
        assert reg2.disk_hits == 1
        assert tree_key(loaded) == tree_key(built)

    def test_spill_all_skips_entries_already_on_disk(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=4, store=store)
        fp = reg.register(segs(1), domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        assert reg.spill_all() == 1
        assert reg.spill_all() == 0     # identical content already stored

    def test_persist_requires_store(self, tmp_path):
        reg = IndexRegistry()
        fp = reg.register(segs(1), domain=DOMAIN)
        with pytest.raises(RuntimeError, match="no IndexStore"):
            reg.persist(fp, "pmr", capacity=8)


class TestInvalidationCoversBothTiers:
    def seeded(self, tmp_path, n_datasets=2):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=8, store=store)
        fps = [reg.register(segs(s), domain=DOMAIN)
               for s in range(1, n_datasets + 1)]
        for fp in fps:
            reg.get(fp, "pmr", capacity=8)
            reg.get(fp, "rtree", min_fill=2, capacity=8)
        reg.spill_all()
        return store, reg, fps

    def test_invalidate_deletes_disk_entries(self, tmp_path):
        store, reg, fps = self.seeded(tmp_path)
        assert len(store.entries()) == 4
        reg.invalidate(fps[0])
        assert all(k.fingerprint != fps[0] for k in reg.cached_keys())
        assert {e.fingerprint for e in store.entries()} == {fps[1]}

    def test_invalidate_all_clears_the_store(self, tmp_path):
        store, reg, _ = self.seeded(tmp_path)
        reg.invalidate()
        assert reg.cached_keys() == [] and store.entries() == []

    def test_forget_removes_memory_and_disk(self, tmp_path):
        store, reg, fps = self.seeded(tmp_path, n_datasets=1)
        reg.forget(fps[0])
        with pytest.raises(KeyError):
            reg.dataset(fps[0])
        assert reg.cached_keys() == [] and store.entries() == []

    def test_dynamic_insert_cannot_serve_stale_disk_tree(self, tmp_path,
                                                         counting_builders):
        store, reg, fps = self.seeded(tmp_path, n_datasets=1)
        new_fp = reg.insert_lines(fps[0], [[1.0, 1.0, 40.0, 40.0]])
        # MVCC: the old version's archives are retained on disk (it is
        # still a readable snapshot) but keyed by the OLD fingerprint,
        # so a probe for the new fingerprint can never hit them
        assert all(e.fingerprint in (fps[0], new_fp)
                   for e in store.entries())
        # the new dataset is derived fresh (disk probe misses): a warm
        # start from the parent's cached tree, or else a canonical build
        builds, repairs = counting_builders.get("pmr", 0), reg.repairs
        got = reg.get(new_fp, "pmr", capacity=8)
        assert counting_builders["pmr"] + reg.repairs == builds + repairs + 1
        # and what it serves is the new version's tree, not the stale one
        assert got.num_lines == reg.dataset(new_fp).shape[0]


class TestCorruptionRecovery:
    def test_quarantine_then_transparent_rebuild(self, tmp_path,
                                                 counting_builders):
        lines = segs(5)
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=4, store=store)
        fp = reg.register(lines, domain=DOMAIN)
        built = reg.get(fp, "pmr", capacity=8).tree
        reg.spill_all()
        (entry,) = store.entries()
        with open(entry.path, "r+b") as fh:
            fh.seek(os.path.getsize(entry.path) // 2)
            fh.write(b"\xff\x00" * 32)

        reg2 = IndexRegistry(capacity=4, store=store)
        fp2 = reg2.register(lines, domain=DOMAIN)
        back = reg2.get(fp2, "pmr", capacity=8).tree
        # corrupted file was quarantined, not served and not fatal
        assert store.corrupt_evictions == 1
        assert store.quarantined() == [os.path.basename(entry.path)]
        assert counting_builders["pmr"] == 2       # build, corrupt, rebuild
        assert back.decomposition_key() == built.decomposition_key()


class TestEngineWarmStart:
    def test_engine_round_trip_through_cache_dir(self, tmp_path,
                                                 counting_builders):
        lines = segs(6, n=120)
        rect = [20.0, 20.0, 300.0, 260.0]
        with SpatialQueryEngine(cache_dir=str(tmp_path), workers=2) as e1:
            fp = e1.register(lines, domain=DOMAIN)
            cold = e1.window(fp, rect)
        assert counting_builders == {"pmr": 1}
        assert os.listdir(tmp_path)                 # close() spilled

        with SpatialQueryEngine(cache_dir=str(tmp_path), workers=2) as e2:
            fp = e2.register(lines, domain=DOMAIN)
            warm = e2.window(fp, rect)
            assert e2.stats.disk_hits == 1
            snap = e2.snapshot()
            assert snap["disk_hits"] == 1
            assert snap["cache"]["store"]["entries"] == 1
        assert counting_builders == {"pmr": 1}      # warm start: no rebuild
        assert np.array_equal(np.sort(cold), np.sort(warm))

    def test_spill_counted_in_engine_stats(self, tmp_path):
        with SpatialQueryEngine(cache_dir=str(tmp_path),
                                cache_capacity=1, workers=2) as eng:
            fp = eng.register(segs(7), domain=DOMAIN)
            eng.warm(fp, structure="pmr")
            eng.warm(fp, structure="rtree")          # evicts + spills pmr
            assert eng.stats.spills == 1
        assert len(IndexStore(tmp_path).entries()) == 2   # + shutdown spill

    def test_disk_budget_requires_cache_dir(self):
        with pytest.raises(ValueError, match="requires cache_dir"):
            SpatialQueryEngine(disk_budget_bytes=1024)

    def test_engine_without_cache_dir_has_no_store(self):
        with SpatialQueryEngine(workers=1) as eng:
            assert eng.store is None
            assert eng.registry.store is None


class TestFingerprintMemo:
    @pytest.fixture
    def counting_hash(self, monkeypatch):
        calls = []
        real = registry_mod.dataset_fingerprint

        def counting(lines):
            calls.append(1)
            return real(lines)

        monkeypatch.setattr(registry_mod, "dataset_fingerprint", counting)
        return calls

    def test_same_array_object_hashes_once(self, counting_hash):
        reg = IndexRegistry()
        lines = segs(1)
        fp1 = reg.register(lines, domain=DOMAIN)
        fp2 = reg.register(lines, domain=DOMAIN)
        fp3 = reg.register(lines)               # domain default recomputed
        assert fp1 == fp2 == fp3
        assert len(counting_hash) == 1

    def test_copy_is_rehashed(self, counting_hash):
        reg = IndexRegistry()
        lines = segs(1)
        reg.register(lines, domain=DOMAIN)
        reg.register(lines.copy(), domain=DOMAIN)
        assert len(counting_hash) == 2

    def test_non_canonical_input_is_never_memoised(self, counting_hash):
        reg = IndexRegistry()
        lines = segs(1).astype(np.float32)      # conversion makes a copy
        reg.register(lines, domain=DOMAIN)
        reg.register(lines, domain=DOMAIN)
        assert len(counting_hash) == 2          # original stays mutable
        assert lines.flags.writeable            # and was not frozen

    def test_memoised_array_is_frozen(self):
        reg = IndexRegistry()
        lines = segs(1)
        reg.register(lines, domain=DOMAIN)
        with pytest.raises(ValueError):
            lines[0, 0] = -1.0

    def test_memo_entry_dies_with_the_array(self):
        reg = IndexRegistry()
        lines = segs(1)
        fp = reg.register(lines, domain=DOMAIN)
        assert len(reg._fp_cache) == 1
        reg.forget(fp)      # registry drops its strong reference...
        del lines           # ...and the weakref callback clears the memo
        assert len(reg._fp_cache) == 0
