"""Index registry: fingerprints, LRU eviction, invalidation hooks."""

import numpy as np
import pytest

from repro.engine import IndexRegistry, dataset_fingerprint
from repro.geometry import random_segments
from repro.store import IndexStore
from repro.structures import build_bucket_pmr, insert_lines

from ..structures.test_build_identity import assert_same_tree

DOMAIN = 512


def segs(seed, n=60):
    return random_segments(n, DOMAIN, 48, seed=seed)


class TestFingerprint:
    def test_deterministic(self):
        a = segs(1)
        assert dataset_fingerprint(a) == dataset_fingerprint(a.copy())

    def test_content_sensitive(self):
        assert dataset_fingerprint(segs(1)) != dataset_fingerprint(segs(2))

    def test_layout_independent(self):
        a = segs(3)
        f_order = np.asfortranarray(a)
        f32 = a.astype(np.float32).astype(np.float64)
        assert dataset_fingerprint(a) == dataset_fingerprint(f_order)
        assert dataset_fingerprint(a) == dataset_fingerprint(f32)

    def test_shape_sensitive(self):
        empty = np.zeros((0, 4))
        one = np.zeros((1, 4))
        assert dataset_fingerprint(empty) != dataset_fingerprint(one)


class TestBuildOnDemand:
    def test_miss_then_hit(self):
        reg = IndexRegistry(capacity=4)
        fp = reg.register(segs(1), domain=DOMAIN)
        e1 = reg.get(fp, "pmr", capacity=8)
        e2 = reg.get(fp, "pmr", capacity=8)
        assert e1 is e2
        assert (reg.hits, reg.misses) == (1, 1)
        assert e1.build_steps > 0 and e1.num_lines == 60

    def test_params_are_part_of_the_key(self):
        reg = IndexRegistry(capacity=4)
        fp = reg.register(segs(1), domain=DOMAIN)
        a = reg.get(fp, "pmr", capacity=4)
        b = reg.get(fp, "pmr", capacity=8)
        assert a is not b
        assert reg.misses == 2

    def test_built_tree_matches_direct_build(self):
        reg = IndexRegistry()
        lines = segs(5)
        fp = reg.register(lines, domain=DOMAIN)
        got = reg.get(fp, "pmr", capacity=8).tree
        want, _ = build_bucket_pmr(lines, DOMAIN, 8)
        assert got.decomposition_key() == want.decomposition_key()

    def test_unknown_structure_rejected(self):
        reg = IndexRegistry()
        fp = reg.register(segs(1), domain=DOMAIN)
        with pytest.raises(ValueError, match="unknown structure"):
            reg.get(fp, "btree")

    def test_unknown_fingerprint_rejected(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            IndexRegistry().get("deadbeef", "pmr")

    def test_default_domain_is_covering_power_of_two(self):
        reg = IndexRegistry()
        fp = reg.register(np.array([[0, 0, 700, 300.0]]))
        assert reg.domain(fp) == 1024


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        reg = IndexRegistry(capacity=2)
        fps = [reg.register(segs(s), domain=DOMAIN) for s in (1, 2, 3)]
        reg.get(fps[0], "pmr", capacity=8)     # cache: [0]
        reg.get(fps[1], "pmr", capacity=8)     # cache: [0, 1]
        reg.get(fps[0], "pmr", capacity=8)     # touch 0 -> [1, 0]
        reg.get(fps[2], "pmr", capacity=8)     # evicts 1 -> [0, 2]
        keys = reg.cached_keys()
        assert [k.fingerprint for k in keys] == [fps[0], fps[2]]
        assert reg.evictions == 1
        # the evicted index is a miss again; the survivor is a hit
        misses = reg.misses
        reg.get(fps[1], "pmr", capacity=8)
        assert reg.misses == misses + 1

    def test_capacity_one(self):
        reg = IndexRegistry(capacity=1)
        fp = reg.register(segs(1), domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        reg.get(fp, "rtree", min_fill=2, capacity=8)
        assert len(reg.cached_keys()) == 1
        assert reg.evictions == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            IndexRegistry(capacity=0)


class TestInvalidation:
    def test_invalidate_one_dataset(self):
        reg = IndexRegistry(capacity=8)
        fp1 = reg.register(segs(1), domain=DOMAIN)
        fp2 = reg.register(segs(2), domain=DOMAIN)
        reg.get(fp1, "pmr", capacity=8)
        reg.get(fp1, "rtree", min_fill=2, capacity=8)
        reg.get(fp2, "pmr", capacity=8)
        assert reg.invalidate(fp1) == 2
        assert [k.fingerprint for k in reg.cached_keys()] == [fp2]

    def test_invalidate_all(self):
        reg = IndexRegistry()
        fp = reg.register(segs(1), domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        assert reg.invalidate() == 1
        assert reg.cached_keys() == []

    def test_cache_survives_dynamic_insert_mvcc(self):
        """The dynamic-update hook is lazy MVCC: the old version's index
        stays cached (in-flight reads may still bind to it) while the
        chain advances to the new fingerprint."""
        reg = IndexRegistry(capacity=8)
        lines = segs(7)
        fp = reg.register(lines, domain=DOMAIN)
        old = reg.get(fp, "pmr", capacity=8).tree
        extra = np.array([[1.0, 1.0, 40.0, 40.0]])
        new_fp = reg.insert_lines(fp, extra)
        assert new_fp != fp
        # MVCC: the old version's index is retained, not evicted
        assert any(k.fingerprint == fp for k in reg.cached_keys())
        # the chain resolves the old handle to the new version
        assert reg.resolve(fp).fingerprint == new_fp
        assert reg.resolve(fp).version == 1
        # the new index equals the canonical rebuild semantics of
        # structures.dynamic: insert == fresh build on the union
        fresh = reg.get(new_fp, "pmr", capacity=8).tree
        rebuilt, _ = insert_lines(old, extra, capacity=8)
        assert fresh.decomposition_key() == rebuilt.decomposition_key()

    def test_delete_lines_hook(self):
        reg = IndexRegistry()
        lines = segs(9, n=20)
        fp = reg.register(lines, domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        new_fp = reg.delete_lines(fp, [0, 3])
        # old version retained (MVCC); the chain points at the new one
        assert any(k.fingerprint == fp for k in reg.cached_keys())
        assert reg.resolve(fp).fingerprint == new_fp
        assert np.array_equal(reg.dataset(new_fp),
                              np.delete(lines, [0, 3], axis=0))

    def test_mutations_are_lazy_no_eager_rebuild(self, monkeypatch):
        """Regression: committing a mutation must not build anything --
        the first read of the new version pays for exactly one build."""
        counts = {}

        def wrap(name, fn):
            def counting(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(IndexRegistry, "BUILDERS",
                            {name: wrap(name, fn)
                             for name, fn in IndexRegistry.BUILDERS.items()})
        reg = IndexRegistry(capacity=8)
        fp = reg.register(segs(11), domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        assert counts == {"pmr": 1}
        # three chained mutations: zero builds until somebody reads
        fp1 = reg.insert_lines(fp, [[1.0, 2.0, 30.0, 40.0]])
        fp2 = reg.delete_lines(fp1, [0, 5])
        fp3 = reg.insert_lines(fp2, [[9.0, 9.0, 90.0, 90.0]])
        assert counts == {"pmr": 1}
        reg.get(fp3, "pmr", capacity=8)
        assert counts == {"pmr": 2}
        # intermediate versions were never built and never will be
        # unless read; reading latest again is a cache hit
        reg.get(fp3, "pmr", capacity=8)
        assert counts == {"pmr": 2}

    def test_forget_drops_dataset_and_indexes(self):
        reg = IndexRegistry()
        fp = reg.register(segs(1), domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        reg.forget(fp)
        with pytest.raises(KeyError):
            reg.dataset(fp)
        assert reg.cached_keys() == []

    def test_registered_dataset_is_readonly(self):
        reg = IndexRegistry()
        fp = reg.register(segs(1), domain=DOMAIN)
        with pytest.raises(ValueError):
            reg.dataset(fp)[0, 0] = -1.0


class TestUnshardedWarmStart:
    """An unsharded PMR / PM1 commit warm-starts from the cached parent
    tree; the entry is the cold build of its fingerprint, array for array."""

    @pytest.mark.parametrize("structure,params",
                             [("pmr", {"capacity": 8}), ("pm1", {})])
    def test_commit_is_a_repair_equal_to_the_cold_build(self, structure, params):
        reg = IndexRegistry(capacity=8)
        fp = reg.register(np.unique(segs(12), axis=0), domain=DOMAIN)
        reg.get(fp, structure, **params)
        info = reg.mutate(fp, insert=[[3.0, 4.0, 50.0, 61.0]], delete_ids=[1, 4])
        entry = reg.get(info.fingerprint, structure, **params)
        assert reg.repairs == 1 and entry.repaired_from == fp
        cold = IndexRegistry.BUILDERS[structure](
            reg.dataset(info.fingerprint), reg.domain(info.fingerprint), **params)
        assert_same_tree(entry.tree, cold)

    def test_rtree_stays_on_the_canonical_build(self):
        reg = IndexRegistry(capacity=8)
        fp = reg.register(segs(13), domain=DOMAIN)
        reg.get(fp, "rtree", min_fill=2, capacity=8)
        info = reg.mutate(fp, delete_ids=[0])
        assert reg.get(info.fingerprint, "rtree", min_fill=2,
                       capacity=8).repaired_from is None
        assert reg.repairs == 0


class TestStoreTier:
    """The persistent second tier (full coverage in tests/store/)."""

    def test_eviction_spills_and_reload_is_a_disk_hit(self, tmp_path):
        reg = IndexRegistry(capacity=1, store=IndexStore(tmp_path))
        fp = reg.register(segs(1), domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        reg.get(fp, "rtree", min_fill=2, capacity=8)   # evicts + spills pmr
        assert (reg.evictions, reg.spills) == (1, 1)
        misses = reg.misses
        reg.get(fp, "pmr", capacity=8)
        assert reg.misses == misses + 1     # a memory miss...
        assert reg.disk_hits == 1           # ...served from disk, no rebuild

    def test_forget_empties_both_tiers(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=8, store=store)
        fp = reg.register(segs(1), domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        reg.spill_all()
        assert len(store.entries()) == 1
        reg.forget(fp)
        assert reg.cached_keys() == [] and store.entries() == []

    def test_invalidate_scopes_to_the_fingerprint_on_disk(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=8, store=store)
        fp1 = reg.register(segs(1), domain=DOMAIN)
        fp2 = reg.register(segs(2), domain=DOMAIN)
        reg.get(fp1, "pmr", capacity=8)
        reg.get(fp2, "pmr", capacity=8)
        reg.spill_all()
        reg.invalidate(fp1)
        assert {e.fingerprint for e in store.entries()} == {fp2}

    def test_snapshot_reports_the_store(self, tmp_path):
        reg = IndexRegistry(capacity=1, store=IndexStore(tmp_path))
        fp = reg.register(segs(1), domain=DOMAIN)
        reg.get(fp, "pmr", capacity=8)
        reg.get(fp, "rtree", min_fill=2, capacity=8)
        snap = reg.snapshot()
        assert snap["spills"] == 1.0
        assert snap["store"]["entries"] == 1
        assert snap["store"]["total_bytes"] > 0

    def test_no_store_snapshot_has_no_store_section(self):
        reg = IndexRegistry()
        assert "store" not in reg.snapshot()
