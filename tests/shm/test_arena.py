"""ShmArena unit cells: publish/attach, budget, lifecycle, crash sweep,
and :func:`~repro.structures.io.attach_tree` over published indexes.

All fast (tier-1): the arena is an in-process object; attaching from
the same process exercises the identical mmap path workers take.  The
cross-process stories (zero-copy serving, kill-mid-batch leak check)
live in ``test_shm_engine.py`` behind the ``slow`` marker.
"""

import json
import os
import pickle

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.geometry import random_segments
from repro.shm import (DATASET_PREFIX, INDEX_PREFIX, ShmArena, ShmHandle,
                       ShmIntegrityError, attach_payload,
                       reconcile_stale_sessions)
from repro.structures import payload_checksum
from repro.structures.sharded import ShardedIndex, build_index
from repro.structures.io import attach_tree, structure_payload


@pytest.fixture
def arena(tmp_path):
    a = ShmArena(registry_dir=str(tmp_path))
    yield a
    a.close()


def gone(name):
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


class TestPublishAttach:
    def test_array_roundtrip_is_zero_copy_and_checksummed(self, arena):
        arr = np.arange(24, dtype=np.float64).reshape(6, 4)
        handle = arena.publish_payload("ds:fp1", {"lines": arr},
                                       meta={"domain": "1024"})
        assert handle.meta_dict() == {"domain": "1024"}
        att = attach_payload(handle)
        try:
            got = att.value["lines"]
            assert got.shape == (6, 4)
            np.testing.assert_array_equal(got, arr)
            assert not got.flags.writeable
            assert got.base is not None  # a view over the block
        finally:
            att.close()

    def test_publish_is_idempotent_per_tag(self, arena):
        arr = np.ones(8)
        h1 = arena.publish_payload("ds:fp1", {"lines": arr})
        h2 = arena.publish_payload("ds:fp1", {"lines": np.zeros(99)})
        assert h1 is h2
        assert arena.snapshot()["blocks"] == 1
        assert arena.handle("ds:fp1") == h1
        assert arena.handle("ds:nope") is None

    def test_payload_roundtrip_preserves_dtypes_and_0d(self, arena):
        arrays = {
            "edges": np.arange(12, dtype=np.int64).reshape(3, 4),
            "tag": np.array("bucket-pmr"),            # 0-d unicode
            "empty": np.zeros((0, 2), dtype=np.float32),
            "flags": np.array([True, False, True]),
        }
        handle = arena.publish_payload("ix:fp1-pmr-abc", arrays)
        att = attach_payload(handle)
        try:
            assert set(att.value) == set(arrays)
            for key, want in arrays.items():
                got = att.value[key]
                assert got.dtype == np.asarray(want).dtype
                assert got.shape == np.asarray(want).shape
                np.testing.assert_array_equal(got, want)
        finally:
            att.close()

    def test_handles_pickle_across_the_job_pipe(self, arena):
        handle = arena.publish_payload("ds:fp1", {"lines": np.arange(4)})
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        att = attach_payload(clone)
        try:
            np.testing.assert_array_equal(att.value["lines"], np.arange(4))
        finally:
            att.close()

    def test_corrupted_block_fails_the_checksum(self, arena):
        handle = arena.publish_payload(
            "ds:fp1", {"lines": np.arange(8, dtype=np.int64)})
        seg = shared_memory.SharedMemory(name=handle.name)
        try:
            seg.buf[0] = seg.buf[0] ^ 0xFF
        finally:
            seg.close()
        with pytest.raises(ShmIntegrityError):
            attach_payload(handle)


class TestBudget:
    def test_over_budget_publish_returns_none_not_error(self, tmp_path):
        with ShmArena(budget_bytes=256, registry_dir=str(tmp_path)) as a:
            assert a.publish_payload("ds:small",
                                     {"lines": np.zeros(16)}) is not None
            assert a.publish_payload("ds:big",
                                     {"lines": np.zeros(1024)}) is None
            snap = a.snapshot()
            assert snap["publish_failures"] == 1
            assert snap["blocks"] == 1

    def test_zero_budget_refuses_everything(self, tmp_path):
        with ShmArena(budget_bytes=0, registry_dir=str(tmp_path)) as a:
            assert a.publish_payload("ds:x", {"lines": np.zeros(4)}) is None

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ShmArena(budget_bytes=-1, registry_dir=str(tmp_path))

    def test_release_returns_bytes_to_the_budget(self, tmp_path):
        with ShmArena(budget_bytes=1024, registry_dir=str(tmp_path)) as a:
            assert a.publish_payload("ds:a",
                                     {"lines": np.zeros(100)}) is not None
            assert a.publish_payload("ds:b",
                                     {"lines": np.zeros(100)}) is None
            assert a.release("ds:a")
            assert a.publish_payload("ds:b",
                                     {"lines": np.zeros(100)}) is not None


class TestRelease:
    def test_release_fingerprint_takes_dataset_and_its_indexes(self, arena):
        arena.publish_payload(DATASET_PREFIX + "fp1", {"lines": np.zeros(4)})
        arena.publish_payload(INDEX_PREFIX + "fp1-pmr-abc",
                              {"a": np.zeros(2)})
        arena.publish_payload(INDEX_PREFIX + "fp10-pmr-xyz",
                              {"a": np.zeros(2)})
        kept = arena.handle(INDEX_PREFIX + "fp10-pmr-xyz")
        assert arena.release_fingerprint("fp1") == 2
        assert arena.handle(DATASET_PREFIX + "fp1") is None
        # fp10 is a distinct fingerprint, not a prefix match of fp1
        assert arena.handle(INDEX_PREFIX + "fp10-pmr-xyz") == kept

    def test_release_indexes_keeps_the_dataset_block(self, arena):
        arena.publish_payload(DATASET_PREFIX + "fp1", {"lines": np.zeros(4)})
        arena.publish_payload(INDEX_PREFIX + "fp1-pmr-abc",
                              {"a": np.zeros(2)})
        assert arena.release_indexes("fp1") == 1
        assert arena.handle(DATASET_PREFIX + "fp1") is not None

    def test_release_unlinks_the_os_block(self, arena):
        handle = arena.publish_payload("ds:fp1", {"lines": np.zeros(4)})
        assert arena.release("ds:fp1")
        assert gone(handle.name)
        assert not arena.release("ds:fp1")  # second release is a no-op


class TestLifecycle:
    def test_close_unlinks_everything_and_is_idempotent(self, tmp_path):
        a = ShmArena(registry_dir=str(tmp_path))
        h1 = a.publish_payload("ds:a", {"lines": np.zeros(8)})
        h2 = a.publish_payload("ix:a-pmr-x", {"k": np.ones(3)})
        names = a.block_names()
        assert len(names) == 2
        a.close()
        a.close()
        assert all(gone(n) for n in (h1.name, h2.name))
        # session file retired with the arena
        assert not [f for f in os.listdir(tmp_path)
                    if f.startswith("session-")]

    def test_closed_arena_refuses_publishes(self, tmp_path):
        a = ShmArena(registry_dir=str(tmp_path))
        a.close()
        assert a.publish_payload("ds:x", {"lines": np.zeros(4)}) is None

    def test_attach_accounting_and_pool_restart_reset(self, arena):
        arena.publish_payload("ds:fp1", {"lines": np.zeros(4)})
        arena.note_attaches(["ds:fp1", "ds:fp1", "ds:gone"])
        snap = arena.snapshot()
        assert snap["attach_total"] == 3
        assert snap["tags"]["ds:fp1"]["live_attached"] == 2
        arena.reset_live_attachments()
        snap = arena.snapshot()
        assert snap["tags"]["ds:fp1"]["live_attached"] == 0
        assert snap["tags"]["ds:fp1"]["attach_total"] == 2  # cumulative

    def test_snapshot_shape(self, arena):
        arena.publish_payload("ds:fp1", {"lines": np.zeros(16)})
        snap = arena.snapshot()
        assert snap["enabled"] is True
        assert snap["blocks"] == 1
        assert snap["bytes"] >= 128
        assert snap["budget_bytes"] is None
        assert snap["publishes"] == 1
        assert set(snap["tags"]["ds:fp1"]) == {"nbytes", "live_attached",
                                               "attach_total"}


class TestCrashReconciliation:
    def test_dead_session_blocks_are_swept(self, tmp_path):
        seg = shared_memory.SharedMemory(create=True, size=64,
                                         name="repro-test-stale-blk")
        seg.close()
        # forge a session file for a pid that cannot be alive
        with open(tmp_path / "session-999999999-dead.json", "w") as fh:
            json.dump({"pid": 999999999,
                       "names": ["repro-test-stale-blk"]}, fh)
        try:
            assert reconcile_stale_sessions(str(tmp_path)) == 1
            assert gone("repro-test-stale-blk")
            assert not os.listdir(tmp_path)
        finally:
            if not gone("repro-test-stale-blk"):
                s = shared_memory.SharedMemory(name="repro-test-stale-blk")
                s.unlink()
                s.close()

    def test_live_session_is_left_alone(self, tmp_path):
        with ShmArena(registry_dir=str(tmp_path)) as a:
            handle = a.publish_payload("ds:x", {"lines": np.zeros(4)})
            # a second arena in the same process reconciles on init but
            # must not touch the live session's blocks
            with ShmArena(registry_dir=str(tmp_path)) as b:
                assert not gone(handle.name)
                assert b.publish_payload(
                    "ds:y", {"lines": np.zeros(4)}) is not None

    def test_arena_init_sweeps_prior_dead_sessions(self, tmp_path):
        seg = shared_memory.SharedMemory(create=True, size=64,
                                         name="repro-test-stale-init")
        seg.close()
        with open(tmp_path / "session-999999998-dead.json", "w") as fh:
            json.dump({"pid": 999999998,
                       "names": ["repro-test-stale-init"]}, fh)
        try:
            with ShmArena(registry_dir=str(tmp_path)):
                assert gone("repro-test-stale-init")
        finally:
            if not gone("repro-test-stale-init"):
                s = shared_memory.SharedMemory(name="repro-test-stale-init")
                s.unlink()
                s.close()


def tree_arrays(tree):
    """Every array a tree (or each shard of a sharded index) holds."""
    trees = ([s.tree for s in tree.shards]
             if isinstance(tree, ShardedIndex) else [tree])
    return [v for t in trees for v in vars(t).values()
            if isinstance(v, np.ndarray)]


class TestAttachTree:
    """One attach path for every index: plain, R-tree and sharded."""

    CASES = [("pmr", {"capacity": 8}), ("rtree", {"capacity": 8}),
             ("pmr", {"capacity": 8, "shards": 4})]

    @pytest.mark.parametrize("structure,params", CASES,
                             ids=["pmr", "rtree", "pmr-k4"])
    def test_attached_tree_is_the_published_one(self, arena, structure,
                                                params):
        lines = np.unique(random_segments(300, 256, 32, seed=5), axis=0)
        tree = build_index(lines, 256, structure, **params)
        payload = structure_payload(tree, params)
        tag = INDEX_PREFIX + "fp1-" + structure
        handle = arena.publish_payload(tag, payload)
        got = attach_tree(handle)
        assert payload_checksum(structure_payload(got, params)) \
            == payload_checksum(payload)
        arrays = tree_arrays(got)
        assert arrays
        assert all(not a.flags.writeable and a.base is not None
                   for a in arrays)
        rects = [(16, 16, 96, 96), (100, 40, 250, 120), (0, 0, 256, 256)]
        want = [np.sort(tree.window_query(r)) for r in rects]
        assert arena.release(tag)       # the pinned mapping outlives it
        for r, w in zip(rects, want):
            np.testing.assert_array_equal(np.sort(got.window_query(r)), w)

    def test_released_handle_raises(self, arena):
        lines = random_segments(50, 128, 16, seed=6)
        handle = arena.publish_payload(
            INDEX_PREFIX + "fp1-pmr",
            structure_payload(build_index(lines, 128, "pmr")))
        arena.release(handle.tag)
        with pytest.raises(FileNotFoundError):
            attach_tree(handle)


class TestHandleSurface:
    def test_handle_is_frozen_and_hashable(self):
        h = ShmHandle(name="n", tag="ds:x", nbytes=4, checksum="c")
        with pytest.raises(AttributeError):
            h.name = "other"
        assert hash(h) == hash(ShmHandle(name="n", tag="ds:x", nbytes=4,
                                         checksum="c"))
