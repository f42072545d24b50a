"""Version retention across the memory and disk tiers (MVCC GC).

The registry keeps the last ``versions_retained`` dataset versions
warm -- their arrays, their cached indexes, and their store archives --
so in-flight reads admitted against an older snapshot can finish.
These tests pin the retention stories the tentpole promises:

* **chain GC** -- committing past the retention horizon collects the
  oldest version everywhere (memory dataset, cached trees, disk
  archives) while the retained tail stays fully servable;
* **revisited and shared content** -- a content is named by chain
  *positions*: A->B->A keeps A, and a content two chains hold is
  collected only when neither window names it;
* **byte pressure** -- the store's LRU GC evicts an old version's
  archives before the current version's, because serving keeps
  touching the current one;
* **corruption isolation** -- a corrupted *old-version* archive is
  quarantined on load without disturbing the current snapshot's
  entries or answers.
"""

import os

import numpy as np
import pytest

from repro.engine import IndexRegistry
from repro.geometry import random_segments
from repro.store import IndexStore

DOMAIN = 512


def segs(seed, n=60):
    return random_segments(n, DOMAIN, 48, seed=seed)


def chain_fps(reg, fp, count):
    """Commit ``count`` single-row inserts; returns every version's fp."""
    fps = [fp]
    for i in range(count):
        row = np.array([[1.0 + i, 2.0, 30.0 + i, 40.0]])
        fps.append(reg.mutate(fps[-1], insert=row).fingerprint)
    return fps


class TestChainRetention:
    def test_last_n_versions_survive_commit_gc(self):
        reg = IndexRegistry(capacity=16, versions_retained=3)
        fp0 = reg.register(segs(1), domain=DOMAIN)
        fps = chain_fps(reg, fp0, 4)          # versions 0..4
        live = fps[-3:]
        dead = fps[:-3]
        for fp in live:
            assert reg.dataset(fp) is not None
        for fp in dead:
            with pytest.raises(KeyError):
                reg.dataset(fp)
        assert reg.versions_collected == len(dead)
        # any chain handle still resolves to the latest version
        info = reg.resolve(fps[-1])
        assert info.fingerprint == fps[-1]
        assert info.version == 4

    def test_collected_version_drops_cached_trees_and_disk(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=16, store=store, versions_retained=2)
        fp0 = reg.register(segs(2), domain=DOMAIN)
        reg.get(fp0, "pmr", capacity=8)
        reg.spill_all()
        assert any(e.fingerprint == fp0 for e in store.entries())
        fps = chain_fps(reg, fp0, 2)          # retention 2: v0 collected
        for fp in fps[-2:]:
            reg.get(fp, "pmr", capacity=8)
        assert all(k.fingerprint != fp0 for k in reg.cached_keys())
        assert all(e.fingerprint != fp0 for e in store.entries())
        with pytest.raises(KeyError):
            reg.dataset(fp0)

    def test_pinned_version_survives_until_unpin(self):
        reg = IndexRegistry(capacity=16, versions_retained=1)
        fp0 = reg.register(segs(3), domain=DOMAIN)
        reg.pin(fp0)
        fps = chain_fps(reg, fp0, 2)
        # retention 1 would have collected v0, but the pin defers it
        assert reg.dataset(fp0) is not None
        reg.unpin(fp0)
        with pytest.raises(KeyError):
            reg.dataset(fp0)
        # the current version is untouched by the deferred collection
        assert reg.dataset(fps[-1]).shape[0] == reg.resolve(fp0).num_lines


class TestRevisitedAndSharedContent:
    """Retention names contents by chain *position*: a content is
    collected only when no window of any chain (and no pin) holds it."""

    def test_a_b_a_keeps_a_in_both_tiers(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=16, store=store, versions_retained=2)
        lines = segs(7)
        a = reg.register(lines, domain=DOMAIN)
        built = reg.get(a, "pmr", capacity=8)
        reg.spill_all()
        row = np.array([[1.0, 2.0, 30.0, 40.0]])
        b = reg.mutate(a, insert=row)
        back = reg.mutate(a, delete_ids=[lines.shape[0]])
        # version 2 holds version 0's content: pushed out of the window
        # as position 0, still named by position 2
        assert (back.version, back.fingerprint) == (2, a)
        assert reg.history(a) == (a, b.fingerprint, a)
        assert np.array_equal(reg.dataset(a), lines)
        assert reg.versions_collected == 0
        assert reg.get(a, "pmr", capacity=8) is built     # cached index
        assert any(e.fingerprint == a for e in store.entries())
        assert reg.version_of(a) == 2                     # latest position

    def test_a_b_c_collects_a_exactly_once(self):
        collected = []
        reg = IndexRegistry(capacity=16, versions_retained=2,
                            on_collect=collected.append)
        a = reg.register(segs(8), domain=DOMAIN)
        fps = chain_fps(reg, a, 3)                 # A -> B -> C -> D
        assert collected == fps[:2]
        assert reg.versions_collected == 2
        with pytest.raises(KeyError):
            reg.dataset(a)

    def test_mutating_into_another_roots_content_shares_it(self):
        reg = IndexRegistry(capacity=16, versions_retained=2)
        base = segs(9)
        row = np.array([[3.0, 4.0, 50.0, 60.0]])
        x = reg.register(base, domain=DOMAIN)
        y = reg.register(np.vstack([base, row]), domain=DOMAIN)
        moved = reg.mutate(x, insert=row)          # X's head == Y's content
        assert (moved.root, moved.version, moved.fingerprint) == (x, 1, y)
        assert reg.resolve(x) == moved
        # Y keeps its handle and its own chain
        own = reg.resolve(y)
        assert (own.root, own.version, own.fingerprint) == (y, 0, y)
        assert reg.version_of(y) == 0
        # push that position out of X's window: Y's window still names it
        chain_fps(reg, x, 2)
        assert reg.history(x)[1] == y and reg.resolve(x).version == 3
        assert np.array_equal(reg.dataset(y), np.vstack([base, row]))
        assert reg.resolve(y) == own
        with pytest.raises(KeyError):
            reg.dataset(x)                         # X's own v0 did go


    def test_pinned_readers_survive_racing_revisits(self):
        """Readers pin whatever the head is while a writer flips the
        chain A->B->A->... under ``versions_retained=1``: a pinned
        content is never collected under its reader, and once the
        readers are gone nothing but the head is held."""
        import sys
        import threading
        import time

        reg = IndexRegistry(capacity=4, versions_retained=1)
        lines = segs(10)
        n = lines.shape[0]
        a = reg.register(lines, domain=DOMAIN)
        row = np.array([[2.0, 3.0, 40.0, 50.0]])
        stop = threading.Event()
        errors, reads = [], [0] * 8

        def reader(slot):
            while not stop.is_set():
                info = reg.resolve(a)
                try:
                    reg.pin(info.fingerprint)
                except KeyError:
                    continue     # collected between resolve and pin
                try:
                    if reg.dataset(info.fingerprint).shape[0] \
                            != info.num_lines:
                        errors.append(("rows", info))
                except KeyError:
                    errors.append(("collected while pinned", info))
                finally:
                    reg.unpin(info.fingerprint)
                reads[slot] += 1

        threads = [threading.Thread(target=reader, args=(i,), daemon=True)
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 20.0
            for flip in range(300):
                if flip % 2 == 0:
                    reg.mutate(a, insert=row)
                else:
                    reg.mutate(a, delete_ids=[n])
                assert time.monotonic() < deadline
        finally:
            stop.set()
            for t in threads:
                t.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        assert min(reads) > 0
        head = reg.resolve(a)
        assert (head.version, head.fingerprint) == (300, a)
        snap = reg.snapshot()
        assert snap["datasets"] == 1 and snap["pinned_versions"] == 0


class TestBytePressure:
    def test_gc_evicts_old_version_archives_before_current(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=16, store=store, versions_retained=2)
        fp0 = reg.register(segs(4), domain=DOMAIN)
        reg.get(fp0, "pmr", capacity=8)
        fp1 = reg.mutate(fp0, insert=np.array([[1.0, 1.0, 9.0, 9.0]])
                         ).fingerprint
        reg.get(fp1, "pmr", capacity=8)
        reg.spill_all()
        fps_on_disk = {e.fingerprint for e in store.entries()}
        assert fps_on_disk == {fp0, fp1}
        # touch the current version's archive (a serving disk hit
        # refreshes mtime) so the LRU evictor favors keeping it
        now = os.path.getmtime(tmp_path) + 60
        for e in store.entries():
            if e.fingerprint == fp1:
                os.utime(e.path, times=(now, now))
        # budget for one archive: the old version's goes first
        sizes = {e.fingerprint: e.size_bytes for e in store.entries()}
        store.gc(budget_bytes=sizes[fp1])
        left = {e.fingerprint for e in store.entries()}
        assert left == {fp1}

    def test_store_delete_fingerprint_is_per_version(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=16, store=store, versions_retained=4)
        fp0 = reg.register(segs(5), domain=DOMAIN)
        fps = chain_fps(reg, fp0, 2)
        for fp in fps:
            reg.get(fp, "pmr", capacity=8)
        reg.spill_all()
        assert {e.fingerprint for e in store.entries()} == set(fps)
        store.delete_fingerprint(fps[1])
        assert {e.fingerprint
                for e in store.entries()} == {fps[0], fps[2]}


class TestCorruptionIsolation:
    def test_corrupt_old_version_quarantines_without_touching_current(
            self, tmp_path):
        store = IndexStore(tmp_path)
        # capacity 1: getting the new version's index evicts the old
        # one from memory, so the later old-version read probes disk
        reg = IndexRegistry(capacity=1, store=store, versions_retained=2)
        lines = segs(6)
        fp0 = reg.register(lines, domain=DOMAIN)
        reg.get(fp0, "pmr", capacity=8)
        new = np.array([[5.0, 5.0, 50.0, 50.0]])
        fp1 = reg.mutate(fp0, insert=new).fingerprint
        reg.get(fp1, "pmr", capacity=8)   # evicts + spills the old tree
        reg.spill_all()
        (old_entry,) = [e for e in store.entries() if e.fingerprint == fp0]
        with open(old_entry.path, "r+b") as fh:
            fh.seek(os.path.getsize(old_entry.path) // 2)
            fh.write(b"\xff\x00" * 32)
        # loading the corrupted old version quarantines it...
        built_old = reg.get(fp0, "pmr", capacity=8)
        assert store.corrupt_evictions == 1
        assert store.quarantined() == [os.path.basename(old_entry.path)]
        # ...and transparently rebuilds the old snapshot, bit-correct
        assert built_old.num_lines == lines.shape[0]
        # the current version's archives and answers are untouched
        assert any(e.fingerprint == fp1 for e in store.entries())
        built_new = reg.get(fp1, "pmr", capacity=8)
        assert built_new.num_lines == lines.shape[0] + 1
        got = np.unique(built_new.tree.window_query(
            np.array([0.0, 0.0, DOMAIN, DOMAIN])))
        assert lines.shape[0] in got.tolist()   # the inserted row serves
