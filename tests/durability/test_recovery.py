"""Recovery edge cases: replay proven by fingerprint identity.

Every cell builds real engine history with a journal attached, then
recovers into a *fresh* engine and checks the recovered head by the
strongest predicate available: its content-addressed fingerprint must
equal the committed one, and its answers must match the brute oracle
over the shadow array.
"""

import os

import numpy as np
import pytest

from repro.baselines.brute import brute_window_query
from repro.durability import MutationJournal, RecoveryError, replay_journal
from repro.engine import SpatialQueryEngine
from repro.engine.registry import IndexRegistry
from repro.geometry import random_segments

DOMAIN = 512
RECT = (50.0, 400.0, 50.0, 400.0)


def make_engine(tmp_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("max_batch", 8)
    kw.setdefault("max_wait", 0.001)
    kw.setdefault("journal_dir", os.path.join(tmp_path, "wal"))
    return SpatialQueryEngine(**kw)


def seeded_lines(n=60, seed=0):
    return random_segments(n, domain=DOMAIN, max_len=40, seed=seed)


def run_commits(eng, fp, count, seed=1):
    """Blocking mutation commits; returns the acked head fingerprints."""
    rng = np.random.default_rng(seed)
    heads = []
    for i in range(count):
        if i % 3 == 2:
            n = eng.registry.resolve(fp).num_lines
            ids = np.sort(rng.choice(n, size=min(3, n), replace=False))
            heads.append(eng.delete_lines(fp, ids))
        else:
            heads.append(eng.insert_lines(
                fp, random_segments(4, domain=DOMAIN, max_len=30,
                                    seed=seed * 100 + i)))
    return heads


class TestRecoveryBasics:
    def test_empty_journal_recovers_the_base_checkpoint(self, tmp_path):
        lines = seeded_lines()
        # a journal holding only its base checkpoint -- exactly what a
        # crash right after journal creation leaves behind
        fp = IndexRegistry(capacity=1).register(lines, domain=DOMAIN)
        j = MutationJournal(os.path.join(tmp_path, "wal", fp))
        j.write_checkpoint(lines, fingerprint=fp, version=0,
                           domain=DOMAIN, seq=0)
        j.close()
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert rep.records_replayed == 0
            assert rep.fingerprint == fp
            assert rep.num_lines == lines.shape[0]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(lines, RECT).tolist())

    def test_recovery_reproduces_acked_history_exactly(self, tmp_path):
        lines = seeded_lines()
        with make_engine(tmp_path) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            heads = run_commits(eng, fp, 7)
            shadow = eng.registry.dataset(heads[-1]).copy()
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert rep.records_replayed == 7
            assert rep.fingerprint == heads[-1]       # fingerprint identity
            # the old handle resolves onto the recovered head
            assert eng2.registry.resolve(fp).fingerprint == heads[-1]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(shadow, RECT).tolist())

    def test_duplicate_recover_is_idempotent(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            head = run_commits(eng, fp, 4)[-1]
        with make_engine(tmp_path) as eng2:
            (first,) = eng2.recover()
            assert first.records_replayed == 4
            (second,) = eng2.recover()
            assert second.records_replayed == 0
            assert second.records_skipped >= 1
            assert second.fingerprint == head
            assert eng2.registry.resolve(fp).fingerprint == head

    def test_mutations_continue_after_recovery(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            run_commits(eng, fp, 3)
        with make_engine(tmp_path) as eng2:
            eng2.recover()
            head = eng2.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            assert eng2.registry.resolve(fp).fingerprint == head
        # third generation sees *both* histories
        with make_engine(tmp_path) as eng3:
            (rep,) = eng3.recover()
            assert rep.fingerprint == head


class TestTornAndCheckpointed:
    def test_torn_tail_recovers_the_acked_prefix(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            heads = run_commits(eng, fp, 5)
            (root_dir,) = os.listdir(os.path.join(tmp_path, "wal"))
            seg_dir = os.path.join(tmp_path, "wal", root_dir)
            (seg,) = [n for n in os.listdir(seg_dir) if n.endswith(".wal")]
            seg = os.path.join(seg_dir, seg)
        # tear the last record mid-payload: as if the process died
        # inside the append (that commit was never acked)
        os.truncate(seg, os.path.getsize(seg) - 9)
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert rep.records_replayed == 4
            assert rep.fingerprint == heads[-2]
            assert eng2.registry.resolve(fp).fingerprint == heads[-2]

    def test_checkpoint_bounds_replay_and_survives_crash(self, tmp_path):
        with make_engine(tmp_path, checkpoint_every=3) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            heads = run_commits(eng, fp, 7)
            shadow = eng.registry.dataset(heads[-1]).copy()
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            # 7 commits with a checkpoint every 3: replay covers only
            # the records past the newest checkpoint
            assert rep.checkpoint_seq == 6
            assert rep.records_replayed == 1
            assert rep.fingerprint == heads[-1]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(shadow, RECT).tolist())

    def test_manual_checkpoint_truncates_prefix(self, tmp_path):
        with make_engine(tmp_path,
                         journal_segment_bytes=4096) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            head = run_commits(eng, fp, 40)[-1]
            journal = next(iter(eng._journals.values()))
            before = len(journal.segment_paths())
            assert before > 1
            meta = eng.checkpoint(fp)
            assert meta["fingerprint"] == head
            assert len(journal.segment_paths()) < before
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert rep.records_replayed == 0
            assert rep.fingerprint == head


class TestStoreTiers:
    @pytest.mark.parametrize("warm", [False, True])
    def test_recovery_with_index_store_cold_vs_warm(self, tmp_path, warm):
        cache = os.path.join(tmp_path, "cache")
        with make_engine(tmp_path, cache_dir=cache) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            heads = run_commits(eng, fp, 4)
            shadow = eng.registry.dataset(heads[-1]).copy()
        if not warm:
            # cold store: the head's index must rebuild from the
            # recovered dataset instead of loading
            for name in os.listdir(cache):
                path = os.path.join(cache, name)
                if os.path.isfile(path):
                    os.unlink(path)
        with make_engine(tmp_path, cache_dir=cache) as eng2:
            (rep,) = eng2.recover()
            assert rep.fingerprint == heads[-1]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(shadow, RECT).tolist())
            snap = eng2.store.snapshot()
            if warm:
                assert snap["disk_hits"] >= 1
            else:
                assert snap["disk_hits"] == 0


class TestRecoveryRefusals:
    def test_missing_checkpoint_is_a_recovery_error(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            run_commits(eng, fp, 2)
            (root_dir,) = os.listdir(os.path.join(tmp_path, "wal"))
        os.unlink(os.path.join(tmp_path, "wal", root_dir, "checkpoint.npz"))
        with make_engine(tmp_path) as eng2:
            with pytest.raises(RecoveryError, match="checkpoint"):
                eng2.recover()

    def test_corrupt_checkpoint_content_is_detected(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            run_commits(eng, fp, 2)
            (root_dir,) = os.listdir(os.path.join(tmp_path, "wal"))
        ck = os.path.join(tmp_path, "wal", root_dir, "checkpoint.npz")
        # rewrite the snapshot with different rows but the same manifest
        j = MutationJournal(os.path.join(tmp_path, "wal", root_dir))
        lines, meta = j.read_checkpoint()
        j.close()
        doctored = np.ascontiguousarray(lines + 1.0)
        import json
        np.savez(ck, lines=doctored,
                 meta=np.frombuffer(json.dumps(meta).encode(),
                                    dtype=np.uint8))
        with make_engine(tmp_path) as eng2:
            with pytest.raises(RecoveryError, match="hashes"):
                eng2.recover()

    def test_non_chaining_record_is_detected(self, tmp_path):
        """A journal whose records skip a link must fail, not guess."""
        reg = IndexRegistry(capacity=4)
        lines = seeded_lines(20)
        j = MutationJournal(str(tmp_path / "j"))
        j.write_checkpoint(lines, fingerprint=reg.register(lines,
                                                           domain=DOMAIN),
                           version=0, domain=DOMAIN, seq=0)
        j.append(base="feedfacefeedface", fingerprint="deadbeefdeadbeef",
                 version=1, num_lines=21, domain=DOMAIN,
                 delete_ids=np.zeros(0, dtype=np.int64),
                 insert_lines=np.zeros((1, 4)))
        with pytest.raises(RecoveryError, match="chain"):
            replay_journal(j, IndexRegistry(capacity=4), "r")
        j.close()

    def test_journal_ahead_of_registry_refuses_new_commits(self, tmp_path):
        """The fork guard: mutating over an unreplayed journal is refused."""
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            run_commits(eng, fp, 2)
        with make_engine(tmp_path) as eng2:
            # no recover(): the journal on disk is ahead of this registry
            eng2.register(seeded_lines(), domain=DOMAIN)
            with pytest.raises(Exception, match="unreplayed"):
                eng2.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])


def revisit_commits(eng, fp, flips=4):
    """A->B->A->B->A: insert three rows, delete exactly them, and again.

    Returns the shadow head array (after an even number of flips: the
    registered rows themselves)."""
    rows = random_segments(3, domain=DOMAIN, max_len=30, seed=91)
    shadow = eng.registry.dataset(eng.registry.resolve(fp).fingerprint)
    for flip in range(flips):
        if flip % 2 == 0:
            eng.insert_lines(fp, rows)
            shadow = np.vstack([shadow, rows])
        else:
            n = shadow.shape[0]
            eng.delete_lines(fp, np.arange(n - rows.shape[0], n))
            shadow = shadow[:n - rows.shape[0]]
    return shadow


class TestRevisitedContent:
    """Replay is positional: content the chain held before is a record
    like any other, applied once -- live, restarted, and re-recovered."""

    def test_revisited_history_replays_every_record(self, tmp_path):
        lines = seeded_lines()
        with make_engine(tmp_path) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            shadow = revisit_commits(eng, fp)
            assert eng.registry.resolve(fp).version == 4
            # the live chain already holds every journal position
            (live,) = eng.recover()
            assert (live.records_replayed, live.records_skipped) == (0, 4)
            assert eng.registry.resolve(fp).version == 4
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert (rep.records_replayed, rep.records_skipped) == (4, 0)
            assert rep.version == 4
            head = eng2.registry.resolve(fp)
            assert np.array_equal(eng2.registry.dataset(head.fingerprint),
                                  shadow)
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(shadow, RECT).tolist())
            (again,) = eng2.recover()
            assert (again.records_replayed, again.records_skipped) == (0, 4)
            assert eng2.registry.resolve(fp) == head

    def test_checkpoint_content_equal_to_a_later_head(self, tmp_path):
        """A checkpoint taken mid-history holds the content the head
        returns to two commits later; the anchor must not mistake the
        head for the checkpoint position."""
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            revisit_commits(eng, fp, flips=2)
            meta = eng.checkpoint(fp)
            shadow = revisit_commits(eng, fp, flips=2)
            head_fp = eng.registry.resolve(fp).fingerprint
            assert meta["fingerprint"] == head_fp      # same content
            (live,) = eng.recover()
            assert (live.records_replayed, live.records_skipped) == (0, 2)
            assert eng.registry.resolve(fp).version == 4
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert (rep.records_replayed, rep.records_skipped) == (2, 0)
            assert rep.fingerprint == head_fp
            assert np.array_equal(eng2.registry.dataset(rep.fingerprint),
                                  shadow)
            (again,) = eng2.recover()
            assert (again.records_replayed, again.records_skipped) == (0, 2)
            assert again.version == rep.version == 2

    def test_diverged_live_chain_is_an_error_not_a_skip(self, tmp_path):
        """Membership is not evidence: a live chain that holds the
        journal's fingerprints in another order must be refused."""
        lines = seeded_lines(20)
        n = lines.shape[0]
        row_b = np.array([[1.0, 2.0, 3.0, 4.0]])
        row_c = np.array([[5.0, 6.0, 7.0, 8.0]])
        reg = IndexRegistry(capacity=4)
        a = reg.register(lines, domain=DOMAIN)
        b = reg.mutate(a, insert=row_b)                      # live: A -> B
        c = reg.mutate(a, insert=row_c, delete_ids=[n])      #       B -> C
        j = MutationJournal(str(tmp_path / "j"))
        j.write_checkpoint(lines, fingerprint=a, version=0, domain=DOMAIN,
                           seq=0)
        none = np.zeros(0, dtype=np.int64)
        j.append(base=a, fingerprint=c.fingerprint, version=1,   # A -> C
                 num_lines=n + 1, domain=DOMAIN, delete_ids=none,
                 insert_lines=row_c)
        j.append(base=c.fingerprint, fingerprint=b.fingerprint,  # C -> B
                 version=2, num_lines=n + 1, domain=DOMAIN,
                 delete_ids=np.array([n]), insert_lines=row_b)
        with pytest.raises(RecoveryError, match="chain"):
            replay_journal(j, reg, "r")
        assert reg.history(a) == (a, b.fingerprint, c.fingerprint)
        j.close()


class TestParentWrittenJournal:
    def test_journal_written_by_the_parent_commit_recovers(self, tmp_path):
        """``fixtures/journal_e10aae5`` was written by the commit before
        versions became positions (``run_commits`` never revisits): the
        record format and every fingerprint must read back unchanged."""
        import json
        import shutil
        src = os.path.join(os.path.dirname(__file__), "fixtures",
                           "journal_e10aae5")
        want = json.load(open(os.path.join(src, "expected.json")))
        # a copy: opening a journal may re-stamp or truncate its tail
        shutil.copytree(os.path.join(src, "wal"), tmp_path / "wal")
        with make_engine(tmp_path) as eng:
            (rep,) = eng.recover()
            assert rep.records_replayed == len(want["heads"])
            assert (rep.fingerprint, rep.version, rep.num_lines) == (
                want["heads"][-1], want["version"], want["num_lines"])
            assert eng.registry.resolve(want["root"]).fingerprint \
                == rep.fingerprint
        # the same script run live under this code commits the same heads
        with make_engine(tmp_path / "live") as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            assert fp == want["root"]
            assert run_commits(eng, fp, len(want["heads"])) == want["heads"]
