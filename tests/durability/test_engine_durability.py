"""The commit protocol under injected write failures.

PR 7 fixed the abort contract for failed warm builds; these cells pin
the same contract for the two new write fault sites: a failed
``wal.append`` or ``store.put`` must withhold the ack, leave the
readable snapshot untouched, keep the breakers closed, and leave the
journal without the failed record -- a broken *write* path must never
degrade the *read* path.
"""

import os

import numpy as np
import pytest

from repro.baselines.brute import brute_window_query
from repro.durability import MutationJournal
from repro.engine import SpatialQueryEngine
from repro.geometry import random_segments
from repro.resilience import (EXAMPLE_PLANS, FaultPlan, FaultSpec,
                              InjectedFault)

DOMAIN = 512
RECT = (50.0, 400.0, 50.0, 400.0)


def make_engine(tmp_path, plan=None, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("max_batch", 8)
    kw.setdefault("max_wait", 0.001)
    kw.setdefault("journal_dir", os.path.join(tmp_path, "wal"))
    return SpatialQueryEngine(fault_plan=plan, **kw)


def lines0(n=50, seed=3):
    return random_segments(n, domain=DOMAIN, max_len=40, seed=seed)


class TestWalAppendFaults:
    def test_failed_append_aborts_commit_without_poisoning_reads(
            self, tmp_path):
        plan = EXAMPLE_PLANS["walfail"]   # first two appends error
        lines = lines0()
        with make_engine(tmp_path, plan=plan) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
                # ack withheld and snapshot unpoisoned: the head is
                # still version 0 and answers exactly the oracle
                info = eng.registry.resolve(fp)
                assert info.version == 0
                assert info.fingerprint == fp
                got = sorted(eng.window(fp, RECT).tolist())
                assert got == sorted(
                    brute_window_query(lines, RECT).tolist())
            # breakers untouched: no fast-fails, status stays ok
            h = eng.health()
            assert h["status"] == "ok"
            assert h["breakers_not_closed"] == []
            assert h["wal"]["wal_append_failures"] == 2
            assert h["wal"]["wal_appends"] == 0
            # the budget is spent: the third commit lands and journals
            head = eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            assert eng.registry.resolve(fp).fingerprint == head
            assert eng.health()["wal"]["wal_appends"] == 1
        # on disk: exactly the one acked record, nothing of the aborts
        (root,) = os.listdir(tmp_path / "wal")
        with MutationJournal(os.path.join(tmp_path, "wal", root)) as j:
            recs = list(j.records())
        assert [r.fingerprint for r in recs] == [head]

    def test_failed_warm_build_abandons_the_journaled_record(
            self, tmp_path):
        # with no probes beforehand, the first registry.get call is the
        # mutation's warm build -- fail it once
        plan = FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error", times=1),), seed=1)
        with make_engine(tmp_path, plan=plan) as eng:
            fp = eng.register(lines0(), domain=DOMAIN)
            with pytest.raises(InjectedFault):
                eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            assert eng.registry.resolve(fp).version == 0
            h = eng.health()["wal"]
            assert h["wal_appends"] == 1     # append happened...
            assert h["wal_abandons"] == 1    # ...then rolled back
            head = eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
        (root,) = os.listdir(tmp_path / "wal")
        with MutationJournal(os.path.join(tmp_path, "wal", root)) as j:
            recs = list(j.records())
        assert [r.fingerprint for r in recs] == [head]
        assert [r.seq for r in recs] == [1]   # the abandoned seq was reused


class TestStorePutFaults:
    def test_best_effort_spills_degrade_silently(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="store.put", kind="error"),), seed=1)
        lines = lines0()
        with make_engine(tmp_path, plan=plan,
                         cache_dir=os.path.join(tmp_path, "cache")) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            head = eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            # commit acked despite every store write failing
            assert eng.registry.resolve(fp).fingerprint == head
            got = sorted(eng.window(fp, RECT).tolist())
            shadow = np.vstack([lines, [[1.0, 2.0, 3.0, 4.0]]])
            assert got == sorted(brute_window_query(shadow, RECT).tolist())

    def test_checkpoint_aborts_when_index_persist_fails(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="store.put", kind="error"),), seed=1)
        with make_engine(tmp_path, plan=plan,
                         cache_dir=os.path.join(tmp_path, "cache")) as eng:
            fp = eng.register(lines0(), domain=DOMAIN)
            eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            with pytest.raises(InjectedFault):
                eng.checkpoint(fp)
            # the journal kept its records: nothing was truncated on
            # the failed checkpoint
            journal = next(iter(eng._journals.values()))
            assert journal.read_checkpoint_meta()["seq"] == 0
            assert journal.last_seq == 1

    def test_auto_checkpoint_failure_is_counted_not_raised(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="store.put", kind="error"),), seed=1)
        with make_engine(tmp_path, plan=plan, checkpoint_every=1,
                         cache_dir=os.path.join(tmp_path, "cache")) as eng:
            fp = eng.register(lines0(), domain=DOMAIN)
            head = eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            assert eng.registry.resolve(fp).fingerprint == head   # acked
            h = eng.health()["wal"]
            assert h["checkpoint_failures"] == 1
            assert h["checkpoints"] == 1   # only the base checkpoint


class TestCommitProtocol:
    def test_append_precedes_flip(self, tmp_path):
        """The WAL record is durable before reads flip (observer order)."""
        events = []
        with make_engine(tmp_path) as eng:
            fp = eng.register(lines0(), domain=DOMAIN)
            orig = eng.registry.activate_version

            def spying_activate(fingerprint):
                events.append(("flip", fingerprint))
                return orig(fingerprint)

            orig_record = eng.stats.event

            def spying_wal(event, n=1):
                if event == "wal_append":
                    events.append(("append", None))
                return orig_record(event, n)

            eng.registry.activate_version = spying_activate
            eng.stats.event = spying_wal
            eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
        kinds = [k for k, _ in events]
        assert kinds.index("append") < kinds.index("flip")

    def test_health_wal_shape(self, tmp_path):
        with make_engine(tmp_path, journal_fsync="none") as eng:
            fp = eng.register(lines0(), domain=DOMAIN)
            eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            wal = eng.health()["wal"]
            assert wal["enabled"] is True
            assert wal["fsync_policy"] == "none"
            assert wal["wal_appends"] == 1
            (snap,) = wal["journals"].values()
            assert snap["last_seq"] == 1
            assert snap["checkpoint_seq"] == 0

    def test_no_journal_dir_means_wal_disabled(self, tmp_path):
        with SpatialQueryEngine(workers=2) as eng:
            fp = eng.register(lines0(), domain=DOMAIN)
            eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            wal = eng.health()["wal"]
            assert wal["enabled"] is False
            assert wal["journals"] == {}

    def test_fsync_none_still_journals_commits(self, tmp_path):
        with make_engine(tmp_path, journal_fsync="none") as eng:
            fp = eng.register(lines0(), domain=DOMAIN)
            head = eng.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
        with make_engine(tmp_path, journal_fsync="none") as eng2:
            (rep,) = eng2.recover()
            assert rep.fingerprint == head

    def test_config_validation(self):
        with pytest.raises(ValueError, match="journal_fsync"):
            SpatialQueryEngine(journal_dir="x", journal_fsync="always")
        with pytest.raises(ValueError, match="checkpoint_every"):
            SpatialQueryEngine(checkpoint_every=3)
        with pytest.raises(ValueError, match="journal_segment_bytes"):
            SpatialQueryEngine(journal_dir="x", journal_segment_bytes=16)
