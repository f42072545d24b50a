"""End-to-end resilience: chaos plans driven through the real engine.

These are the acceptance scenarios of the fault-tolerant serving
layer: a stalled shard yields a partial result instead of an
exception, repeated injected build failures trip the breaker into
fast-fail and a later probe closes it again, corrupted store loads
retry into quarantine-and-rebuild, and the brute-force fallback keeps
answers flowing (and correct) while the index path is down.
"""

import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.baselines.brute import brute_window_query
from repro.engine import (CircuitOpenError, FaultPlan, FaultSpec,
                          InjectedFault, PartialResult, SpatialQueryEngine)
from repro.geometry import random_segments
from repro.structures import build_sharded

from ..engine.test_pin_balance import held_busy

DOMAIN = 512


def segments(n=120, seed=0):
    return np.unique(random_segments(n, DOMAIN, 48, seed=seed), axis=0)


FULL = [0.0, 0.0, float(DOMAIN), float(DOMAIN)]


class TestPartialResults:
    @pytest.mark.parametrize("backend", [
        "thread", pytest.param("process", marks=pytest.mark.slow)])
    def test_stalled_shard_yields_partial_not_exception(self, backend):
        """Acceptance: a stalled shard under a deadline resolves every
        probe with a PartialResult (shards_dropped >= 1), not an error.
        On the process backend the group's ``deadline_at`` crosses with
        the job and the stall fires inside the worker."""
        plan = FaultPlan(specs=(
            FaultSpec(site="shard.query", kind="stall", delay=0.5,
                      match=(("shard", 0),)),))
        lines = segments(seed=1)
        with SpatialQueryEngine(shards=4, max_batch=8, fault_plan=plan,
                                executor=backend,
                                workers=4 if backend == "thread" else 2
                                ) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            futs = [eng.submit_window(fp, FULL, deadline=0.08)
                    for _ in range(6)]
            eng.flush()
            results = [f.result(10) for f in futs]
            want = np.sort(brute_window_query(lines, np.asarray(FULL)))
            for res in results:
                assert isinstance(res, PartialResult)
                assert res.partial
                assert res.shards_dropped >= 1
                assert res.shards_completed >= 1
                # partial answers are a subset of the full answer
                assert np.isin(res.value, want).all()
            snap = eng.snapshot()
            assert snap["partial_batches"] >= 1
            assert snap["partial_results"] >= len(results)
            assert snap["shards_dropped"] >= 1
            health = eng.health()
            assert health["partial_results"] >= len(results)

    def test_deadline_before_dispatch_still_queries_one_planned_shard(self):
        """A deadline already spent when the wave starts: the wave runs
        its first planned shard and drops the rest of the plan, so
        completed + dropped is the number of shards the MBR plan
        selected -- not the index's shard count."""
        plan = FaultPlan(specs=(
            FaultSpec(site="shard.query", kind="stall", delay=0.2),))
        lines = segments(seed=1)
        idx = build_sharded(lines, DOMAIN, "pmr", shards=4)
        mbrs = idx.shard_mbrs()
        # a window spanning the gap between the first two shards' MBR
        # centres overlaps exactly those two
        lo = np.minimum(mbrs[0, :2] + mbrs[0, 2:], mbrs[1, :2] + mbrs[1, 2:])
        hi = np.maximum(mbrs[0, :2] + mbrs[0, 2:], mbrs[1, :2] + mbrs[1, 2:])
        rect = np.concatenate([lo, hi]) / 2.0
        assert idx.plan_windows(rect).ravel().sum() == 2
        with SpatialQueryEngine(shards=4, workers=1, max_batch=8,
                                fault_plan=plan) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            res = eng.window(fp, rect, deadline=1e-6)
        assert isinstance(res, PartialResult)
        assert res.shards_completed == 1
        assert res.shards_dropped == 1
        assert np.isin(res.value, brute_window_query(lines, rect)).all()

    def test_deadline_with_headroom_returns_exact_plain_result(self):
        """A generous deadline never changes the answer or its type."""
        lines = segments(seed=2)
        with SpatialQueryEngine(shards=4, workers=4, max_batch=4) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            plain = eng.window(fp, FULL)
            with_deadline = eng.window(fp, FULL, deadline=30.0)
            assert not isinstance(with_deadline, PartialResult)
            assert np.array_equal(plain, with_deadline)
            assert eng.snapshot()["partial_batches"] == 0

    def test_scalar_sharded_fanout_degrades_under_deadline(self):
        """The scalar ShardedIndex fan-out honours the same contract."""
        lines = segments(seed=3)
        idx = build_sharded(lines, DOMAIN, "pmr", shards=4)
        full = idx.window_query(FULL)
        partial = idx.window_query(FULL, deadline=0.0)
        assert isinstance(partial, PartialResult)
        assert partial.shards_completed >= 1      # always queries one shard
        assert partial.shards_dropped >= 1
        assert np.isin(partial.value, full).all()
        # headroom: same plain array as no deadline at all
        easy = idx.window_query(FULL, deadline=30.0)
        assert not isinstance(easy, PartialResult)
        assert np.array_equal(easy, full)


class TestCircuitBreaker:
    def _engine(self, plan, **kw):
        kw.setdefault("workers", 2)
        kw.setdefault("max_batch", 4)
        kw.setdefault("breaker_threshold", 3)
        kw.setdefault("breaker_reset", 0.15)
        return SpatialQueryEngine(fault_plan=plan, **kw)

    def test_trip_fast_fail_then_half_open_recovery(self):
        """Acceptance: repeated injected build failures trip the breaker,
        queries fail fast with CircuitOpenError, and after the reset
        timeout a successful probe closes the circuit again."""
        plan = FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error", times=3),))
        lines = segments(seed=4)
        with self._engine(plan) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            # three consecutive failing batches trip the threshold-3 breaker
            for _ in range(3):
                fut = eng.submit_window(fp, FULL)
                eng.flush()
                with pytest.raises(InjectedFault):
                    fut.result(10)
            snap = eng.snapshot()
            assert snap["breaker_trips"] == 1
            # open: fail fast, with the typed error and no index work
            fut = eng.submit_window(fp, FULL)
            with pytest.raises(CircuitOpenError) as ei:
                fut.result(10)
            assert ei.value.key == fp
            assert ei.value.retry_after is not None
            assert eng.snapshot()["breaker_fast_fails"] >= 1
            assert eng.health()["status"] == "degraded"
            # past the reset timeout the half-open probe succeeds (the
            # fault budget is spent) and the circuit closes
            time.sleep(0.2)
            assert np.array_equal(
                np.sort(eng.window(fp, FULL)),
                np.sort(brute_window_query(lines, np.asarray(FULL))))
            snap = eng.snapshot()
            assert snap["breaker_half_opens"] == 1
            assert snap["breaker_closes"] == 1
            health = eng.health()
            assert health["status"] == "ok"
            assert health["breakers"][fp]["state"] == "closed"

    def test_failed_probe_reopens_the_circuit(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error", times=4),))
        lines = segments(seed=5)
        with self._engine(plan) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            for _ in range(3):
                fut = eng.submit_window(fp, FULL)
                eng.flush()
                with pytest.raises(InjectedFault):
                    fut.result(10)
            time.sleep(0.2)
            # the half-open probe hits the fourth injected failure
            fut = eng.submit_window(fp, FULL)
            eng.flush()
            with pytest.raises(InjectedFault):
                fut.result(10)
            assert eng.snapshot()["breaker_reopens"] == 1
            # and the next arrival fails fast again
            fut = eng.submit_window(fp, FULL)
            with pytest.raises(CircuitOpenError):
                fut.result(10)

    def test_breakers_are_per_fingerprint(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error"),))
        lines_a = segments(seed=6)
        lines_b = segments(n=60, seed=7)
        with self._engine(plan, breaker_threshold=1) as eng:
            fp_a = eng.register(lines_a, domain=DOMAIN)
            fp_b = eng.register(lines_b, domain=DOMAIN)
            fut = eng.submit_window(fp_a, FULL)
            eng.flush()
            with pytest.raises(InjectedFault):
                fut.result(10)
            # fp_a is open; fp_b still serves (its own breaker is closed)
            fut = eng.submit_window(fp_a, FULL)
            with pytest.raises(CircuitOpenError):
                fut.result(10)
            assert eng.health()["breakers"][fp_a]["state"] == "open"
            assert eng.breakers.state(fp_b) == "closed"


    def test_collected_versions_take_their_breakers_along(self):
        """One breaker per *held* content, not one per commit forever;
        an OPEN breaker of a version still inside the retention window
        is left alone."""
        lines = segments(seed=8)
        with SpatialQueryEngine(workers=2, max_batch=4, shards=2,
                                versions_retained=2, breaker_threshold=1,
                                breaker_reset=60.0) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            for i in range(50):
                eng.insert_lines(fp, [[1.0 + i, 2.0, 30.0 + i, 40.0]])
                eng.window(fp, FULL)   # mints the new head's breaker
            held = {row["fingerprint"] for row in eng.datasets_info()}
            assert len(held) == 2
            assert set(eng.health()["breakers"]) <= held
            # trip the head's breaker, then push it back one position
            tripped = eng.registry.resolve(fp).fingerprint
            eng.breakers.record_failure(tripped)
            eng.insert_lines(fp, [[7.0, 7.0, 70.0, 70.0]])
            eng.window(fp, FULL)
            health = eng.health()
            assert health["breakers"][tripped]["state"] == "open"
            assert len(health["breakers"]) <= 2 + 1
            # one more commit collects that version, breaker and all
            eng.insert_lines(fp, [[8.0, 8.0, 80.0, 80.0]])
            assert tripped not in eng.health()["breakers"]
            assert eng.health()["status"] == "ok"


class TestBruteFallback:
    def test_open_breaker_serves_brute_force_answers(self):
        """With brute_fallback on, an open circuit degrades to a raw
        scan -- correct answers, no index, fallbacks counted."""
        plan = FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error"),))  # never heals
        lines = segments(seed=8)
        rng = np.random.default_rng(9)
        with SpatialQueryEngine(fault_plan=plan, workers=2, max_batch=4,
                                breaker_threshold=2, breaker_reset=30.0,
                                brute_fallback=True) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            fut = eng.submit_window(fp, FULL)
            eng.flush()
            with pytest.raises(InjectedFault):
                fut.result(10)
            # the second failure trips the threshold-2 breaker, and the
            # very batch that tripped it is already served brute-force
            fut = eng.submit_window(fp, FULL)
            eng.flush()
            assert np.array_equal(
                np.sort(fut.result(10)),
                np.sort(brute_window_query(lines, np.asarray(FULL))))
            # breaker open: every probe kind degrades to brute force
            for _ in range(3):
                x, y = rng.uniform(0, DOMAIN / 2, 2)
                rect = np.array([x, y, x + 100, y + 100])
                got = eng.window(fp, rect)
                assert np.array_equal(
                    np.sort(got), np.sort(brute_window_query(lines, rect)))
            from repro.structures import brute_nearest
            px, py = rng.uniform(0, DOMAIN, 2)
            assert eng.nearest(fp, (px, py)) == brute_nearest(lines, px, py)
            snap = eng.snapshot()
            assert snap["fallbacks"] >= 4
            assert snap["breaker_fast_fails"] == 0   # served, not refused
            assert eng.health()["status"] == "degraded"


class TestStoreFaults:
    def test_corrupt_load_retries_then_quarantines_and_rebuilds(self, tmp_path):
        """Injected load corruption exercises the real retry ->
        quarantine -> rebuild path; answers stay correct throughout."""
        lines = segments(seed=10)
        cache = str(tmp_path / "store")
        # seed the store with a warm index
        with SpatialQueryEngine(cache_dir=cache, workers=2) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
        # every load attempt is corrupted: the budget is spent, the
        # entry is quarantined, and the registry rebuilds from scratch
        plan = FaultPlan(specs=(
            FaultSpec(site="store.load", kind="corrupt"),))
        with SpatialQueryEngine(cache_dir=cache, workers=2,
                                fault_plan=plan) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            got = eng.window(fp, FULL)
            assert np.array_equal(
                np.sort(got),
                np.sort(brute_window_query(lines, np.asarray(FULL))))
            snap = eng.snapshot()
            assert snap["retries"].get("store.load", 0) >= 1
            assert eng.store.quarantined()
        # a single transient corruption heals within the retry budget
        # (fresh directory: the quarantine above outlives its engine)
        cache = str(tmp_path / "store2")
        with SpatialQueryEngine(cache_dir=cache, workers=2) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
        plan = FaultPlan(specs=(
            FaultSpec(site="store.load", kind="corrupt", times=1),))
        with SpatialQueryEngine(cache_dir=cache, workers=2,
                                fault_plan=plan) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            snap = eng.snapshot()
            assert snap["retries"].get("store.load", 0) == 1
            assert snap["disk_hits"] >= 1      # the retry succeeded
            assert not eng.store.quarantined()


class TestTimeoutsAndHealth:
    def test_timed_out_future_is_cancelled_and_counted(self):
        """Satellite: a sync-helper timeout cancels the still-pending
        future (freeing its batch slot) and records the cancellation."""
        with SpatialQueryEngine(workers=1, max_batch=4,
                                queue_depth=4) as eng:
            lines = segments(seed=11)
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            # the worker parked behind a queued group: the timed-out
            # probe's kick only marks its group, which the deadline
            # then queues behind the held one
            with held_busy(eng, fp):
                with pytest.raises(FutureTimeoutError):
                    eng.window(fp, FULL, timeout=0.05)
            eng.flush()
            snap = eng.snapshot()
            assert snap["timeouts"] == 1
            assert snap["cancels"] + snap["cancel_failures"] == 1
            assert snap["cancels"] == 1        # it never reached a worker

    def test_health_reports_ok_and_full_shape(self):
        with SpatialQueryEngine(workers=2) as eng:
            lines = segments(n=40, seed=12)
            fp = eng.register(lines, domain=DOMAIN)
            eng.window(fp, FULL)
            health = eng.health()
            assert health["status"] == "ok"
            assert health["breakers_not_closed"] == []
            assert health["fault_injection"] is None   # no plan configured
            for key in ("breaker_trips", "retries", "partial_results",
                        "fallbacks", "queue_depth", "pending_probes"):
                assert key in health

    def test_injector_state_surfaces_in_health(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error", times=1),))
        lines = segments(n=40, seed=13)
        with SpatialQueryEngine(workers=2, max_batch=2,
                                breaker_threshold=5,
                                fault_plan=plan) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            fut = eng.submit_window(fp, FULL)
            eng.flush()
            with pytest.raises(InjectedFault):
                fut.result(10)
            health = eng.health()
            assert health["fault_injection"]["fired_total"] == 1
            assert eng.snapshot()["faults_injected"] == {"registry.get": 1}
