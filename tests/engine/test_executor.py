"""BoundedExecutor backpressure and shutdown semantics (satellite)."""

import threading
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.engine import BoundedExecutor, RejectedError
from repro.errors import EngineError
from repro.resilience import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.faults import FaultInjector


def park_worker(ex, release):
    """Occupy the single worker so queued jobs cannot drain."""
    started = threading.Event()

    def block(machine):
        started.set()
        release.wait(10)
        return "unblocked"

    fut = ex.submit(block)
    assert started.wait(5)
    return fut


class TestBackpressure:
    def test_saturated_queue_rejects_with_machine_readable_reason(self):
        release = threading.Event()
        ex = BoundedExecutor(workers=1, queue_depth=2)
        try:
            parked = park_worker(ex, release)
            # the queue takes exactly queue_depth jobs ...
            queued = [ex.submit(lambda m: m.steps) for _ in range(2)]
            # ... and the next submit is refused, not buffered
            with pytest.raises(RejectedError) as ei:
                ex.submit(lambda m: None)
            assert ei.value.reason == "queue_full"
            assert "queue full" in str(ei.value)
            assert isinstance(ei.value, EngineError)
            assert ex.queue_depth == 2
        finally:
            release.set()
            ex.shutdown()
        assert parked.result(5) == "unblocked"
        for f in queued:
            assert f.result(5) == 0.0      # fresh machine per job

    def test_queue_drains_after_release(self):
        release = threading.Event()
        ex = BoundedExecutor(workers=1, queue_depth=1)
        try:
            park_worker(ex, release)
            ex.submit(lambda m: 1)
            with pytest.raises(RejectedError):
                ex.submit(lambda m: 2)
            release.set()
            # the queue drains: capacity becomes available again
            done = threading.Event()
            deadline = threading.Event()
            for _ in range(50):
                try:
                    fut = ex.submit(lambda m: done.set())
                    break
                except RejectedError:
                    deadline.wait(0.01)
            else:
                pytest.fail("queue never drained")
            fut.result(5)
            assert done.is_set()
        finally:
            release.set()
            ex.shutdown()

    def test_shutdown_rejects_with_shutdown_reason(self):
        ex = BoundedExecutor(workers=1, queue_depth=1)
        ex.shutdown()
        with pytest.raises(RejectedError) as ei:
            ex.submit(lambda m: None)
        assert ei.value.reason == "shutdown"

    def test_job_errors_flow_through_the_future(self):
        ex = BoundedExecutor(workers=1, queue_depth=4)
        try:
            fut = ex.submit(lambda m: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                fut.result(5)
        finally:
            ex.shutdown()

    def test_cancelled_job_is_skipped_by_the_worker(self):
        release = threading.Event()
        ex = BoundedExecutor(workers=1, queue_depth=2)
        ran = threading.Event()
        try:
            park_worker(ex, release)
            doomed = ex.submit(lambda m: ran.set())
            assert doomed.cancel()         # still queued: cancellable
            release.set()
            after = ex.submit(lambda m: "after")
            assert after.result(5) == "after"
            assert not ran.is_set()        # the worker skipped it
        finally:
            release.set()
            ex.shutdown()


class TestInjection:
    def test_injected_job_fault_propagates_through_future(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="executor.job", kind="error", times=1),)))
        ex = BoundedExecutor(workers=1, queue_depth=4, injector=inj)
        try:
            fut = ex.submit(lambda m: "ok")
            with pytest.raises(InjectedFault):
                fut.result(5)
            # budget spent: the pool itself is healthy again
            assert ex.submit(lambda m: "ok").result(5) == "ok"
        finally:
            ex.shutdown()


class TestEngineTimeoutAccounting:
    def test_timeouts_and_rejections_are_counted(self):
        """Engine-level view: a saturated pool surfaces as RejectedError
        reasons and record_timeout() counts, never as silent queueing."""
        from repro.engine import SpatialQueryEngine
        from repro.geometry import random_segments

        release = threading.Event()
        lines = random_segments(60, 256, 32, seed=3)
        with SpatialQueryEngine(workers=1, queue_depth=1, max_batch=2,
                                max_wait=60.0, retry_attempts=1) as eng:
            fp = eng.register(lines, domain=256)
            eng.warm(fp)
            started = threading.Event()

            def park(machine):
                started.set()
                release.wait(10)

            try:
                eng._executor.submit(park)
                assert started.wait(5)             # worker is busy now
                # a flushed group queues behind it and fills the depth-1
                # queue (a kick would run it on this thread)
                eng.submit_window(fp, [0, 0, 60, 60])
                eng._coalescer.flush()
                # a probe that never resolves in time is a counted
                # timeout: its kick only marked its group (a group is
                # in flight), and its future is cancelled while pending
                with pytest.raises(FutureTimeoutError):
                    eng.window(fp, [0, 0, 60, 60], timeout=0.05)
                # the queue is still full, so the next dispatched jobs
                # are rejected outright
                futs = [eng.submit_window(fp, [0, 0, 50, 50])
                        for _ in range(2)]
                eng._coalescer.flush()
                with pytest.raises(RejectedError) as ei:
                    futs[0].result(5)
                assert ei.value.reason == "queue_full"
            finally:
                release.set()
            eng.flush()
            snap = eng.snapshot()
            assert snap["rejected"].get("queue_full", 0) >= 2
            assert snap["timeouts"] == 1
            assert snap["cancels"] >= 1
