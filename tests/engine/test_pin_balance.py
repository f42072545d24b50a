"""No pinned version without a reader.

A read probe pins the content its handle resolved to at submit, so
retention GC cannot collect that version's data while the read is in
flight.  The pins go once per coalesced group, when the group settles
-- resolved, failed (after any brute re-issue) or rejected -- and a
probe that never joins a group releases its own.  Whatever path a probe
takes, once ``flush()`` returns no content may stay pinned: a leaked
pin keeps a retired version's data alive for good.
"""

import contextlib
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.baselines.brute import brute_window_query
from repro.engine import (CircuitOpenError, FaultPlan, FaultSpec,
                          InjectedFault, RejectedError, SpatialQueryEngine)
from repro.geometry import random_segments

DOMAIN = 512
STRUCTURES = ("pmr", "pm1", "rtree")


def segments(seed):
    return np.unique(random_segments(120, DOMAIN, 48, seed=seed), axis=0)


def assert_unpinned(eng):
    eng.flush()
    pins = {fp: rec.pins for fp, rec in eng.registry._datasets.items()}
    assert not any(pins.values()), pins


def wave(eng, fp, rng, n=12):
    """Window, point and nearest probes over every structure."""
    futs = []
    for i in range(n):
        structure = STRUCTURES[i % len(STRUCTURES)]
        x, y = rng.uniform(0, DOMAIN - 64, 2)
        futs += [eng.submit_window(fp, [x, y, x + 64, y + 64],
                                   structure=structure),
                 eng.submit_point(fp, (x, y), structure=structure),
                 eng.submit_nearest(fp, (x, y), structure=structure)]
    return futs


@contextlib.contextmanager
def held_busy(eng, fp):
    """Keep one read group in flight: every worker parked on an event,
    one window group queued behind them.  A kick meanwhile only marks
    its groups; leaving the block releases the workers, and the queued
    group's settle drains the marked ones.  Yields the release event,
    for a body that needs the workers back before it ends.

    The held group is queued by :meth:`Coalescer.flush`, which sends
    it to the pool: a kicked one would run on the kicking thread at
    once instead of queueing there."""
    release = threading.Event()
    parked = [threading.Event() for _ in range(eng.config.workers)]
    for started in parked:
        eng._executor.submit(
            lambda machine, started=started: (started.set(),
                                              release.wait(30)))
    assert all(started.wait(10) for started in parked)
    blocker = eng.submit_window(fp, [0, 0, 9, 9])
    eng._coalescer.flush()
    assert eng.snapshot()["queue_depth"] == 1   # queued behind them
    try:
        yield release
    finally:
        release.set()
        blocker.result(30)


def test_every_read_path_releases_its_pins():
    # the first two index batches fail: they trip the threshold-2
    # breaker of the map they probe, which stays open for the test
    plan = FaultPlan(specs=(
        FaultSpec(site="registry.get", kind="error", times=2),))
    rng = np.random.default_rng(3)
    with SpatialQueryEngine(fault_plan=plan, workers=2, max_batch=8,
                            max_wait=60.0, breaker_threshold=2,
                            breaker_reset=30.0) as eng:
        broken = eng.register(segments(1), domain=DOMAIN)
        fp = eng.register(segments(2), domain=DOMAIN)
        for _ in range(2):                      # failed groups
            fut = eng.submit_window(broken, [0, 0, 100, 100])
            eng.flush()
            with pytest.raises(InjectedFault):
                fut.result(10)
        with pytest.raises(CircuitOpenError):   # open-breaker fast fail
            eng.submit_window(broken, [0, 0, 100, 100]).result(10)
        with pytest.raises(ValueError, match="outside the domain"):
            eng.submit_point(fp, (DOMAIN + 1.0, 5.0)).result(10)
        with pytest.raises(ValueError, match="unknown structure"):
            eng.submit_window(fp, [0, 0, 9, 9], structure="btree")
        assert_unpinned(eng)

        # resolved groups (queued by flush and drained), and a group whose
        # only probe was cancelled by its timed-out waiter: flush()
        # still waits for that group to settle.  The waiter's kick finds
        # the engine busy, so its group stays parked past the timeout
        with held_busy(eng, fp):
            with pytest.raises(FutureTimeoutError):
                eng.window(fp, [0, 0, 200, 200], exact=False, timeout=0.01)
        futs = wave(eng, fp, rng)
        eng.flush()
        assert all(f.exception(10) is None for f in futs)
        assert_unpinned(eng)

        eng.close()                             # refused at submit
        fut = eng.submit_window(fp, [0, 0, 100, 100])
        assert isinstance(fut.exception(10), RejectedError)
        assert_unpinned(eng)


def test_groups_the_executor_refuses_release_their_pins():
    rng = np.random.default_rng(4)
    with SpatialQueryEngine(workers=1, queue_depth=1, max_batch=8,
                            max_wait=60.0) as eng:
        fp = eng.register(segments(3), domain=DOMAIN)
        release, started = threading.Event(), threading.Event()
        # the one worker parked, the one queue slot taken
        eng._executor.submit(lambda m: (started.set(), release.wait(30)))
        started.wait(10)
        try:
            eng._executor.submit(lambda m: None)
            futs = wave(eng, fp, rng, n=3)
            eng.flush()
            assert all(isinstance(f.exception(10), RejectedError)
                       for f in futs)
        finally:
            release.set()
        assert_unpinned(eng)


def test_brute_fallback_groups_release_their_pins():
    plan = FaultPlan(specs=(
        FaultSpec(site="registry.get", kind="error"),))   # never heals
    lines = segments(4)
    rng = np.random.default_rng(5)
    with SpatialQueryEngine(fault_plan=plan, workers=2, max_batch=4,
                            max_wait=60.0, breaker_threshold=1,
                            breaker_reset=30.0, brute_fallback=True) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        # the first group trips the breaker and is re-issued brute
        # force; later probes are served brute force one at a time
        futs = [eng.submit_window(fp, [x, y, x + 80, y + 80])
                for x, y in rng.uniform(0, DOMAIN - 80, (7, 2))]
        eng.flush()
        assert all(f.exception(10) is None for f in futs)
        assert eng.snapshot()["fallbacks"] == len(futs)
        rect = np.array([0.0, 0.0, 300.0, 300.0])
        assert np.array_equal(np.sort(eng.window(fp, rect)),
                              np.sort(brute_window_query(lines, rect)))
        assert_unpinned(eng)


def test_a_retired_version_goes_with_its_last_read():
    """Reads in flight across a commit pin the version they bound to;
    with one version retained it is collected once they settle."""
    rng = np.random.default_rng(7)
    lines = segments(6)
    with SpatialQueryEngine(max_batch=64, max_wait=60.0,
                            versions_retained=1) as eng:
        old = eng.register(lines, domain=DOMAIN)
        futs = wave(eng, old, rng)
        new = eng.insert_lines(old, DOMAIN - lines[:4])
        assert all(f.exception(10) is None for f in futs)
        assert_unpinned(eng)
        assert old not in eng.registry._datasets
        assert new in eng.registry._datasets
