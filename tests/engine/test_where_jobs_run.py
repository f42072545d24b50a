"""Where a group's job runs: a kicked read group whose index is in
memory on the thread that kicked it, every other flush on the
executor's pool.

A kick flushes only an idle engine, so the kicking thread runs the
batch itself (``BoundedExecutor.run``) instead of handing it to a pool
thread.  The ``ran`` counter row says where each job ran.  A drained
group goes to the pool: the settle that drains it runs on the kicking
thread, so a drain run there would keep a caller whose answer is ready
running other threads' batches, and would nest one run in another's
settle.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines.brute import brute_window_query
from repro.engine import SpatialQueryEngine
from repro.engine import engine as engine_mod
from repro.geometry import random_segments

DOMAIN = 512


def segments(seed=1, n=160):
    return np.unique(random_segments(n, DOMAIN, 48, seed=seed), axis=0)


def rects(k, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, DOMAIN - 96, (k, 2))
    return np.hstack([lo, lo + rng.uniform(8, 96, (k, 2))])


@pytest.fixture
def kernel_threads(monkeypatch):
    """The thread ident of every job the thread backend interprets."""
    seen = []
    interpret = engine_mod.interpret

    def recording(*args, **kw):
        seen.append(threading.get_ident())
        return interpret(*args, **kw)

    monkeypatch.setattr(engine_mod, "interpret", recording)
    return seen


def test_a_blocking_call_runs_its_kernel_on_the_caller(kernel_threads):
    lines = segments()
    rect = [40.0, 40.0, 300.0, 260.0]
    with SpatialQueryEngine(workers=2, max_batch=4, max_wait=60.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        got = eng.window(fp, rect)
        snap = eng.snapshot()
        assert snap["ran"] == {"caller": 1}
        assert snap["flushes"] == {"kick": 1}
        assert kernel_threads == [threading.get_ident()]
        np.testing.assert_array_equal(
            got, brute_window_query(lines, rect))

        # a count-triggered group goes to the pool
        futs = [eng.submit_window(fp, r) for r in rects(4, 2)]
        assert [f.result(10).tolist() for f in futs] \
            == [brute_window_query(lines, r).tolist() for r in rects(4, 2)]
        snap = eng.snapshot()
        assert snap["ran"] == {"caller": 1, "pool": 1}
        assert snap["flushes"] == {"kick": 1, "count": 1}
        assert kernel_threads[1] != threading.get_ident()
        assert eng.health()["ran"] == {"caller": 1, "pool": 1}

        # a kicked group whose index is not built yet builds on the pool
        got = eng.window(fp, rect, structure="rtree")
        assert eng.snapshot()["ran"] == {"caller": 1, "pool": 2}
        assert kernel_threads[2] != threading.get_ident()
        np.testing.assert_array_equal(
            got, brute_window_query(lines, rect))


def hammer(eng, fp, boxes, want, threads, calls, errors, block=True):
    """Start ``threads`` threads of ``calls`` windows each: blocking
    calls, or (``block=False``) a submit and a kick per window with up
    to 16 answers outstanding, so the thread kicks while its own
    groups run."""
    def caller(t):
        try:
            futs = []
            for i in range(calls):
                j = (t * calls + i) % len(boxes)
                if block:
                    assert eng.window(fp, boxes[j]).tolist() == want[j]
                    continue
                futs.append((j, eng.submit_window(fp, boxes[j])))
                eng.kick()
                while len(futs) > (16 if i + 1 < calls else 0):
                    j, fut = futs.pop(0)
                    assert fut.result(30).tolist() == want[j]
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    started = [threading.Thread(target=caller, args=(t,))
               for t in range(threads)]
    for t in started:
        t.start()
    return started


def test_drains_go_to_the_pool_and_the_stack_stays_flat(monkeypatch):
    """8 blocking threads x 200 calls: each kick while a group runs only
    marks, and the settle that leaves the engine idle drains the marked
    groups to the pool.  A huge ``max_wait`` and ``max_batch`` leave
    kick and drain as the only triggers, so a lost drain would hang the
    calls.  A drain run on the settling thread would run its kernel
    nested in that settle, deeper on the caller's stack than a kick."""
    depths = []
    interpret = engine_mod.interpret

    def measured(*args, **kw):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        depths.append((threading.current_thread().name, depth))
        return interpret(*args, **kw)

    monkeypatch.setattr(engine_mod, "interpret", measured)
    lines = segments(seed=4)
    boxes = rects(16, 5)
    want = [brute_window_query(lines, r).tolist() for r in boxes]
    errors = []
    with SpatialQueryEngine(workers=2, max_batch=4096,
                            max_wait=60.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)   # more interleavings per call
        try:
            threads = hammer(eng, fp, boxes, want, 8, 200, errors)
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        snap = eng.snapshot()
    assert snap["completed"] == 1600
    assert set(snap["flushes"]) == {"kick", "drain"}
    assert snap["flushes"]["drain"] >= 20
    assert snap["ran"] == {"caller": snap["flushes"]["kick"],
                           "pool": snap["flushes"]["drain"]}
    # a caller runs kernels only at its blocking call's kick: one depth
    callers = {d for name, d in depths
               if not name.startswith("repro-engine-")}
    assert len(callers) == 1, sorted(callers)


def test_a_blocking_caller_runs_only_its_own_kick(kernel_threads):
    """While six threads keep submitting and kicking, each of this
    thread's blocking calls runs at most its own kick's one group here
    and returns within its timeout: groups marked by the others leave
    on drains, to the pool, so this thread never goes on running other
    callers' batches after its answer is ready."""
    lines = segments(seed=7)
    boxes = rects(16, 8)
    want = [brute_window_query(lines, r).tolist() for r in boxes]
    errors = []
    me = threading.get_ident()
    with SpatialQueryEngine(workers=2, max_batch=4096,
                            max_wait=60.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)   # more interleavings per call
        threads = hammer(eng, fp, boxes, want, 6, 800, errors,
                         block=False)
        try:
            here = []
            for i in range(500):
                before = kernel_threads.count(me)
                t0 = time.monotonic()
                got = eng.window(fp, boxes[i % 16], timeout=5.0)
                assert time.monotonic() - t0 < 5.0
                assert got.tolist() == want[i % 16]
                here.append(kernel_threads.count(me) - before)
        finally:
            for t in threads:
                t.join(60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        snap = eng.snapshot()
    assert max(here) <= 1, sorted(here)[-5:]
    assert snap["timeouts"] == 0
    assert snap["flushes"].get("drain", 0) >= 1


@pytest.mark.slow
def test_process_backend_kicks_still_go_to_the_pool():
    lines = segments(seed=6)
    rect = [0.0, 0.0, 256.0, 256.0]
    with SpatialQueryEngine(executor="process", workers=1,
                            max_wait=60.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        got = eng.window(fp, rect)
        snap = eng.snapshot()
    np.testing.assert_array_equal(got, brute_window_query(lines, rect))
    assert snap["flushes"] == {"kick": 1}
    assert snap["ran"] == {"pool": 1}
