"""Where a group's job runs: a kicked read group whose index is in
memory on the thread that kicked it, every other flush on the
executor's pool.

A kick flushes only an idle engine, so the kicking thread runs the
batch itself (``BoundedExecutor.run``) instead of handing it to a pool
thread.  Waiting on a probe's future kicks, so a wave submitted and
then awaited runs on the thread that awaits it.  The ``ran`` counter
row says where each job ran.  A drained
group goes to the pool: the settle that drains it runs on the kicking
thread, so a drain run there would keep a caller whose answer is ready
running other threads' batches, and would nest one run in another's
settle.
"""

import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.baselines.brute import brute_point_query, brute_window_query
from repro.engine import BoundedExecutor, SpatialQueryEngine
from repro.engine import engine as engine_mod
from repro.geometry import random_segments
from repro.baselines import brute_nearest

DOMAIN = 512


def segments(seed=1, n=160):
    return np.unique(random_segments(n, DOMAIN, 48, seed=seed), axis=0)


def rects(k, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, DOMAIN - 96, (k, 2))
    return np.hstack([lo, lo + rng.uniform(8, 96, (k, 2))])


@pytest.fixture
def kernel_threads(monkeypatch):
    """The thread ident of every job the engine interprets."""
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

        # a wave awaited with result() runs on the waiting thread too,
        # cut into jobs of at most max_batch (4 + 4 + 1)
        futs = [eng.submit_window(fp, r) for r in rects(9, 2)]
        assert eng.snapshot()["flushes"] == {"kick": 1}   # no count flush
        assert [f.result(10).tolist() for f in futs] \
            == [brute_window_query(lines, r).tolist() for r in rects(9, 2)]
        snap = eng.snapshot()
        assert snap["ran"] == {"caller": 4}
        assert snap["flushes"] == {"kick": 4}
        assert kernel_threads == [threading.get_ident()] * 4

        # a flushed group goes to the pool
        futs = [eng.submit_window(fp, r) for r in rects(4, 3)]
        eng.flush()
        assert [f.result(10).tolist() for f in futs] \
            == [brute_window_query(lines, r).tolist() for r in rects(4, 3)]
        snap = eng.snapshot()
        assert snap["ran"] == {"caller": 4, "pool": 1}
        assert snap["flushes"] == {"kick": 4, "flush": 1}
        assert kernel_threads[4] != threading.get_ident()
        assert eng.health()["ran"] == {"caller": 4, "pool": 1}

        # a kicked group whose index is not built yet builds on the pool
        got = eng.window(fp, rect, structure="rtree")
        assert eng.snapshot()["ran"] == {"caller": 4, "pool": 2}
        assert kernel_threads[5] != threading.get_ident()
        np.testing.assert_array_equal(
            got, brute_window_query(lines, rect))


def test_a_waited_wave_runs_on_the_waiting_thread(kernel_threads):
    """256 probes submitted, then awaited with ``result()``: the first
    wait kicks the idle engine, and every job of the wave -- its one
    group (windows, points and nearest probes on one index) cut into
    jobs of at most ``max_batch`` -- runs on this thread.  A 60 s
    ``max_wait`` leaves the kick as the only trigger."""
    lines = segments(seed=9, n=400)
    boxes = rects(100, 10)
    pts = lines[np.random.default_rng(11).integers(0, len(lines), 156),
                :2]
    with SpatialQueryEngine(workers=2, max_batch=64,
                            max_wait=60.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        t0 = time.monotonic()
        windows = [eng.submit_window(fp, r) for r in boxes]
        points = [eng.submit_point(fp, p) for p in pts[:100]]
        nearest = [eng.submit_nearest(fp, p) for p in pts[100:]]
        got = [f.result(30) for f in windows + points + nearest]
        assert time.monotonic() - t0 < 1.0
        snap = eng.snapshot()
    k = 4   # 100 windows, 100 points and 56 nearest: 256 at 64 a job
    assert snap["ran"] == {"caller": k}
    assert snap["flushes"] == {"kick": k}
    assert kernel_threads == [threading.get_ident()] * k
    for r, hits in zip(boxes, got[:100]):
        assert hits.tolist() == brute_window_query(lines, r).tolist()
    for (px, py), hits in zip(pts[:100], got[100:200]):
        assert hits.tolist() == brute_point_query(lines, px, py).tolist()
    for (px, py), (gid, d) in zip(pts[100:], got[200:]):
        bid, bd = brute_nearest(lines, px, py)
        assert (gid, d) == (bid, pytest.approx(bd))


def test_exception_kicks_too():
    lines = segments(seed=12)
    rect = [30.0, 30.0, 200.0, 200.0]
    with SpatialQueryEngine(workers=2, max_wait=60.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        fut = eng.submit_window(fp, rect)
        assert fut.exception(10) is None
        assert eng.snapshot()["ran"] == {"caller": 1}
        np.testing.assert_array_equal(fut.result(),
                                      brute_window_query(lines, rect))


def test_a_probe_nobody_waits_on_leaves_by_deadline():
    """Neither a done callback nor ``concurrent.futures.wait`` kicks:
    such a probe leaves by its deadline, on the pool."""
    lines = segments(seed=13)
    rect = [10.0, 10.0, 250.0, 250.0]
    want = brute_window_query(lines, rect).tolist()
    with SpatialQueryEngine(workers=2, max_wait=0.01) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        called = threading.Event()
        watched = eng.submit_window(fp, rect)
        watched.add_done_callback(lambda f: called.set())
        assert called.wait(10)
        waited = eng.submit_window(fp, rect)
        done, _ = wait([waited], timeout=10)
        assert done == {waited}
        assert watched.result().tolist() == want
        assert waited.result().tolist() == want
        snap = eng.snapshot()
    assert snap["flushes"] == {"deadline": 2}
    assert snap["ran"] == {"pool": 2}


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
    nested in that settle, deeper on the caller's stack than a kick; a
    settle attached to a job's future after the job finished would run
    on the submitting thread, and dispatch its drain one level deeper
    there."""
    depths, drains = [], []
    interpret = engine_mod.interpret
    dispatch = SpatialQueryEngine._dispatch

    def depth():
        n, frame = 0, sys._getframe()
        while frame is not None:
            n, frame = n + 1, frame.f_back
        return threading.current_thread().name, n

    def measured(*args, **kw):
        depths.append(depth())
        return interpret(*args, **kw)

    def measured_dispatch(self, key, probes, why):
        if why == "drain":
            drains.append(depth())
        return dispatch(self, key, probes, why)

    def slow_submit(self, fn, fut=None):
        # widen the window between enqueue and return, in which a
        # settle attached late would find its job already finished
        fut = submit(self, fn, fut)
        time.sleep(0.001)
        return fut

    submit = BoundedExecutor.submit
    monkeypatch.setattr(engine_mod, "interpret", measured)
    monkeypatch.setattr(SpatialQueryEngine, "_dispatch", measured_dispatch)
    monkeypatch.setattr(BoundedExecutor, "submit", slow_submit)
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
    # a drain is dispatched from a settle: at one depth on the pool
    # (after a pool job) and one on a caller (after its kicked job)
    for pool in (True, False):
        at = {d for name, d in drains
              if name.startswith("repro-engine-") == pool}
        assert len(at) <= 1, (pool, sorted(at))


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
