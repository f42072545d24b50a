"""Engine semantics: scalar equivalence, coalescing, rejection paths."""

import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.baselines.brute import (brute_nearest, brute_point_query,
                                   brute_window_query)
from repro.engine import EngineConfig, RejectedError, SpatialQueryEngine
from repro.geometry import random_segments
from repro.structures import (
    brute_join,
    build_bucket_pmr,
    build_pm1,
    build_rtree,
)

DOMAIN = 512
STRUCTURES = ("pmr", "pm1", "rtree")


def windows(k, seed):
    rng = np.random.default_rng(seed)
    r = np.zeros((k, 4))
    r[:, 0] = rng.uniform(0, 400, k)
    r[:, 1] = rng.uniform(0, 400, k)
    r[:, 2] = r[:, 0] + rng.uniform(8, 112, k)
    r[:, 3] = r[:, 1] + rng.uniform(8, 112, k)
    return np.minimum(r, DOMAIN)


def points(k, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, DOMAIN, k),
                            rng.uniform(0, DOMAIN, k)])


def scalar_tree(structure, lines):
    if structure == "pmr":
        tree, _ = build_bucket_pmr(lines, DOMAIN, 8)
    elif structure == "pm1":
        tree, _ = build_pm1(lines, DOMAIN)
    else:
        tree, _ = build_rtree(lines, 2, 8)
    return tree


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_results_identical_to_scalar(structure, seed):
    """Property: over seeded random maps, the engine answers every probe
    kind exactly as the scalar query loop does."""
    lines = np.unique(random_segments(120, DOMAIN, 48, seed=seed), axis=0)
    tree = scalar_tree(structure, lines)
    rects = windows(25, seed + 100)
    pts = points(25, seed + 200)
    with SpatialQueryEngine(structure=structure, max_batch=16,
                            max_wait=0.5, workers=2) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        w_futs = [eng.submit_window(fp, r) for r in rects]
        p_futs = [eng.submit_point(fp, p) for p in pts]
        n_futs = [eng.submit_nearest(fp, p) for p in pts]
        eng.flush()
        for i, r in enumerate(rects):
            want = np.unique(tree.window_query(r))
            assert np.array_equal(w_futs[i].result(10), want)
        for i, (x, y) in enumerate(pts):
            # the engine's point contract is decomposition-independent
            # stabbing (degenerate exact window), not the structure's
            # native leaf-candidate set
            want = brute_point_query(lines, x, y)
            assert np.array_equal(p_futs[i].result(10), want)
        for i, (x, y) in enumerate(pts):
            assert n_futs[i].result(10) == brute_nearest(lines, x, y)


def test_concurrent_clients_get_consistent_answers():
    lines = random_segments(200, DOMAIN, 48, seed=5)
    tree = scalar_tree("pmr", lines)
    rects = windows(120, 6)
    results = [None] * len(rects)
    with SpatialQueryEngine(max_batch=32, max_wait=0.002, workers=4) as eng:
        fp = eng.register(lines, domain=DOMAIN)

        def client(lo, hi):
            for i in range(lo, hi):
                results[i] = eng.window(fp, rects[i], timeout=30)

        threads = [threading.Thread(target=client, args=(c * 30, (c + 1) * 30))
                   for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = eng.snapshot()
    for i, r in enumerate(rects):
        assert np.array_equal(results[i], np.unique(tree.window_query(r)))
    assert snap["completed"] == len(rects)
    assert snap["batches"] >= 1


def test_join_probe_matches_brute_force():
    a = random_segments(80, DOMAIN, 48, seed=7)
    b = random_segments(80, DOMAIN, 48, seed=8)
    with SpatialQueryEngine(structure="rtree") as eng:
        fa = eng.register(a, domain=DOMAIN)
        fb = eng.register(b, domain=DOMAIN)
        pairs = eng.join(fa, fb, timeout=30)
    assert np.array_equal(pairs, brute_join(a, b))


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_join_of_maps_with_different_domains(structure, shards):
    """Two maps registered over different domains join on every
    structure, plain and sharded, exactly as brute force."""
    a = random_segments(300, 256, 16, seed=1)
    b = random_segments(300, 1024, 16, seed=2)
    with SpatialQueryEngine(structure=structure, shards=shards) as eng:
        fa = eng.register(a)
        fb = eng.register(b)
        pairs = eng.join(fa, fb, timeout=60)
    assert np.array_equal(pairs, brute_join(a, b))
    assert pairs.shape[0] > 0


def test_cache_hits_across_batches():
    lines = random_segments(100, DOMAIN, 48, seed=9)
    with SpatialQueryEngine(max_batch=4, max_wait=0.5) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        for r in windows(8, 10):
            eng.window(fp, r, timeout=30)
        snap = eng.snapshot()
    assert snap["cache"]["hit_rate"] > 0.5
    assert snap["cache"]["misses"] == 1


def test_a_blocking_call_on_an_idle_engine_does_not_wait_out_max_wait():
    """The sync helpers kick before they block: a lone window on an
    idle engine is dispatched at once, not after the 60 s deadline."""
    lines = random_segments(100, DOMAIN, 48, seed=9)
    rect = np.array([0.0, 0.0, 200.0, 200.0])
    with SpatialQueryEngine(max_batch=64, max_wait=60.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        t0 = time.monotonic()
        got = eng.window(fp, rect, timeout=30)
        assert time.monotonic() - t0 < 1.0
        assert eng.snapshot()["flushes"] == {"kick": 1}
    assert np.array_equal(got, np.unique(
        scalar_tree("pmr", lines).window_query(rect)))


def test_kicks_from_many_threads_never_strand_a_group():
    """A kick that finds the engine busy only marks its group, so the
    settle that empties the engine must see the mark.  Eight blocking
    callers on four workers, under a tiny switch interval: a lost drain
    strands a call for the whole 60 s window and trips its timeout."""
    lines = random_segments(100, DOMAIN, 48, seed=9)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with SpatialQueryEngine(workers=4, max_batch=64,
                                max_wait=60.0) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            errors = []

            def caller(i):
                try:
                    for r in windows(25, 100 + i):
                        eng.window(fp, r, timeout=20)
                except Exception as exc:   # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            snap = eng.snapshot()
    finally:
        sys.setswitchinterval(old)
    assert snap["completed"] == 8 * 25
    assert set(snap["flushes"]) <= {"kick", "drain"}


def test_versioning_after_dynamic_insert_serves_fresh_results():
    lines = random_segments(60, DOMAIN, 48, seed=11)
    extra = np.array([[5.0, 5.0, 60.0, 60.0]])
    rect = np.array([0.0, 0.0, 80.0, 80.0])
    with SpatialQueryEngine(max_batch=1) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        before = eng.window(fp, rect, timeout=30)
        fp2 = eng.insert_lines(fp, extra)
        after = eng.window(fp2, rect, timeout=30)
        # MVCC: new reads through the OLD handle also serve the latest
        assert np.array_equal(eng.window(fp, rect, timeout=30), after)
        assert eng.registry.resolve(fp).fingerprint == fp2
    combined = np.vstack([lines, extra])
    tree = scalar_tree("pmr", combined)
    assert np.array_equal(after, np.unique(tree.window_query(rect)))
    # the new id space includes the inserted line
    assert combined.shape[0] - 1 in after.tolist()
    assert combined.shape[0] - 1 not in before.tolist()


def test_point_outside_domain_fails_only_that_probe():
    lines = random_segments(60, DOMAIN, 48, seed=12)
    with SpatialQueryEngine(max_batch=4, max_wait=0.5) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        bad = eng.submit_point(fp, (DOMAIN + 100.0, 5.0))
        good = eng.submit_point(fp, (5.0, 5.0))
        eng.flush()
        with pytest.raises(ValueError, match="outside the domain"):
            bad.result(10)
        assert np.array_equal(good.result(10),
                              brute_point_query(lines, 5.0, 5.0))


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("structure", ["pmr", "rtree"])
def test_unanswerable_nearest_fails_only_its_own_probe(structure, shards):
    """Every exact probe of an index shares one wave, so a nearest probe
    its wave core cannot answer -- on an empty map, or at a NaN or
    infinite point -- is refused at submit: the windows and points of
    its burst still resolve, and the index's breaker is not fed."""
    lines = random_segments(60, DOMAIN, 48, seed=12)
    rect, pt = [0.0, 0.0, 300.0, 300.0], (5.0, 5.0)
    with SpatialQueryEngine(structure=structure, shards=shards, max_batch=8,
                            max_wait=60.0, breaker_threshold=1) as eng:
        empty = eng.register(np.zeros((0, 4)), domain=DOMAIN)
        full = eng.register(lines, domain=DOMAIN)
        cases = [(empty, (5.0, 5.0)), (full, (np.nan, 5.0)),
                 (full, (np.inf, 5.0)), (full, (5.0, -np.inf))]
        for fp, bad in cases:
            want = eng.registry.dataset(fp)
            futs = [eng.submit_window(fp, rect), eng.submit_nearest(fp, bad),
                    eng.submit_point(fp, pt)]
            good = eng.submit_nearest(fp, (40.0, 40.0)) if want.size else None
            eng.flush()
            assert np.array_equal(futs[0].result(10),
                                  brute_window_query(want, rect))
            assert np.array_equal(futs[2].result(10),
                                  brute_point_query(want, *pt))
            with pytest.raises(ValueError, match="no nearest line"):
                futs[1].result(10)
            if good is not None:
                assert good.result(10) == brute_nearest(want, 40.0, 40.0)
        assert all(b["state"] == "closed" and not b["consecutive_failures"]
                   for b in eng.health()["breakers"].values())
        assert eng.snapshot()["failed"] == len(cases)


class TestRejectionPaths:
    def _blocked_engine(self, queue_depth=1):
        """Engine whose single worker is parked on an event we control."""
        eng = SpatialQueryEngine(workers=1, queue_depth=queue_depth,
                                 max_batch=1, max_wait=0.0)
        release = threading.Event()
        started = threading.Event()

        def block(machine):
            started.set()
            release.wait(timeout=30)

        eng._executor.submit(block)
        started.wait(timeout=10)
        return eng, release

    def test_per_request_timeout(self):
        lines = random_segments(30, DOMAIN, 48, seed=13)
        eng, release = self._blocked_engine(queue_depth=8)
        try:
            fp = eng.register(lines, domain=DOMAIN)
            with pytest.raises(FutureTimeoutError):
                eng.window(fp, [0, 0, 50, 50], timeout=0.05)
            assert eng.snapshot()["timeouts"] == 1
        finally:
            release.set()
            eng.close()

    def test_backpressure_rejects_with_reason(self):
        lines = random_segments(30, DOMAIN, 48, seed=14)
        eng, release = self._blocked_engine(queue_depth=1)
        try:
            fp = eng.register(lines, domain=DOMAIN)
            # worker blocked; one batch fits the queue, the next must be
            # rejected with an explanation rather than queued unboundedly
            f1 = eng.submit_window(fp, [0, 0, 50, 50])
            f2 = eng.submit_window(fp, [0, 0, 60, 60])
            rejected = None
            for f in (f1, f2):
                try:
                    exc = f.exception(timeout=1)
                except FutureTimeoutError:
                    continue
                if exc is not None:
                    rejected = exc
            assert isinstance(rejected, RejectedError)
            assert rejected.reason == "queue_full"
            assert "queue full" in str(rejected)
            snap = eng.snapshot()
            assert snap["rejected_total"] == 1
            # the transient rejection was retried with backoff first
            assert snap["retries"].get("executor.submit", 0) >= 1
        finally:
            release.set()
            eng.close()

    def test_closed_engine_rejects_new_probes(self):
        lines = random_segments(30, DOMAIN, 48, seed=15)
        eng = SpatialQueryEngine(max_batch=4)
        fp = eng.register(lines, domain=DOMAIN)
        eng.close()
        fut = eng.submit_window(fp, [0, 0, 50, 50])
        assert isinstance(fut.exception(timeout=1), RejectedError)


class TestConfig:
    def test_unknown_structure_rejected(self):
        with pytest.raises(ValueError, match="unknown structure"):
            EngineConfig(structure="btree")

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            SpatialQueryEngine(EngineConfig(), workers=2)

    def test_unknown_fingerprint_rejected_at_submit(self):
        with SpatialQueryEngine() as eng:
            with pytest.raises(KeyError):
                eng.submit_window("beefcafe", [0, 0, 1, 1])
