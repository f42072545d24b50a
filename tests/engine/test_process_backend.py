"""Process-pool backend: config surface, warm path, crashes, lifecycle.

The fast cells exercise pure in-process surfaces -- config validation,
picklability of the job protocol, the read-only store contract, the
injector's ``only_kinds`` split -- and stay in tier-1.  The
``slow``-marked cells each spin up a real process pool (forkserver or
spawn, ~seconds apiece) and run in CI's process-backend job: dataset
shipping, store warm start, spill-once close, and the two crash
stories (budgeted crashes recover; persistent crashes trip the breaker
without ever hanging a batch).
"""

import pickle

import numpy as np
import pytest

from repro.baselines.brute import brute_window_query
from repro.engine import (CircuitOpenError, EngineConfig, EngineError,
                          IndexRef, JobSpec, NeedDataset, SpatialQueryEngine,
                          WorkerCrashError)
from repro.geometry import random_segments
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.store import IndexStore
from repro.structures import (brute_join, brute_nearest, build_bucket_pmr,
                              sharded)

DOMAIN = 512


def windows(k, seed):
    rng = np.random.default_rng(seed)
    r = np.zeros((k, 4))
    r[:, 0] = rng.uniform(0, 400, k)
    r[:, 1] = rng.uniform(0, 400, k)
    r[:, 2] = r[:, 0] + rng.uniform(8, 112, k)
    r[:, 3] = r[:, 1] + rng.uniform(8, 112, k)
    return np.minimum(r, DOMAIN)


def make_engine(backend, **kw):
    kw.setdefault("structure", "pmr")
    kw.setdefault("max_batch", 64)
    kw.setdefault("max_wait", 0.3)
    kw.setdefault("workers", 2)
    return SpatialQueryEngine(executor=backend, **kw)


# -- fast: config + protocol surfaces (no pool) --------------------------


def test_config_rejects_unknown_executor():
    with pytest.raises(ValueError):
        EngineConfig(executor="fibers")


def test_config_accepts_process_with_spawn():
    cfg = EngineConfig(executor="process")
    assert cfg.executor == "process"


def test_jobspec_roundtrips_through_pickle():
    ref = IndexRef("a" * 16, "pmr", (("capacity", 8),), DOMAIN)
    spec = JobSpec(op="batch", kind="window", index=ref,
                   payloads=np.zeros((2, 4)))
    back = pickle.loads(pickle.dumps(spec))
    assert back.op == "batch" and back.index == ref
    assert np.array_equal(back.payloads, spec.payloads)


def test_needdataset_roundtrips_through_pickle():
    exc = pickle.loads(pickle.dumps(NeedDataset(("f1", "f2"))))
    assert exc.fingerprints == ("f1", "f2")


def test_readonly_store_refuses_writes(tmp_path):
    store = IndexStore(tmp_path, readonly=True)
    with pytest.raises(RuntimeError):
        store.put(None, None)


def test_fire_only_kinds_skips_without_counting_arrival():
    """A skipped spec must not consume an arrival, or the parent's and
    the workers' split evaluation would double-count the schedule."""
    plan = FaultPlan(specs=(
        FaultSpec(site="executor.job", kind="latency", delay=0.0),), seed=1)
    inj = FaultInjector(plan)
    inj.fire("executor.job", only_kinds=("error", "crash"))
    assert inj.snapshot()["specs"][0]["arrivals"] == 0
    inj.fire("executor.job")
    assert inj.snapshot()["specs"][0]["arrivals"] == 1


# -- slow: real process pools --------------------------------------------


@pytest.mark.slow
def test_join_identical_across_backends():
    a = np.unique(random_segments(80, DOMAIN, 64, seed=3), axis=0)
    b = np.unique(random_segments(80, DOMAIN, 64, seed=4), axis=0)
    want = brute_join(a, b)
    got = {}
    for backend in ("thread", "process"):
        with make_engine(backend) as eng:
            fa = eng.register(a, domain=DOMAIN)
            fb = eng.register(b, domain=DOMAIN)
            futs = [eng.submit_join(fa, fb), eng.submit_join(fb, fa),
                    eng.submit_join(fa, fa)]
            eng.flush()
            got[backend] = [f.result(120) for f in futs]
            assert eng.snapshot()["batches"] >= 1
    assert np.array_equal(got["process"][0], want)
    for t, p in zip(got["thread"], got["process"]):
        assert np.array_equal(t, p)


@pytest.mark.slow
def test_dataset_ships_once_per_worker():
    """Which pool worker picks up a job -- including the resubmit that
    carries the snapshot -- is the scheduler's choice, so only counts
    that hold under every schedule are asserted: a lone worker is
    shipped the dataset exactly once however many waves run; with two
    workers a job ships at most once (the snapshot rides its resubmit),
    and every ship is accounted at the dataset's exact byte size."""
    lines = np.unique(random_segments(100, DOMAIN, 64, seed=5), axis=0)
    rects = windows(12, 6)
    for workers in (1, 2):
        # arena off: this cell is about the pipe-shipping path (with the
        # arena on nothing ships and workers warm-load, never cold-build)
        with make_engine("process", workers=workers,
                         shm_budget_bytes=0) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            for _ in range(3):
                futs = [eng.submit_window(fp, r) for r in rects]
                eng.flush()
                for f in futs:
                    f.result(120)
            ex = eng.health()["executor"]
        if workers == 1:
            assert ex["datasets_shipped"] == 1
        assert 1 <= ex["datasets_shipped"] <= ex["ipc_jobs"]
        assert ex["dataset_ship_bytes"] == ex["datasets_shipped"] * lines.nbytes
        assert ex["worker_cold_builds"] >= 1
        assert ex["ipc_bytes_sent"] > 0 and ex["ipc_bytes_received"] > 0


@pytest.mark.slow
def test_warm_start_from_store_and_spill_once(tmp_path):
    lines = np.unique(random_segments(100, DOMAIN, 64, seed=7), axis=0)
    rects = windows(10, 8)
    tree, _ = build_bucket_pmr(lines, DOMAIN, 8)
    want = [np.unique(tree.window_query(r)) for r in rects]

    eng = make_engine("process", cache_dir=str(tmp_path))
    with eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        futs = [eng.submit_window(fp, r) for r in rects]
        eng.flush()
        for f, w in zip(futs, want):
            assert np.array_equal(f.result(120), w)
    eng.close()   # idempotent: the second close is a no-op
    # the parent is the only writer: exactly one spill of the one index
    assert len(IndexStore(tmp_path).entries()) == 1

    with make_engine("process", cache_dir=str(tmp_path)) as eng2:
        fp = eng2.register(lines, domain=DOMAIN)
        eng2.warm(fp)
        futs = [eng2.submit_window(fp, r) for r in rects]
        eng2.flush()
        for f, w in zip(futs, want):
            assert np.array_equal(f.result(120), w)
        ex = eng2.health()["executor"]
        assert ex["worker_warm_loads"] >= 1
        assert ex["datasets_shipped"] == 0
        assert ex["worker_cold_builds"] == 0
    assert len(IndexStore(tmp_path).entries()) == 1


@pytest.mark.slow
def test_declined_sharded_commit_builds_once(monkeypatch):
    """An insert that grows the domain declines the shard repair.  With
    no worker-visible tier (arena off, no store) the commit still pays
    exactly one canonical build, served untagged, and its workers
    answer it like the brute oracle."""
    lines = np.unique(random_segments(160, DOMAIN, 64, seed=15), axis=0)
    row = np.array([[10.0, 10.0, 900.0, 40.0]])
    new_lines = np.vstack([lines, row])
    rects = windows(8, 16)
    with make_engine("process", shards=4, shm_budget_bytes=0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        builds = []
        real = sharded.build_sharded
        monkeypatch.setattr(sharded, "build_sharded",
                            lambda *a, **k: builds.append(1) or real(*a, **k))
        fut = eng.submit_insert(fp, row)
        eng.flush()
        result = fut.result(120)
        assert len(builds) == 1 and result.repair is None
        entry = eng.registry.peek(eng._index_key(result.fingerprint, None))
        assert entry.repaired_from is None
        snap = eng.snapshot()
        assert snap["cache"]["repair_full_rebuilds"] == 1
        assert snap["cache"]["repairs"] == 0 and snap["repaired_builds"] == 0
        futs = [eng.submit_window(fp, r) for r in rects]
        eng.flush()
        for f, r in zip(futs, rects):
            assert np.array_equal(f.result(120),
                                  brute_window_query(new_lines, r))


@pytest.mark.slow
def test_worker_crash_retried_to_success():
    """The workercrash plan kills two jobs' workers mid-batch; retries
    and pool restarts recover every probe bit-identically."""
    plan = FaultPlan(specs=(
        FaultSpec(site="executor.job", kind="crash", times=2),), seed=7)
    lines = np.unique(random_segments(100, DOMAIN, 64, seed=9), axis=0)
    tree, _ = build_bucket_pmr(lines, DOMAIN, 8)
    rects = windows(10, 10)
    pts = np.random.default_rng(11).uniform(0, DOMAIN, (6, 2))
    with make_engine("process", fault_plan=plan,
                     breaker_threshold=10) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        w = [eng.submit_window(fp, r) for r in rects]
        n = [eng.submit_nearest(fp, p) for p in pts]
        eng.flush()
        for f, r in zip(w, rects):
            assert np.array_equal(f.result(180),
                                  np.unique(tree.window_query(r)))
        for f, (px, py) in zip(n, pts):
            gid, d = f.result(180)
            bid, bd = brute_nearest(lines, px, py)
            assert (gid, d) == (bid, pytest.approx(bd))
        health = eng.health()
        assert health["executor"]["restarts"] >= 1
        assert sum(health["retries"].values()) >= 1
        snap = eng.snapshot()
        assert snap["faults_injected"].get("executor.job", 0) == 2


@pytest.mark.slow
def test_persistent_crashes_trip_breaker_without_hanging():
    """Unlimited crash faults: every attempt dies, so batches must fail
    fast (crash-retry exhaustion or open breaker) -- never hang."""
    plan = FaultPlan(specs=(
        FaultSpec(site="executor.job", kind="crash"),), seed=7)
    lines = np.unique(random_segments(60, DOMAIN, 64, seed=13), axis=0)
    rects = windows(6, 14)
    with make_engine("process", fault_plan=plan, breaker_threshold=2,
                     max_batch=2, max_wait=0.05) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        futs = [eng.submit_window(fp, r) for r in rects]
        eng.flush()
        outcomes = []
        for f in futs:
            with pytest.raises(EngineError) as err:
                f.result(300)
            outcomes.append(type(err.value))
        assert any(issubclass(t, (WorkerCrashError, CircuitOpenError))
                   for t in outcomes)
        health = eng.health()
        assert health["status"] == "degraded"
        assert health["breaker_trips"] >= 1
