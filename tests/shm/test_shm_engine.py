"""Shared-memory data plane through the real process pool (all slow).

Five stories -- one per ISSUE-8 acceptance axis, plus the flatness
count that axis 1 exists for:

* zero-copy serving -- with the arena on, no dataset snapshot crosses
  the pool's pipe and answers stay bit-identical to the thread backend;
* ``warm()`` publishes **one** ``ix:`` payload block per fingerprint
  and every worker maps it (no per-worker dataset round trip);
* crash safety -- a worker killed mid-batch leaks nothing: after
  ``engine.close()`` every OS block is unlinked and the resource
  tracker stays silent (run in a subprocess so its stderr is ours to
  assert on);
* honest IPC accounting -- crash resubmits land in ``ipc_bytes_resent``
  and never inflate ``ipc_jobs`` or the per-job ``ipc_bytes_sent``
  gauge across a pool restart;
* flat IPC -- with the arena on, the bytes that cross the pipe per job
  and from a cold start do not grow with the dataset (10k vs. 100k
  segments), because handles are fixed-size.

Three more cells cover the arena's part in commits and eviction: a
repaired sharded index reaches the workers through the arena before
reads flip, an evicted memory-tier entry rehydrates from its published
pages instead of rebuilding, and publishing an index counts no disk hit
(the payload comes from the tree in hand, not the archive just spilled).
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from multiprocessing import shared_memory

import repro
from repro.baselines.brute import brute_window_query
from repro.engine import SpatialQueryEngine
from repro.geometry import random_segments
from repro.resilience import FaultPlan, FaultSpec
from repro.structures import brute_nearest, build_bucket_pmr

DOMAIN = 512
SRC = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))


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


def block_gone(name):
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


@pytest.mark.slow
def test_arena_serving_ships_nothing_and_matches_thread_backend():
    lines = np.unique(random_segments(120, DOMAIN, 64, seed=21), axis=0)
    rects = windows(10, 22)
    pts = np.random.default_rng(23).uniform(0, DOMAIN, (6, 2))
    got = {}
    for backend in ("thread", "process"):
        with make_engine(backend) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            w = [eng.submit_window(fp, r) for r in rects]
            n = [eng.submit_nearest(fp, p) for p in pts]
            eng.flush()
            got[backend] = ([f.result(120) for f in w],
                            [f.result(120) for f in n])
            if backend == "process":
                ex = eng.health()["executor"]
                assert ex["shm"]["enabled"] is True
                assert ex["shm"]["blocks"] >= 2     # ds: + ix:
                assert ex["datasets_shipped"] == 0
                assert ex["dataset_ship_bytes"] == 0
                assert ex["shm_attaches"] >= 2
                names = eng._arena.block_names()
    for tw, pw in zip(*[got[b][0] for b in ("thread", "process")]):
        assert np.array_equal(tw, pw)
    assert got["thread"][1] == got["process"][1]
    # close() unlinked every published block
    assert all(block_gone(nm) for nm in names)


@pytest.mark.slow
def test_budget_zero_disables_arena_and_falls_back_to_shipping():
    lines = np.unique(random_segments(80, DOMAIN, 64, seed=31), axis=0)
    rects = windows(6, 32)
    tree, _ = build_bucket_pmr(lines, DOMAIN, 8)
    with make_engine("process", shm_budget_bytes=0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        futs = [eng.submit_window(fp, r) for r in rects]
        eng.flush()
        for f, r in zip(futs, rects):
            assert np.array_equal(f.result(120),
                                  np.unique(tree.window_query(r)))
        ex = eng.health()["executor"]
        assert ex["shm"] == {"enabled": False}
        assert ex["datasets_shipped"] >= 1
        assert ex["dataset_ship_bytes"] > 0


@pytest.mark.slow
def test_warm_publishes_one_payload_block_per_fingerprint(tmp_path):
    lines = np.unique(random_segments(100, DOMAIN, 64, seed=41), axis=0)
    rects = windows(8, 42)
    with make_engine("process", cache_dir=str(tmp_path)) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        snap = eng.health()["executor"]["shm"]
        ix_tags = [t for t in snap["tags"] if t.startswith("ix:")]
        assert len(ix_tags) == 1         # one block, not one per worker
        eng.warm(fp)                     # idempotent: still one block
        snap = eng.health()["executor"]["shm"]
        assert len([t for t in snap["tags"]
                    if t.startswith("ix:")]) == 1
        assert snap["publishes"] == len(snap["tags"])
        ex = eng.health()["executor"]
        # the warm jobs materialised from the shared payload: no dataset
        # round trip per worker, no cold rebuild
        assert ex["worker_warm_loads"] >= 1
        assert ex["worker_cold_builds"] == 0
        assert ex["datasets_shipped"] == 0
        futs = [eng.submit_window(fp, r) for r in rects]
        eng.flush()
        for f in futs:
            f.result(120)
        ex = eng.health()["executor"]
        assert ex["datasets_shipped"] == 0
        assert ex["shm"]["tags"][ix_tags[0]]["attach_total"] >= 1


CRASH_LEAK_SCRIPT = textwrap.dedent("""
    import numpy as np
    from multiprocessing import shared_memory

    from repro.engine import SpatialQueryEngine
    from repro.geometry import random_segments
    from repro.resilience import FaultPlan, FaultSpec


    def main():
        plan = FaultPlan(specs=(
            FaultSpec(site="executor.job", kind="crash", times=2),), seed=7)
        lines = np.unique(random_segments(100, 512, 64, seed=51), axis=0)
        rng = np.random.default_rng(52)
        rects = np.zeros((10, 4))
        rects[:, 0] = rng.uniform(0, 400, 10)
        rects[:, 1] = rng.uniform(0, 400, 10)
        rects[:, 2] = rects[:, 0] + rng.uniform(8, 112, 10)
        rects[:, 3] = rects[:, 1] + rng.uniform(8, 112, 10)
        eng = SpatialQueryEngine(executor="process", workers=2,
                                 structure="pmr", max_batch=64,
                                 max_wait=0.3, fault_plan=plan,
                                 breaker_threshold=10)
        with eng:
            fp = eng.register(lines, domain=512)
            eng.warm(fp)
            futs = [eng.submit_window(fp, r) for r in rects]
            eng.flush()
            for f in futs:
                f.result(180)
            ex = eng.health()["executor"]
            assert ex["restarts"] >= 1, ex
            names = eng._arena.block_names()
            assert names, "arena published nothing"
        leaked = []
        for nm in names:
            try:
                seg = shared_memory.SharedMemory(name=nm)
            except FileNotFoundError:
                continue
            seg.close()
            leaked.append(nm)
        assert not leaked, leaked
        print("CLEAN", len(names))


    if __name__ == "__main__":
        main()
""")


@pytest.mark.slow
def test_worker_killed_mid_batch_leaks_no_blocks(tmp_path):
    """Satellite 3: SIGKILL'd workers + pool restart, then close() -- every
    block unlinked, zero resource-tracker leak warnings on stderr."""
    script = tmp_path / "crash_leak.py"
    script.write_text(CRASH_LEAK_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert "CLEAN" in proc.stdout
    for line in proc.stderr.splitlines():
        assert "leaked shared_memory" not in line, proc.stderr
        assert "resource_tracker" not in line, proc.stderr


@pytest.mark.slow
def test_crash_resubmits_do_not_double_count_ipc():
    """Satellite 1: the same workload with and without a forced
    BrokenProcessPool restart must report the same ``ipc_jobs`` and
    first-submit byte totals within a crash flag's width; the resubmit
    traffic lands in ``ipc_bytes_resent``."""
    lines = np.unique(random_segments(100, DOMAIN, 64, seed=61), axis=0)
    rects = windows(10, 62)
    pts = np.random.default_rng(63).uniform(0, DOMAIN, (4, 2))

    def run(plan):
        with make_engine("process", fault_plan=plan,
                         breaker_threshold=10) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            w = [eng.submit_window(fp, r) for r in rects]
            n = [eng.submit_nearest(fp, p) for p in pts]
            eng.flush()
            for f in w + n:
                f.result(180)
            for f, (px, py) in zip(n, pts):
                gid, d = f.result(180)
                bid, bd = brute_nearest(lines, px, py)
                assert (gid, d) == (bid, pytest.approx(bd))
            return eng.health()["executor"]

    clean = run(None)
    plan = FaultPlan(specs=(
        FaultSpec(site="executor.job", kind="crash", times=2),), seed=7)
    crashed = run(plan)

    assert clean["ipc_bytes_resent"] == 0
    assert crashed["restarts"] >= 1
    assert crashed["ipc_bytes_resent"] > 0
    # each job is counted once at first submission, crash or not
    assert crashed["ipc_jobs"] == clean["ipc_jobs"]
    # first-submit bytes differ only by the injected crash flag's pickle
    # width, never by a whole resubmitted spec
    assert abs(crashed["ipc_bytes_sent"]
               - clean["ipc_bytes_sent"]) < 200


def ipc_profile(n, **engine_kw):
    """Pipe-byte counts of an ``n``-segment map served by the process
    backend: (bytes from construction through the first resolved batch,
    steady first-submit bytes per job, dataset bytes shipped)."""
    domain, probes, seed = 4096, 256, 101
    lines = random_segments(n, domain=domain, max_len=domain // 42,
                            seed=seed + n)
    rng = np.random.default_rng(seed + 41)
    rects = np.zeros((probes, 4))
    rects[:, :2] = rng.uniform(0, domain * 0.88, (probes, 2))
    rects[:, 2:] = np.minimum(
        rects[:, :2] + rng.uniform(16, domain * 0.12, (probes, 2)), domain)
    with make_engine("process", shards=8, ordering="hilbert",
                     max_batch=probes + 1, max_wait=0.5,
                     **engine_kw) as eng:
        fp = eng.register(lines, domain=domain)
        eng.warm(fp)

        def serve():
            futs = [eng.submit_window(fp, r) for r in rects]
            eng.flush()
            for f in futs:
                f.result(300)
            return eng.health()["executor"]

        ex = serve()
        cold = (ex["ipc_bytes_sent"] + ex["ipc_bytes_resent"]
                + ex["dataset_ship_bytes"])
        for _ in range(3):
            ex = serve()
    return (cold, ex["ipc_bytes_sent"] / ex["ipc_jobs"],
            ex["dataset_ship_bytes"])


@pytest.mark.slow
def test_ipc_bytes_flat_from_10k_to_100k_segments():
    """The arena's reason to exist, as a count: a 10x larger dataset
    costs at most 1.5x the pipe bytes, per job and from a cold start,
    and none of them is the dataset.  (With ``shm_budget_bytes=0`` the
    snapshots ship -- 0.64 and 6.4 MB -- and cold-start bytes grow 9.9x.)"""
    cold_lo, per_job_lo, shipped_lo = ipc_profile(10_000)
    cold_hi, per_job_hi, shipped_hi = ipc_profile(100_000)
    assert shipped_lo == shipped_hi == 0
    assert per_job_hi <= 1.5 * per_job_lo, (per_job_lo, per_job_hi)
    assert cold_hi <= 1.5 * cold_lo, (cold_lo, cold_hi)


@pytest.mark.slow
def test_process_backend_adopts_repaired_payload_via_arena():
    """A repaired sharded index is published through the arena before
    the flip, so process workers execute the *same* decomposition the
    parent planned against -- never a divergent canonical rebuild."""
    lines = np.unique(random_segments(3000, DOMAIN, 48, seed=21), axis=0)
    rects = windows(8, 22)
    with SpatialQueryEngine(executor="process", workers=2, shards=2,
                            max_batch=8, max_wait=0.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        extra = random_segments(60, DOMAIN, 32, seed=23)
        fp2 = eng.insert_lines(fp, extra)
        assert eng.registry.repairs >= 1
        key = eng._index_key(fp2, None)
        assert eng._worker_visible(key)
        merged = np.vstack([lines, np.asarray(extra,
                                              dtype=np.float64).reshape(-1, 4)])
        for r in rects:
            got = np.sort(np.asarray(eng.window(fp2, r)))
            assert np.array_equal(got, np.sort(brute_window_query(merged, r)))


@pytest.mark.slow
def test_arena_rehydration_restores_published_pages():
    lines = np.unique(random_segments(2000, DOMAIN, 48, seed=31), axis=0)
    rects = windows(6, 32)
    with SpatialQueryEngine(executor="process", workers=2, shards=2,
                            max_batch=8, max_wait=0.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        key = eng._index_key(fp, None)
        assert eng.registry.discard(key)        # evict the memory tier
        entry = eng.registry.get(key.fingerprint, key.structure,
                                 **dict(key.params))
        assert eng.registry.shm_rehydrations == 1
        assert entry.build_steps == 0           # attached, not rebuilt
        for r in rects:
            got = np.sort(np.asarray(eng.window(fp, r)))
            assert np.array_equal(got, np.sort(brute_window_query(lines, r)))


@pytest.mark.slow
def test_publishing_from_the_tree_counts_no_disk_hit(tmp_path):
    lines = np.unique(random_segments(2000, DOMAIN, 48, seed=61), axis=0)
    with SpatialQueryEngine(executor="process", workers=2, shards=4,
                            cache_dir=str(tmp_path), max_batch=8,
                            max_wait=0.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        eng.insert_lines(fp, random_segments(20, DOMAIN, 32, seed=62))
        for counters in (eng.stats, eng.store):
            assert counters.disk_hits == 0
            assert counters.spills == 2
