"""Engine-level sharding: fan-out/merge serving vs the oracles.

The structure-level identity is proved in ``tests/test_differential``;
here the same claims are pushed through the full serving stack --
coalescer groups, per-shard executor jobs, and the merge state -- plus
the serving-only invariants: the shard-probe accounting, concurrent
clients, and index invalidation on dynamic updates.
"""

import threading

import numpy as np
import pytest

from repro.baselines.brute import brute_point_query, brute_window_query
from repro.engine import SpatialQueryEngine
from repro.geometry import random_segments
from repro.structures import brute_nearest, build_sharded

DOMAIN = 512


def make_lines(seed, n=140):
    return random_segments(n, DOMAIN, 56, seed=seed)


def make_windows(k, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, DOMAIN * 0.8, (k, 2))
    hi = np.minimum(lo + rng.uniform(8, DOMAIN * 0.35, (k, 2)), DOMAIN)
    return np.hstack([lo, hi])


def make_points(k, seed, lines):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, DOMAIN, (k, 2))
    mids = 0.5 * (lines[:, 0:2] + lines[:, 2:4])
    pts[::3] = mids[rng.integers(0, mids.shape[0], pts[::3].shape[0])]
    return pts


def sharded_engine(structure, shards, ordering="hilbert", **kw):
    kw.setdefault("max_batch", 16)
    kw.setdefault("max_wait", 0.5)
    kw.setdefault("workers", 2)
    return SpatialQueryEngine(structure=structure, shards=shards,
                              ordering=ordering, **kw)


@pytest.mark.parametrize("ordering", ["morton", "hilbert"])
@pytest.mark.parametrize("shards", [2, 7])
@pytest.mark.parametrize("structure", ["pmr", "pm1", "rtree"])
def test_sharded_serving_matches_brute(structure, shards, ordering):
    lines = np.unique(make_lines(1), axis=0)   # PM1 rejects duplicates
    rects = make_windows(12, 2)
    pts = make_points(12, 3, lines)
    with sharded_engine(structure, shards, ordering) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        wf = [eng.submit_window(fp, r) for r in rects]
        pf = [eng.submit_point(fp, p) for p in pts]
        nf = [eng.submit_nearest(fp, p) for p in pts]
        eng.flush()
        for f, rect in zip(wf, rects):
            assert np.array_equal(f.result(30),
                                  brute_window_query(lines, rect))
        for f, (px, py) in zip(pf, pts):
            assert np.array_equal(f.result(30),
                                  brute_point_query(lines, px, py))
        for f, (px, py) in zip(nf, pts):
            gid, d = f.result(30)
            bid, bd = brute_nearest(lines, px, py)
            assert gid == bid and d == pytest.approx(bd)


@pytest.mark.parametrize("structure", ["pmr", "pm1", "rtree"])
def test_merge_of_0_1_and_many_shards_matches_unsharded(structure):
    """One coalesced window batch whose probes reach no shard, one shard
    and several: the merged answers equal the unsharded engine's, id
    order included, and are read-only like them."""
    lines = np.unique(make_lines(11, n=200), axis=0)
    rects = np.vstack([[[-20.0, -20.0, -10.0, -10.0]], make_windows(11, 12)])
    reach = build_sharded(lines, DOMAIN, structure, shards=4,
                          ordering="hilbert").plan_windows(rects).sum(axis=0)
    assert {0, 1} <= set(reach.tolist()) and reach.max() >= 2
    answers = []
    for shards in (4, 1):
        with sharded_engine(structure, shards) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            futs = [eng.submit_window(fp, r) for r in rects]
            eng.flush()
            answers.append([f.result(30) for f in futs])
            if shards > 1:
                assert eng.snapshot()["shard_batches"] == 1
    for got, want in zip(*answers):
        assert np.array_equal(got, want) and got.dtype == want.dtype
        assert not got.flags.writeable


def test_shard_probe_accounting_invariant():
    """shards_probed never exceeds K per fan-out batch, and the skip
    counters partition K * shard_batches."""
    shards = 5
    lines = make_lines(4, n=200)
    with sharded_engine("pmr", shards) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        for rect in make_windows(40, 5):
            eng.submit_window(fp, rect)
        for p in make_points(40, 6, lines):
            eng.submit_nearest(fp, p)
        eng.flush()
        # drain: every probe resolved before reading the counters
        snap = None
        for _ in range(100):
            snap = eng.snapshot()
            if snap["completed"] == snap["submitted"]:
                break
        snap = eng.snapshot()
    assert snap["shard_batches"] > 0
    assert 0 < snap["shards_probed"] <= shards * snap["shard_batches"]
    assert (snap["shards_probed"] + snap["shards_skipped"]
            == shards * snap["shard_batches"])
    assert 0.0 < snap["mean_shards_probed"] <= shards


def test_unsharded_engine_records_no_shard_batches():
    lines = make_lines(7, n=60)
    with SpatialQueryEngine(structure="pmr", shards=1, max_batch=8,
                            max_wait=0.5, workers=2) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        for rect in make_windows(8, 8):
            eng.submit_window(fp, rect)
        eng.flush()
        snap = eng.snapshot()
    assert snap["shard_batches"] == 0


def test_concurrent_clients_each_see_oracle_results():
    lines = make_lines(9, n=180)
    failures = []
    with sharded_engine("rtree", 4, max_batch=32, workers=3,
                        queue_depth=128) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)

        def client(cid):
            try:
                rects = make_windows(15, 100 + cid)
                pts = make_points(15, 200 + cid, lines)
                wf = [eng.submit_window(fp, r) for r in rects]
                nf = [eng.submit_nearest(fp, p) for p in pts]
                eng.flush()
                for f, rect in zip(wf, rects):
                    got = f.result(30)
                    want = brute_window_query(lines, rect)
                    if not np.array_equal(got, want):
                        failures.append((cid, "window", rect))
                for f, (px, py) in zip(nf, pts):
                    gid, d = f.result(30)
                    bid, bd = brute_nearest(lines, px, py)
                    if gid != bid or abs(d - bd) > 1e-9:
                        failures.append((cid, "nearest", (px, py)))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append((cid, "exception", exc))

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not failures


@pytest.mark.parametrize("update", ["insert", "delete"])
def test_dynamic_updates_version_sharded_entries(update):
    lines = make_lines(10, n=80)
    with sharded_engine("pmr", 4) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        keys = eng.registry.cached_keys()
        assert any(dict(k.params).get("shards") == 4 for k in keys)
        if update == "insert":
            new_fp = eng.insert_lines(fp, np.array([[1.0, 1.0, 9.0, 9.0]]))
            new_lines = np.vstack([lines, [[1.0, 1.0, 9.0, 9.0]]])
        else:
            new_fp = eng.delete_lines(fp, [0])
            new_lines = lines[1:]
        assert new_fp != fp
        # MVCC: the old version's sharded tree is retained, not evicted
        assert any(k.fingerprint == fp for k in eng.registry.cached_keys())
        rect = np.array([0, 0, DOMAIN, DOMAIN], float)
        # serving the new fingerprint reflects the update
        got = eng.window(new_fp, rect)
        assert np.array_equal(got, brute_window_query(new_lines, rect))
        # the old handle resolves to the latest version at submit time
        got_old = eng.window(fp, rect)
        assert np.array_equal(got_old, brute_window_query(new_lines, rect))


def test_empty_dataset_sharded_serving():
    with sharded_engine("pmr", 3) as eng:
        fp = eng.register(np.zeros((0, 4)), domain=DOMAIN)
        assert eng.window(fp, [0, 0, 64, 64]).size == 0
        with pytest.raises(ValueError):
            eng.nearest(fp, (5.0, 5.0))
