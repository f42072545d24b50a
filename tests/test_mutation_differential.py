"""Mutation differential harness: evolved index == fresh rebuild == brute.

The MVCC tentpole's correctness claim is that *no mutation path can
drift*: a dataset evolved through any seeded interleaving of insert and
delete batches must answer every query kind exactly like (a) a fresh
index built from scratch on the surviving segments and (b) the brute
oracle -- regardless of whether the engine served the new version by
incremental shard repair or a canonical rebuild.

Two layers are driven:

* **structure level** -- :func:`repro.structures.repair_sharded`
  evolves a :class:`ShardedIndex` generation by generation; each
  generation is checked (``idx.check()``) and probed against a fresh
  :func:`build_sharded` of the shadow array and against brute force.
  A declined repair (``None``) is replaced by the fresh build, as the
  registry does.  This pins the survivor remap, the insert routing,
  and every touched shard's warm start.
* **engine level** -- seeded interleavings of ``insert_lines`` /
  ``delete_lines`` with window/point/nearest/join probes through
  :class:`SpatialQueryEngine`.  A shadow
  ``np.ndarray`` replays the same batches; after every generation the
  engine's answers must match the shadow's brute answers bit for bit.

Fast cells run in tier-1; the large sweep is ``slow``-marked and runs
in CI's ``mutation`` job.  Every cell is seeded -- a failure prints the
``(family, structure, shards, ordering, seed, generation)``
tuple that reproduces it.
"""

import numpy as np
import pytest

from repro.baselines.brute import (brute_nearest, brute_point_query,
                                   brute_window_query)
from repro.geometry import clustered_map, random_segments, road_map
from repro.structures import (
    brute_join,
    build_sharded,
    index_join,
    repair_sharded,
)

DOMAIN = 1024
FAMILIES = ("uniform", "clustered", "grid")
SHARD_COUNTS = (1, 4)
ORDERINGS = ("morton", "hilbert")


def make_family(family, seed, big=False):
    scale = 8 if big else 1
    if family == "uniform":
        return random_segments(80 * scale, DOMAIN, 96, seed=seed)
    if family == "clustered":
        return clustered_map(70 * scale, clusters=5, spread=60,
                             domain=DOMAIN, seed=seed)
    if family == "grid":
        k = 5 if not big else 14
        return road_map(rows=k, cols=k, domain=DOMAIN, seed=seed)
    raise AssertionError(family)


def mutation_batch(rng, family, n_current, max_insert=12, max_delete=10):
    """One seeded (insert_rows, delete_ids) pair for the next generation."""
    ins = np.zeros((0, 4))
    dels = np.zeros(0, dtype=np.int64)
    op = rng.integers(0, 3)   # 0: insert, 1: delete, 2: both
    if op in (0, 2):
        m = int(rng.integers(1, max_insert + 1))
        if family == "clustered":
            cx, cy = rng.uniform(100, DOMAIN - 100, 2)
            p = rng.normal((cx, cy), 40, (m, 2))
            q = p + rng.uniform(-50, 50, (m, 2))
        else:
            p = rng.uniform(0, DOMAIN * 0.9, (m, 2))
            q = p + rng.uniform(1, 90, (m, 2))
        ins = np.clip(np.hstack([p, q]), 0, DOMAIN - 1).round()
    if op in (1, 2) and n_current > max_delete:
        m = int(rng.integers(1, max_delete + 1))
        dels = np.sort(rng.choice(n_current, size=m, replace=False))
    return ins, dels


def apply_shadow(shadow, ins, dels):
    """The oracle's transition: deletes first, inserts appended."""
    keep = np.ones(shadow.shape[0], dtype=bool)
    keep[dels] = False
    return np.vstack([shadow[keep], ins]) if ins.size else shadow[keep]


def probe_windows(rng, k):
    lo = rng.uniform(0, DOMAIN * 0.85, (k, 2))
    hi = np.minimum(lo + rng.uniform(4, DOMAIN * 0.4, (k, 2)), DOMAIN)
    return np.hstack([lo, hi])


# -- structure level -----------------------------------------------------

def run_repair_differential(family, structure, shards, ordering, seed,
                            generations=8, probes=6, big=False):
    shadow = make_family(family, seed, big=big)
    idx = build_sharded(shadow, DOMAIN, structure, shards=shards,
                        ordering=ordering)
    rng = np.random.default_rng(seed + 500)
    repaired = declined = 0
    for gen in range(generations):
        ins, dels = mutation_batch(rng, family, shadow.shape[0])
        shadow = apply_shadow(shadow, ins, dels)
        fresh = build_sharded(shadow, DOMAIN, structure, shards=shards,
                              ordering=ordering)
        out = repair_sharded(idx, shadow, dels, ins.shape[0])
        if out is None:          # declined: the caller builds canonically
            declined += 1
            idx = fresh
        else:
            idx, stats = out
            repaired += stats["shards_reused"]
        idx.check()
        ctx = (family, structure, shards, ordering, seed, gen)
        for rect in probe_windows(rng, probes):
            want = brute_window_query(shadow, rect)
            assert np.array_equal(idx.window_query(rect), want), \
                ctx + ("window-vs-brute",)
            assert np.array_equal(fresh.window_query(rect), want), \
                ctx + ("window-vs-fresh",)
        pts = rng.uniform(0, DOMAIN, (probes, 2))
        if shadow.size:
            mids = 0.5 * (shadow[:, 0:2] + shadow[:, 2:4])
            pts[::2] = mids[rng.integers(0, mids.shape[0],
                                         pts[::2].shape[0])]
        for px, py in pts:
            assert np.array_equal(idx.point_query(px, py),
                                  brute_point_query(shadow, px, py)), \
                ctx + ("point",)
            gid, d = idx.nearest(px, py)
            bid, bd = brute_nearest(shadow, px, py)
            assert (gid, d) == (bid, pytest.approx(bd)), ctx + ("nearest",)
        if gen % 3 == 2:
            assert np.array_equal(index_join(idx, fresh),
                                  brute_join(shadow, shadow)), ctx + ("join",)
    # the sweep must exercise the incremental path, not only fallbacks
    if shards > 1:
        assert repaired > 0, (family, structure, shards, ordering, seed,
                              declined)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("structure", ("pmr", "rtree"))
@pytest.mark.parametrize("family", FAMILIES)
def test_repair_differential(family, structure, shards, ordering):
    run_repair_differential(family, structure, shards, ordering, seed=23)


@pytest.mark.slow
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("shards", SHARD_COUNTS + (8,))
@pytest.mark.parametrize("structure", ("pmr", "rtree"))
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [31, 47])
def test_repair_differential_large(family, structure, shards, ordering,
                                   seed):
    run_repair_differential(family, structure, shards, ordering, seed=seed,
                            generations=15, probes=12, big=True)


# -- engine level --------------------------------------------------------

def run_engine_mutation_differential(family, shards, ordering, seed,
                                     generations=5, probes=5, big=False):
    from repro.engine import SpatialQueryEngine

    shadow = np.unique(make_family(family, seed), axis=0)
    if big:
        shadow = np.unique(make_family(family, seed, big=True), axis=0)
    other = np.unique(make_family(family, seed + 9), axis=0)
    with SpatialQueryEngine(structure="pmr", shards=shards,
                            ordering=ordering, max_batch=64, max_wait=0.05,
                            workers=2) as eng:
        fp = eng.register(shadow, domain=DOMAIN)
        fp_b = eng.register(other, domain=DOMAIN)
        rng = np.random.default_rng(seed + 700)
        for gen in range(generations):
            ins, dels = mutation_batch(rng, family, shadow.shape[0])
            if dels.size:
                fp = eng.delete_lines(fp, dels)
                shadow = apply_shadow(shadow, np.zeros((0, 4)), dels)
            if ins.size:
                fp = eng.insert_lines(fp, ins)
                shadow = apply_shadow(shadow, ins, np.zeros(0, np.int64))
            ctx = (family, shards, ordering, seed, gen)
            rects = probe_windows(rng, probes)
            pts = rng.uniform(0, DOMAIN, (probes, 2))
            mids = 0.5 * (shadow[:, 0:2] + shadow[:, 2:4])
            pts[::2] = mids[rng.integers(0, mids.shape[0],
                                         pts[::2].shape[0])]
            w = [eng.submit_window(fp, r) for r in rects]
            n = [eng.submit_nearest(fp, pt) for pt in pts]
            eng.flush()
            for fut, rect in zip(w, rects):
                assert np.array_equal(fut.result(120),
                                      brute_window_query(shadow, rect)), \
                    ctx + ("window",)
            for fut, (px, py) in zip(n, pts):
                gid, d = fut.result(120)
                bid, bd = brute_nearest(shadow, px, py)
                assert (gid, d) == (bid, pytest.approx(bd)), \
                    ctx + ("nearest",)
            if gen % 2 == 1:
                assert np.array_equal(eng.join(fp, fp_b, timeout=120),
                                      brute_join(shadow, other)), \
                    ctx + ("join",)
        snap = eng.snapshot()
        assert snap["mutation_failures"] == 0, snap["mutation_failures"]
        assert snap["failed"] == 0


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_engine_mutation_differential(family, shards, ordering):
    run_engine_mutation_differential(family, shards, ordering, seed=41)


@pytest.mark.slow
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [53, 67])
def test_engine_mutation_differential_large(family, shards, seed):
    run_engine_mutation_differential(family, shards, "hilbert", seed=seed,
                                     generations=8, probes=8, big=True)


# -- revisited content: a version is a chain position ---------------------

@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_revisited_content_commits_as_a_new_version(shards):
    """Insert k rows, delete exactly those rows, twice over (A->B->A->B->A).

    Every commit returns the map to content the chain held before; each
    must still be one new version that readers see, while a reader
    admitted before the commit keeps the snapshot it was bound to.
    """
    from repro.engine import SpatialQueryEngine

    shadow = np.unique(make_family("uniform", 71), axis=0)
    rng = np.random.default_rng(771)
    p = rng.uniform(100, DOMAIN * 0.8, (6, 2))
    rows = np.hstack([p, p + rng.uniform(4, 60, (6, 2))]).round()
    rects = np.vstack([probe_windows(rng, 4),
                       [[90.0, 90.0, DOMAIN - 1.0, DOMAIN - 1.0]]])
    with SpatialQueryEngine(structure="pmr", shards=shards, max_batch=64,
                            max_wait=5.0, workers=2) as eng:
        handle = eng.register(shadow, domain=DOMAIN)
        version = eng.registry.resolve(handle).version
        for step in range(4):
            ctx = (shards, step)
            n = shadow.shape[0]
            before = shadow
            parked = [eng.submit_window(handle, r) for r in rects]
            if step % 2 == 0:
                ack = eng.submit_insert(handle, rows)
                shadow = apply_shadow(shadow, rows, np.zeros(0, np.int64))
            else:
                ids = np.arange(n - rows.shape[0], n)
                ack = eng.submit_delete(handle, ids)
                shadow = apply_shadow(shadow, np.zeros((0, 4)), ids)
            eng.flush()
            res = ack.result(120)
            version += 1
            assert res.version == version, ctx
            assert res.num_lines == shadow.shape[0], ctx
            head = eng.registry.resolve(handle)
            assert (head.version, head.fingerprint) \
                == (version, res.fingerprint), ctx
            assert np.array_equal(eng.registry.dataset(head.fingerprint),
                                  shadow), ctx
            for fut, rect in zip(parked, rects):
                assert fut.version == version - 1, ctx
                assert np.array_equal(fut.result(120),
                                      brute_window_query(before, rect)), \
                    ctx + ("pinned reader",)
            mids = 0.5 * (rows[:, 0:2] + rows[:, 2:4])
            pts = np.vstack([mids[:3], rng.uniform(0, DOMAIN, (3, 2))])
            w = [eng.submit_window(handle, r) for r in rects]
            s = [eng.submit_point(handle, pt) for pt in pts]
            nn = [eng.submit_nearest(handle, pt) for pt in pts]
            eng.flush()
            for fut, rect in zip(w, rects):
                assert fut.version == version, ctx
                assert np.array_equal(fut.result(120),
                                      brute_window_query(shadow, rect)), \
                    ctx + ("window",)
            for fs, fn, (px, py) in zip(s, nn, pts):
                assert np.array_equal(fs.result(120),
                                      brute_point_query(shadow, px, py)), \
                    ctx + ("point",)
                gid, d = fn.result(120)
                bid, bd = brute_nearest(shadow, px, py)
                assert (gid, d) == (bid, pytest.approx(bd)), \
                    ctx + ("nearest",)
        snap = eng.snapshot()
        assert snap["mutation_failures"] == 0 and snap["failed"] == 0
