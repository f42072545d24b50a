"""ShardedIndex unit tests: build invariants, plans, per-shard batches.

The cross-cutting set-identity properties (sharded == unsharded ==
brute over map families x shard counts x orderings) live in
``tests/test_differential.py``; this file covers the mechanics of the
structure itself.
"""

import numpy as np
import pytest

from repro.baselines.brute import (brute_nearest, brute_point_query,
                                   brute_window_query)
from repro.engine import IndexRegistry
from repro.geometry import random_segments
from repro.machine import Machine, use_machine
from repro.structures import (
    ShardedIndex,
    brute_join,
    build_bucket_pmr,
    build_rtree,
    build_sharded,
    index_join,
    load_structure,
    payload_checksum,
    repair_index,
    repair_sharded,
    save_structure,
    shard_keys,
)
from repro.structures.batch import NEAREST, POINT, WINDOW, _views
from repro.structures.io import structure_payload
from repro.structures.sharded import build_index

from .test_warm_start_identity import _clean

DOMAIN = 512


def lines_of(seed, n=150):
    return random_segments(n, DOMAIN, 64, seed=seed)


class TestBuild:
    @pytest.mark.parametrize("ordering", ["morton", "hilbert"])
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_invariants(self, shards, ordering):
        idx = build_sharded(lines_of(3), DOMAIN, "pmr", shards=shards,
                            ordering=ordering)
        idx.check()
        assert idx.num_shards == shards
        assert idx.shard_sizes().sum() == idx.num_lines

    def test_near_equal_cuts(self):
        idx = build_sharded(lines_of(4, n=100), DOMAIN, "rtree", shards=7)
        sizes = idx.shard_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_more_shards_than_segments(self):
        idx = build_sharded(lines_of(5, n=3), DOMAIN, "pmr", shards=10)
        idx.check()
        assert idx.num_shards == 3  # empty ranges are never materialised
        assert all(s.ids.size == 1 for s in idx.shards)

    def test_empty_dataset(self):
        idx = build_sharded(np.zeros((0, 4)), DOMAIN, "pmr", shards=4)
        assert idx.num_shards == 0
        assert idx.window_query([0, 0, DOMAIN, DOMAIN]).size == 0
        with pytest.raises(ValueError):
            idx.nearest(1.0, 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_sharded(lines_of(0), DOMAIN, "voronoi")
        with pytest.raises(ValueError):
            build_sharded(lines_of(0), DOMAIN, "pmr", ordering="peano")
        with pytest.raises(ValueError):
            build_sharded(lines_of(0), DOMAIN, "pmr", shards=0)

    @pytest.mark.parametrize("structure", ["pmr", "pm1", "rtree"])
    def test_all_structures_build(self, structure):
        segs = (np.unique(lines_of(6, n=40), axis=0) if structure == "pm1"
                else lines_of(6, n=40))
        idx = build_sharded(segs, DOMAIN, structure, shards=3)
        idx.check()

    def test_shard_ids_ascending_within_shard(self):
        idx = build_sharded(lines_of(7), DOMAIN, "pmr", shards=5)
        for s in idx.shards:
            assert np.all(np.diff(s.ids) > 0)


class TestShardKeys:
    def test_orderings_differ_but_permute_the_same_set(self):
        segs = lines_of(8)
        km = shard_keys(segs, DOMAIN, "morton")
        kh = shard_keys(segs, DOMAIN, "hilbert")
        assert km.shape == kh.shape == (segs.shape[0],)
        assert not np.array_equal(km, kh)

    def test_spatial_locality(self):
        # two segments sharing a midpoint cell get the same key
        segs = np.array([[10, 10, 14, 14], [14, 14, 10, 10]], float)
        for ordering in ("morton", "hilbert"):
            k = shard_keys(segs, DOMAIN, ordering)
            assert k[0] == k[1]


class TestShardMaxKeys:
    """The insert-routing table is cached per shard, never recomputed from
    every old line on a commit."""

    @staticmethod
    def recomputed(idx):
        keys = shard_keys(idx.lines, idx.domain, idx.ordering)
        return [int(keys[s.ids].max()) for s in idx.shards]

    @pytest.mark.parametrize("ordering", ["morton", "hilbert"])
    def test_build_fills_the_cache_and_it_is_sorted(self, ordering):
        idx = build_sharded(lines_of(21, 400), DOMAIN, shards=4, ordering=ordering)
        assert [s.max_key for s in idx.shards] == self.recomputed(idx)
        assert idx.shard_max_keys().tolist() == sorted(self.recomputed(idx))

    def test_repair_carries_reused_and_sets_repaired_keys(self):
        idx = build_sharded(lines_of(22, 400), DOMAIN, shards=4, ordering="hilbert")
        victim = idx.shards[1].ids[:3]
        new_rows = idx.lines[idx.shards[1].ids[3:6]] + 1.0      # lands in or near shard 1
        new_lines = np.vstack([np.delete(idx.lines, victim, axis=0), new_rows])
        out = repair_sharded(idx, new_lines, victim, new_rows.shape[0])
        assert out is not None                       # did not decline
        repaired, stats = out
        assert stats["shards_reused"] >= 2
        assert None not in [s.max_key for s in repaired.shards]
        for old, new in zip(idx.shards, repaired.shards):
            if new.tree is old.tree:
                assert new.max_key == old.max_key
        assert repaired.shard_max_keys().tolist() == self.recomputed(repaired)

    @pytest.mark.parametrize("ordering", ["morton", "hilbert"])
    def test_repair_keeps_the_table_equal_to_a_full_re_encode(self, ordering):
        """Set at repair time from the batch's own keys -- including
        commits that delete a shard's maximum-key row."""
        rng = np.random.default_rng(24)
        idx = build_sharded(lines_of(24, 400), DOMAIN, shards=8, ordering=ordering)
        for step in range(12):
            keys = shard_keys(idx.lines, idx.domain, ordering)
            shard = idx.shards[step % idx.num_shards]
            top = shard.ids[np.argmax(keys[shard.ids])]
            victims = np.unique(np.append(rng.choice(shard.ids, 2, replace=False),
                                          top if step % 2 else []).astype(np.int64))
            new_rows = np.clip(idx.lines[rng.choice(shard.ids, 2)] + 0.25, 0, DOMAIN)
            new_lines = np.vstack([np.delete(idx.lines, victims, axis=0), new_rows])
            out = repair_sharded(idx, new_lines, victims, 2)
            assert out is not None                   # did not decline
            idx, stats = out
            carried = [s.max_key for s in idx.shards]
            assert carried == self.recomputed(idx), (step, stats)

    def test_a_loaded_index_computes_its_table_on_first_use(self, tmp_path):
        idx = build_sharded(lines_of(23, 200), DOMAIN, shards=3)
        save_structure(idx, tmp_path / "idx.npz")
        loaded = load_structure(tmp_path / "idx.npz")
        assert [s.max_key for s in loaded.shards] == [None] * 3     # not in the layout
        assert loaded.shard_max_keys().tolist() == idx.shard_max_keys().tolist()


class TestRepairIndex:
    """``repair_index`` is the one commit path: every touched shard
    warm-starts however many a batch touches, and a decline (``None``)
    leaves the canonical build to the registry."""

    K = 4

    def scattered(self, structure, ordering, rows=8):
        """A K-shard map and ``rows`` new segments spread over its shards."""
        lines = _clean(lines_of(30, 600))
        params = dict(capacity=8, shards=self.K, ordering=ordering)
        idx = build_index(lines, DOMAIN, structure, **params)
        pool = _clean(np.vstack([lines, lines_of(31, 400)]))[lines.shape[0]:]
        target = np.minimum(np.searchsorted(
            idx.shard_max_keys(), shard_keys(pool, DOMAIN, ordering)),
            idx.num_shards - 1)
        picks = [np.flatnonzero(target == k)[:rows // self.K]
                 for k in range(self.K)]
        new_rows = pool[np.sort(np.concatenate(picks))]
        assert new_rows.shape[0] == rows
        return idx, lines, new_rows, params

    @pytest.mark.parametrize("ordering", ["morton", "hilbert"])
    @pytest.mark.parametrize("structure", ["pmr", "pm1"])
    def test_scattered_commit_warm_starts_every_touched_shard(
            self, structure, ordering):
        idx, lines, new_rows, params = self.scattered(structure, ordering)
        new_lines = np.vstack([lines, new_rows])
        m4 = Machine()
        with use_machine(m4):
            out = repair_index(idx, new_lines, [], new_rows.shape[0],
                               DOMAIN, structure, **params)
        assert out is not None                        # did not decline
        repaired, stats = out
        repaired.check()
        assert stats["shards_rebuilt"] >= 3
        fresh = build_sharded(new_lines, DOMAIN, structure, shards=self.K,
                              ordering=ordering)
        rng = np.random.default_rng(32)
        lo = rng.uniform(0, DOMAIN * 0.8, (10, 2))
        rects = np.hstack([lo, np.minimum(lo + rng.uniform(8, 160, (10, 2)),
                                          DOMAIN)])
        for rect in rects:
            want = brute_window_query(new_lines, rect)
            assert np.array_equal(repaired.window_query(rect), want)
            assert np.array_equal(fresh.window_query(rect), want)
        mids = 0.5 * (new_rows[:, 0:2] + new_rows[:, 2:4])
        for px, py in np.vstack([mids, rng.uniform(0, DOMAIN, (8, 2))]):
            want = brute_point_query(new_lines, px, py)
            assert np.array_equal(repaired.point_query(px, py), want)
            assert np.array_equal(fresh.point_query(px, py), want)
            gid, d = repaired.nearest(px, py)
            assert (gid, d) == fresh.nearest(px, py)
            bid, bd = brute_nearest(new_lines, px, py)
            assert gid == bid and d == pytest.approx(bd)
        # every touched shard pays one warm start at most as deep as the
        # unsharded tree's: K of them bound the scattered repair
        plain = build_index(lines, DOMAIN, structure, capacity=8)
        m1 = Machine()
        with use_machine(m1):
            assert repair_index(plain, new_lines, [], new_rows.shape[0],
                                DOMAIN, structure, capacity=8) is not None
        assert m4.steps <= self.K * m1.steps

    @pytest.mark.parametrize("case", ["grown_domain", "emptied", "plain_rtree"])
    def test_decline_leaves_the_canonical_build(self, case):
        structure, params = "pmr", dict(capacity=8, shards=self.K,
                                        ordering="morton")
        batch = {"insert": [[10.0, 10.0, 900.0, 40.0]]}
        if case == "emptied":
            batch = {"delete_ids": np.arange(120)}
        elif case == "plain_rtree":
            structure, params = "rtree", dict(capacity=8, min_fill=2)
            batch = {"delete_ids": [0, 7]}
        reg = IndexRegistry(capacity=8)
        fp = reg.register(lines_of(33, 120), domain=DOMAIN)
        parent = reg.get(fp, structure, **params).tree
        info = reg.mutate(fp, **batch)
        lines = reg.dataset(info.fingerprint)
        dom = reg.domain(info.fingerprint)
        assert dom == (2 * DOMAIN if case == "grown_domain" else DOMAIN)
        assert repair_index(parent, lines, batch.get("delete_ids", []),
                            len(batch.get("insert", [])), dom, structure,
                            **params) is None
        entry = reg.get(info.fingerprint, structure, **params)
        assert entry.repaired_from is None and entry.repair is None
        assert (reg.repairs, reg.repair_full_rebuilds) == (0, 1)
        canonical = build_index(lines, dom, structure, **params)
        assert payload_checksum(structure_payload(entry.tree)) \
            == payload_checksum(structure_payload(canonical))


class TestScalarQueries:
    @pytest.mark.parametrize("structure", ["pmr", "rtree"])
    def test_window_point_nearest_match_brute(self, structure):
        segs = lines_of(9)
        idx = build_sharded(segs, DOMAIN, structure, shards=4)
        rng = np.random.default_rng(90)
        for _ in range(12):
            lo = rng.uniform(0, DOMAIN * 0.8, 2)
            rect = np.concatenate([lo, lo + rng.uniform(8, DOMAIN * 0.3, 2)])
            rect = np.minimum(rect, DOMAIN)
            assert np.array_equal(idx.window_query(rect),
                                  brute_window_query(segs, rect))
            px, py = rng.uniform(0, DOMAIN, 2)
            assert np.array_equal(idx.point_query(px, py),
                                  brute_point_query(segs, px, py))
            gid, d = idx.nearest(px, py)
            bid, bd = brute_nearest(segs, px, py)
            assert gid == bid and d == pytest.approx(bd)

    def test_point_on_segment(self):
        segs = np.array([[8, 8, 40, 8], [8, 8, 8, 40], [100, 100, 130, 130]],
                        float)
        idx = build_sharded(segs, DOMAIN, "pmr", shards=2)
        assert np.array_equal(idx.point_query(8, 8), [0, 1])
        assert np.array_equal(idx.point_query(20, 8), [0])
        assert idx.point_query(300, 300).size == 0


class TestPlans:
    def test_window_plan_never_culls_a_hit(self):
        segs = lines_of(10)
        idx = build_sharded(segs, DOMAIN, "pmr", shards=6)
        rects = np.array([[0, 0, 60, 60], [200, 200, 380, 400],
                          [500, 500, 512, 512]], float)
        mask = idx.plan_windows(rects)
        assert mask.shape == (idx.num_shards, 3)
        for b, rect in enumerate(rects):
            hits = brute_window_query(segs, rect)
            for k, s in enumerate(idx.shards):
                if np.intersect1d(hits, s.ids).size:
                    assert mask[k, b]

    def test_nearest_bounds_are_lower_bounds(self):
        segs = lines_of(11)
        idx = build_sharded(segs, DOMAIN, "rtree", shards=5)
        pts = np.random.default_rng(12).uniform(0, DOMAIN, (8, 2))
        lb = idx.nearest_bounds(pts)
        assert lb.shape == (idx.num_shards, 8)
        for b, (px, py) in enumerate(pts):
            for k, s in enumerate(idx.shards):
                _, d = brute_nearest(segs[s.ids], px, py)
                assert lb[k, b] <= d + 1e-9


class TestShardBatch:
    """query_shard_batch is the engine's fan-out unit: the wave core's
    ``(ids, ptr, nid, nd)`` with ids lifted to global ones."""

    @pytest.mark.parametrize("structure", ["pmr", "rtree"])
    def test_window_batch_matches_scalar(self, structure):
        segs = lines_of(13)
        idx = build_sharded(segs, DOMAIN, structure, shards=3)
        rects = np.array([[0, 0, 256, 256], [100, 50, 400, 460],
                          [480, 480, 500, 500]], float)
        for k, s in enumerate(idx.shards):
            gids, ptr, _, _ = idx.query_shard_batch(k, WINDOW, rects)
            for rect, got in zip(rects, _views(gids, ptr)):
                want = np.intersect1d(brute_window_query(segs, rect), s.ids)
                assert np.array_equal(got, want)

    def test_flat_layout_round_trips(self):
        segs = lines_of(14)
        idx = build_sharded(segs, DOMAIN, "pmr", shards=3)
        rects = np.array([[0, 0, 200, 200], [300, 300, 512, 512],
                          [600, 600, 700, 700]], float)
        for k, s in enumerate(idx.shards):
            gids, ptr, _, _ = idx.query_shard_batch(k, WINDOW, rects)
            assert gids.dtype == ptr.dtype == np.int64
            assert ptr.shape == (len(rects) + 1,)
            assert ptr[0] == 0 and ptr[-1] == gids.size
            assert np.all(np.diff(ptr) >= 0)
            assert np.isin(gids, s.ids).all()
            for rect, got in zip(rects, _views(gids, ptr)):
                want = np.intersect1d(brute_window_query(segs, rect), s.ids)
                assert np.array_equal(got, want)

    def test_nearest_batch_is_an_array_pair(self):
        segs = lines_of(15)
        idx = build_sharded(segs, DOMAIN, "rtree", shards=3)
        pts = np.random.default_rng(16).uniform(0, DOMAIN, (5, 2))
        for k, s in enumerate(idx.shards):
            _, _, gids, dists = idx.query_shard_batch(k, NEAREST, pts)
            assert gids.shape == dists.shape == (5,)
            for (px, py), g, d in zip(pts, gids, dists):
                lid, want = brute_nearest(segs[s.ids], px, py)
                assert g == s.ids[lid]
                assert d == pytest.approx(want)

    def test_point_batch_is_exact(self):
        # a point on a segment interior must hit regardless of which
        # shard leaf the segment's q-edges landed in
        segs = np.array([[8, 8, 100, 8], [8, 50, 100, 50],
                         [200, 200, 260, 260], [300, 8, 300, 90]], float)
        idx = build_sharded(segs, DOMAIN, "pmr", shards=2)
        pts = np.array([[50, 8], [50, 50], [230, 230], [300, 40], [7, 7]],
                       float)
        got = [np.zeros(0, np.int64)] * len(pts)
        for k in range(idx.num_shards):
            gids, ptr, _, _ = idx.query_shard_batch(k, POINT, pts)
            for i, res in enumerate(_views(gids, ptr)):
                got[i] = np.union1d(got[i], res)
        for i, (px, py) in enumerate(pts):
            assert np.array_equal(got[i], brute_point_query(segs, px, py))

    def test_unknown_kind(self):
        idx = build_sharded(lines_of(17, n=10), DOMAIN, "pmr", shards=2)
        with pytest.raises(ValueError):
            idx.query_shard_batch(0, "range", np.zeros((1, 4)))

    def test_foreign_kind_code(self):
        """A code outside ``KINDS`` is refused by name, not served as a
        window."""
        idx = build_sharded(lines_of(17, n=10), DOMAIN, "pmr", shards=2)
        with pytest.raises(ValueError, match="kind code 7"):
            idx.query_shard_batch(0, [0, 7], np.zeros((2, 4)))


class TestJoin:
    @pytest.mark.parametrize("structure", ["pmr", "rtree"])
    def test_sharded_join_matches_brute(self, structure):
        a = lines_of(18, n=60)
        b = lines_of(19, n=50)
        ia = build_sharded(a, DOMAIN, structure, shards=3)
        ib = build_sharded(b, DOMAIN, structure, shards=2)
        assert np.array_equal(index_join(ia, ib), brute_join(a, b))

    def test_join_against_plain_tree(self):
        a = lines_of(20, n=40)
        b = lines_of(21, n=30)
        ia = build_sharded(a, DOMAIN, "pmr", shards=3)
        tb, _ = build_bucket_pmr(b, DOMAIN, 8)
        assert np.array_equal(index_join(ia, tb), brute_join(a, b))

    def test_mixed_families_join(self):
        a, b = lines_of(22, n=20), lines_of(23, n=20)
        ia = build_sharded(a, DOMAIN, "pmr", shards=2)
        ib = build_sharded(b, DOMAIN, "rtree", shards=2)
        assert np.array_equal(index_join(ia, ib), brute_join(a, b))


class TestK1Degenerate:
    def test_single_shard_wraps_the_whole_tree(self):
        segs = lines_of(24)
        idx = build_sharded(segs, DOMAIN, "rtree", shards=1)
        assert idx.num_shards == 1
        assert np.array_equal(idx.shards[0].ids, np.arange(segs.shape[0]))
        full, _ = build_rtree(segs, 2, 8)
        rect = np.array([40, 40, 300, 300], float)
        assert np.array_equal(idx.window_query(rect),
                              np.sort(full.window_query(rect)))
