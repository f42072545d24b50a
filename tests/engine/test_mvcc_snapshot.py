"""Snapshot isolation under concurrent reads and writes (MVCC).

The tentpole's serving claim: a mutation batch never disturbs reads
that were admitted before it committed.  Probes bind to the dataset
version that was current at submit time; the commit builds the next
version warm and only then flips the chain, so in-flight reads finish
against their admitted snapshot with zero errors and zero partials --
and never observe the new version early.

Two layers certify it:

* the engine -- reads parked in the coalescer when the mutation is
  submitted still answer from the old version;
* a live :class:`ServerThread` -- pipelined wire requests interleaving
  windows with an insert; every response must be a 200 whose result
  matches the brute oracle of exactly the version it echoes.

The hammer test drives both sides hard: reader threads race a writer
committing several versions while old snapshots are retained and then
collected; every answer must match the shadow of the version its
future reports (pinning keeps a collected version's dataset alive
until its last in-flight read settles).
"""

import threading

import numpy as np

from repro.baselines.brute import brute_window_query
from repro.engine import SpatialQueryEngine
from repro.geometry import random_segments

DOMAIN = 1024


def shadows_after(lines, batches):
    """Version v's shadow array after the first v mutation batches."""
    out = [lines]
    cur = lines
    for ins, dels in batches:
        keep = np.ones(cur.shape[0], dtype=bool)
        keep[dels] = False
        cur = np.vstack([cur[keep], ins]) if len(ins) else cur[keep]
        out.append(cur)
    return out


def seeded_batches(rng, n0, count):
    batches = []
    n = n0
    for _ in range(count):
        m = int(rng.integers(2, 8))
        p = rng.uniform(0, DOMAIN * 0.9, (m, 2))
        ins = np.clip(np.hstack([p, p + rng.uniform(1, 80, (m, 2))]),
                      0, DOMAIN - 1).round()
        dels = np.sort(rng.choice(n, size=min(5, n // 4), replace=False))
        batches.append((ins, dels))
        n = n - dels.size + m
    return batches


def test_snapshot_isolation_thread_backend():
    lines = np.unique(random_segments(120, DOMAIN, 64, seed=3), axis=0)
    rng = np.random.default_rng(77)
    (batch,) = seeded_batches(rng, lines.shape[0], 1)
    ins, dels = batch
    old_shadow, new_shadow = shadows_after(lines, [batch])[:2]
    rects = np.array([[0, 0, DOMAIN, DOMAIN],
                      [50, 50, 700, 700],
                      [200, 100, 900, 500],
                      [0, 300, 400, 1000]], dtype=float)
    # a long coalescing window parks the reads until after the
    # mutation is submitted -- the binding must already have happened
    with SpatialQueryEngine(structure="pmr", shards=4, workers=2,
                            max_batch=256, max_wait=0.25) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        reads = [eng.submit_window(fp, r) for r in rects]
        mut_del = eng.submit_delete(fp, dels)
        mut_ins = eng.submit_insert(fp, ins)
        eng.flush()
        res_del = mut_del.result(120)
        res_ins = mut_ins.result(120)
        # both mutation probes coalesced into one commit: one version
        assert res_del.version == res_ins.version == 1
        assert res_del.num_lines == new_shadow.shape[0]
        for fut, rect in zip(reads, rects):
            got = fut.result(120)
            assert fut.version == 0, fut.version
            assert np.array_equal(got, brute_window_query(old_shadow, rect))
        after = [eng.submit_window(fp, r) for r in rects]
        eng.flush()
        for fut, rect in zip(after, rects):
            got = fut.result(120)
            assert fut.version == 1
            assert np.array_equal(got, brute_window_query(new_shadow, rect))
        snap = eng.snapshot()
        assert snap["failed"] == 0
        assert snap["partial_results"] == 0
        assert snap["mutation_failures"] == 0


def test_concurrent_readers_survive_version_churn():
    """Readers race a writer through several commits; every answer must
    match the shadow of exactly the version its future reports, even
    for versions already past the retention horizon when they settle."""
    lines = np.unique(random_segments(100, DOMAIN, 64, seed=5), axis=0)
    rng = np.random.default_rng(11)
    batches = seeded_batches(rng, lines.shape[0], 4)
    # the writer commits each batch as two sync mutations (delete,
    # then insert), so track one shadow per committed version
    shadows = [lines]
    cur = lines
    for ins, dels in batches:
        keep = np.ones(cur.shape[0], dtype=bool)
        keep[dels] = False
        cur = cur[keep]
        shadows.append(cur)
        cur = np.vstack([cur, ins])
        shadows.append(cur)
    rects = [np.array(r, dtype=float)
             for r in ([0, 0, DOMAIN, DOMAIN], [100, 100, 800, 800],
                       [0, 0, 300, 900])]
    failures = []
    with SpatialQueryEngine(structure="pmr", shards=4, workers=4,
                            max_batch=16, max_wait=0.002,
                            versions_retained=2) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        stop = threading.Event()

        def reader(rid):
            local = np.random.default_rng(1000 + rid)
            while not stop.is_set():
                rect = rects[local.integers(0, len(rects))]
                fut = eng.submit_window(fp, rect)
                try:
                    got = fut.result(120)
                except Exception as exc:  # pragma: no cover - surfaced below
                    failures.append((rid, "error", exc))
                    continue
                want = brute_window_query(shadows[fut.version], rect)
                if not np.array_equal(got, want):
                    failures.append((rid, "mismatch", fut.version))

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        try:
            for ins, dels in batches:
                eng.delete_lines(fp, dels)
                eng.insert_lines(fp, ins)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not failures
        snap = eng.snapshot()
        assert snap["failed"] == 0 and snap["mutation_failures"] == 0
        health = eng.health()
        # 4 batches x (delete, insert) sync wrappers = 8 versions
        assert health["versions_committed"] == 8
        assert health["versions_collected"] > 0   # retention did collect


def test_live_server_interleaved_reads_and_writes():
    """Wire-level: pipelined windows around an insert; every response is
    a 200 whose result matches the brute oracle of the version it
    echoes, and the insert's version partitions them cleanly."""
    from repro.net import ServeClient, ServerThread

    lines = np.unique(random_segments(90, DOMAIN, 64, seed=7), axis=0)
    extra = [[10.0, 10.0, 25.0, 30.0], [500.0, 500.0, 620.0, 580.0]]
    new_shadow = np.vstack([lines, extra])
    rect = [0.0, 0.0, float(DOMAIN), float(DOMAIN)]
    with SpatialQueryEngine(structure="pmr", shards=4, workers=2) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        with ServerThread(eng) as st:
            with ServeClient(st.host, st.port) as c:
                reqs = []
                for i in range(6):
                    reqs.append({"id": f"w{i}", "kind": "window",
                                 "fingerprint": fp, "rect": rect})
                reqs.insert(3, {"id": "mut", "kind": "insert",
                                "fingerprint": fp, "lines": extra})
                for req in reqs:
                    c.send_only(req)
                resps = {}
                while len(resps) < len(reqs):
                    resp = c.recv()
                    assert resp is not None
                    resps[resp["id"]] = resp
    by_version = {0: brute_window_query(lines, np.asarray(rect)).tolist(),
                  1: brute_window_query(new_shadow,
                                        np.asarray(rect)).tolist()}
    assert resps["mut"]["status"] == 200
    assert resps["mut"]["version"] == 1
    assert resps["mut"]["result"]["num_lines"] == new_shadow.shape[0]
    seen_versions = set()
    for i in range(6):
        resp = resps[f"w{i}"]
        assert resp["status"] == 200, resp
        assert resp["result"] == by_version[resp["version"]], \
            (i, resp["version"])
        seen_versions.add(resp["version"])
    # the reads pipelined before the insert must have bound version 0
    assert 0 in seen_versions
