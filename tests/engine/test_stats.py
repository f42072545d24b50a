"""The counter table: export contract, one declaration per counter,
exact counting, and the event column.

``golden/stats_contract.json`` was recorded by running
:func:`seeded_script` (public API only) at the parent of the change that
introduced the table -- flattened ``engine.snapshot()`` /
``engine.health()`` paths with their values (``null`` where the value is
a timing or a temp path), the process backend's ``executor`` block, the
wire ``health`` body and ``ServerStats.snapshot()`` keys.  A counter may
be added (re-record), but no key may silently move, vanish or change
meaning.
"""

import inspect
import json
import os
import re
import sys
import threading

import numpy as np
import pytest

from repro.counters import Counter, Counters
from repro.durability import journal as journal_mod
from repro.engine import (EngineStats, FaultPlan, FaultSpec, RejectedError,
                          SpatialQueryEngine, executor as executor_mod)
from repro.engine import stats as stats_mod
from repro.engine.stats import COUNTERS, EXEC, TOP, WAL
from repro.geometry import random_segments
from repro.net.server import ServerStats, SpatialServer
from repro.resilience import breaker as breaker_mod
from repro.store import store as store_mod

DOMAIN = 512
GOLDEN = json.load(open(os.path.join(os.path.dirname(__file__), "golden",
                                     "stats_contract.json")))


def _windows(k, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, DOMAIN * 0.8, (k, 2))
    hi = np.minimum(lo + rng.uniform(8, DOMAIN * 0.35, (k, 2)), DOMAIN)
    return np.hstack([lo, hi])


def seeded_script(tmp, executor="thread"):
    """Register, 40 mixed probes (the first wave of 8 hits one injected
    ``registry.get`` error), one insert, one delete, one rejected submit
    after close.  Flush-driven batching, one worker: every count repeats."""
    lines = np.unique(random_segments(140, DOMAIN, 56, seed=5), axis=0)
    mids = 0.5 * (lines[:, 0:2] + lines[:, 2:4])
    plan = FaultPlan(specs=(FaultSpec(site="registry.get", kind="error",
                                      times=1, after=1),))
    eng = SpatialQueryEngine(executor=executor, workers=1, shards=2,
                             max_batch=64, max_wait=5.0, fault_plan=plan,
                             journal_dir=os.path.join(tmp, "wal"))
    fp = eng.register(lines, domain=DOMAIN)
    eng.warm(fp)

    def wave(futs):
        eng.flush()
        return [f.exception(60) for f in futs]

    assert all(wave([eng.submit_window(fp, r) for r in _windows(8, 1)]))
    assert not any(wave(
        [eng.submit_window(fp, r) for r in _windows(8, 2)]
        + [eng.submit_point(fp, p) for p in mids[:12]]
        + [eng.submit_nearest(fp, p) for p in mids[12:24]]))
    eng.insert_lines(fp, [[1.0, 2.0, 30.0, 40.0]], timeout=60)
    eng.delete_lines(fp, [0], timeout=60)
    eng.close()
    rejected = eng.submit_window(fp, [0, 0, 10, 10])
    assert isinstance(rejected.exception(1), RejectedError)
    return eng


def flatten(obj, prefix=""):
    """Nested dicts -> ``{"a/b/c": leaf}`` (an empty dict is a leaf)."""
    if not isinstance(obj, dict) or not obj:
        return {prefix: obj}
    out = {}
    for k, v in obj.items():
        out.update(flatten(v, f"{prefix}/{k}" if prefix else str(k)))
    return out


def assert_matches(got, golden):
    got = json.loads(json.dumps(flatten(got)))   # tuples -> lists, like golden
    assert sorted(got) == sorted(golden)
    diffs = {k: (got[k], want) for k, want in golden.items()
             if want is not None and got[k] != want}
    assert not diffs


# -- (1) contract -------------------------------------------------------------


def test_seeded_script_exports_the_recorded_keys_and_values(tmp_path):
    eng = seeded_script(str(tmp_path))
    assert_matches(eng.snapshot(), GOLDEN["snapshot"])
    health = eng.health()
    assert_matches(health, GOLDEN["health"])
    assert health["wal"]["enabled"] and health["wal"]["journals"]
    wire = SpatialServer(eng).health()
    assert sorted(wire) == GOLDEN["wire_health"]["top"]
    assert sorted(wire["server"]) == GOLDEN["wire_health"]["server"]
    assert sorted(wire["server"]["admission"]) \
        == GOLDEN["wire_health"]["admission"]
    assert wire["engine"].keys() == health.keys()


@pytest.mark.slow
def test_process_executor_block_exports_the_recorded_keys(tmp_path):
    eng = seeded_script(str(tmp_path), executor="process")
    assert sorted(flatten(eng.health()["executor"])) \
        == GOLDEN["executor_process"]
    (row,) = eng.snapshot()["workers"].values()
    assert sorted(row) == GOLDEN["snapshot_process_workers_row"]
    # the thread-side values hold on the process backend too
    want = {k: v for k, v in GOLDEN["snapshot"].items()
            if k.split("/")[0] in ("submitted", "completed", "failed",
                                   "batches", "rejected", "per_kind",
                                   "faults_injected", "wal_appends",
                                   "mutation_batches", "shard_batches")}
    got = flatten(eng.snapshot())
    assert {k: got[k] for k in want} == want


def test_server_stats_snapshot_keys_and_values():
    stats = ServerStats()
    assert list(stats.snapshot()) == GOLDEN["server_stats"]
    stats.record_request("window")
    stats.inc(per_status={429: 1})
    stats.inc(per_status={200: 2})
    stats.bytes_in += 5          # the loop-thread handlers' direct bumps
    stats.connections_open -= 1
    snap = stats.snapshot()
    assert snap["requests_total"] == 1 and snap["per_kind"] == {"window": 1}
    assert list(snap["per_status"].items()) == [("200", 2), ("429", 1)]
    assert snap["bytes_in"] == 5 and snap["connections_open"] == -1


# -- (2) one declaration per counter -------------------------------------------


def test_every_row_is_declared_once_and_exported_once():
    names = [row.name for row in COUNTERS]
    assert len(set(names)) == len(names)
    source = inspect.getsource(stats_mod)
    for name in names:
        assert len(re.findall(rf'Counter\("{name}"', source)) == 1, name
    stats = EngineStats()
    snap = stats.snapshot()
    derived = set(snap) - set(names)
    assert derived == {"rejected_total", "retries_total", "mean_batch_size",
                       "max_batch_size", "mean_shards_probed",
                       "shard_skip_rate", "per_index", "workers",
                       "latency_p50_ms", "latency_p95_ms"}
    assert len(snap) == len(names) + len(derived)
    for row in COUNTERS:   # read access by attribute, labelled rows as dicts
        assert getattr(stats, row.name) == ({} if row.labels is not None
                                            else 0)
    assert {row.group for row in COUNTERS} == {"", TOP, WAL, EXEC}


def test_health_blocks_are_the_table_groups():
    with SpatialQueryEngine(workers=1) as eng:
        health = eng.health()
    for row in COUNTERS:
        if row.group == TOP:
            assert row.name in health
        elif row.group == WAL:
            assert row.name in health["wal"]
        else:   # snapshot-only rows and the process-only executor block
            assert row.name not in health and row.name not in health["wal"]
    assert set(health["executor"]) == {"backend", "workers"}


def test_undeclared_names_raise():
    stats = EngineStats()
    with pytest.raises(KeyError):
        stats.inc(no_such_counter=1)
    with pytest.raises(KeyError):
        stats.event("no_such_event")
    with pytest.raises(AttributeError):
        stats.no_such_counter


# -- (3) exactness under contention --------------------------------------------


def test_concurrent_inc_is_exact():
    stats = EngineStats()
    threads, per_thread = 8, 10_000

    def hammer(i):
        for _ in range(per_thread):
            stats.inc(failed=1, fallbacks=2)
            stats.inc(rejected={f"reason{i % 2}": 1})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(i,))
                   for i in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(120)
        assert not any(t.is_alive() for t in workers)
    finally:
        sys.setswitchinterval(old)
    total = threads * per_thread
    assert stats.failed == total and stats.fallbacks == 2 * total
    assert stats.rejected == {"reason0": total // 2, "reason1": total // 2}


# -- (4) the event column ------------------------------------------------------

_EMIT = re.compile(r'_(?:notify|emit|event)\(\s*"(\w+)"'
                   r'(?:\s+if\s+\w+\s+else\s+"(\w+)")?')
_ASSIGNED = re.compile(r'\bevent = "(\w+)"')


def _emitted(module):
    """Every event name a subsystem's source can hand its observer."""
    source = inspect.getsource(module)
    names = {n for pair in _EMIT.findall(source) for n in pair if n}
    return names | set(_ASSIGNED.findall(source))


@pytest.mark.parametrize("module, at_least", [
    (store_mod, {"disk_hit", "disk_miss", "spill", "corrupt_eviction",
                 "disk_eviction", "load_retry"}),
    (journal_mod, {"wal_append", "wal_bytes", "fsync", "wal_abandon",
                   "wal_segment_rotated", "wal_segment_truncated",
                   "torn_tail_truncation", "checkpoint"}),
    (breaker_mod, {"trip", "reopen", "half_open", "close"}),
    (executor_mod, {"restart", "crash_retry", "dataset_shipped",
                    "dataset_ship_bytes", "ipc_sent", "ipc_resent",
                    "ipc_received", "worker_result"}),
])
def test_every_emitted_event_resolves_to_a_row(module, at_least):
    names = _emitted(module)
    assert names >= at_least
    # the one structured event: the engine folds the WorkerResult itself
    names.discard("worker_result")
    stats = EngineStats()
    before = stats.walk()
    for name in sorted(names):
        stats.event(name, 3)
    bumped = {k for k, v in stats.walk().items() if v != before[k]}
    assert len(bumped) >= len(names)   # ipc_sent feeds two rows


def test_event_column_semantics():
    stats = EngineStats()
    stats.event("wal_append")
    stats.event("wal_bytes", 167)
    stats.event("ipc_sent", 4096)      # bytes by n, jobs by one
    stats.event("ipc_sent", 1024)
    stats.event("load_retry")
    stats.event("crash_retry")
    snap = stats.snapshot()
    assert (snap["wal_appends"], snap["wal_bytes"]) == (1, 167)
    assert (snap["ipc_bytes_sent"], snap["ipc_jobs"]) == (5120, 2)
    assert snap["retries"] == {"store.load": 1, "executor.crash": 1}
    assert snap["retries_total"] == 2


def test_a_table_is_rows_plus_the_helper():
    class Tiny(Counters):
        ROWS = (Counter("hits", "g", "hit"), Counter("by_site", labels={}))

    tiny = Tiny()
    tiny.event("hit", 2)
    tiny.inc(hits=1, by_site={"a": 4})
    assert tiny.walk() == {"hits": 3, "by_site": {"a": 4}}
    assert tiny.walk("g") == {"hits": 3}


# -- batch sizes stay bounded --------------------------------------------------


def test_batch_history_is_bounded_and_readouts_match_the_full_list():
    rng = np.random.default_rng(18)
    sizes = rng.integers(1, 257, 100_000).tolist()
    stats = EngineStats()
    for size in sizes:
        stats.record_batch("pmr:window", size, 1.0, 1)
    retained = [v for v in vars(stats).values()
                if isinstance(v, (list, tuple)) or hasattr(v, "maxlen")]
    assert all(len(v) <= 64 for v in retained)
    snap = stats.snapshot()
    # what np.asarray(batch_sizes) gave when the whole history was kept
    full = np.asarray(sizes, dtype=float)
    assert snap["mean_batch_size"] == float(full.mean())
    assert snap["max_batch_size"] == int(full.max())
    assert snap["batches"] == len(sizes) and snap["completed"] == sum(sizes)
