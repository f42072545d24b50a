"""The one job vocabulary: interpreter parity, fault-site arithmetic,
degraded-path accounting.

``worker._OPS`` is the only place a kernel is chosen and the engine's
group pipeline the only place a job is submitted, settled and counted;
these cells pin the properties that rest on that:

* every ``JobSpec.op`` interpreted over the registry gives array-equal
  ``values`` and identical ``steps`` / ``primitives`` to the same
  kernels called directly on freshly built trees;
* the pipeline fires each fault site exactly as often as the dispatch
  paths it replaced (chaos plans count arrivals);
* a failing degraded (brute) job is counted as failed, an answering one
  as a fallback;
* a failed sharded wave takes the same failure path as every other
  group (breaker feed, one brute re-issue, ``failed`` counted once).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.brute import brute_point_query, brute_window_query
from repro.engine import (FaultPlan, FaultSpec, IndexKey, IndexRegistry,
                          InjectedFault, SpatialQueryEngine, worker)
from repro.engine.worker import JobSpec
from repro.geometry import random_segments
from repro.machine import Machine, use_machine
from repro.baselines import brute_nearest
from repro.structures import brute_join, index_join
from repro.structures.batch import KINDS, _pairs, _views
from repro.structures.sharded import build_index, index_wave

DOMAIN = 512
FULL = [0.0, 0.0, float(DOMAIN), float(DOMAIN)]


def make_lines(seed, n=140):
    return np.unique(random_segments(n, DOMAIN, 56, seed=seed), axis=0)


def make_windows(k, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, DOMAIN * 0.8, (k, 2))
    hi = np.minimum(lo + rng.uniform(8, DOMAIN * 0.35, (k, 2)), DOMAIN)
    return np.hstack([lo, hi])


def make_points(k, seed, lines):
    rng = np.random.default_rng(seed)
    mids = 0.5 * (lines[:, 0:2] + lines[:, 2:4])
    return mids[rng.integers(0, mids.shape[0], k)]


# -- fault-site arithmetic ----------------------------------------------------

#: zero-delay latency specs never change an answer, so the fired count
#: of each is the number of times the pipeline *arrived* at that site
COUNTING_PLAN = FaultPlan(specs=(
    FaultSpec(site="registry.get", kind="latency"),
    FaultSpec(site="executor.job", kind="latency"),
    FaultSpec(site="shard.query", kind="latency"),
))


def _drive(eng, fp, other, lines):
    """A fixed wave sequence: 3 window groups, 1 point, 1 nearest, 1 join."""
    for seed in (11, 12, 13):
        futs = [eng.submit_window(fp, r) for r in make_windows(6, seed)]
        eng.flush()
        [f.result(30) for f in futs]
    pts = make_points(5, 14, lines)
    for submit in (eng.submit_point, eng.submit_nearest):
        futs = [submit(fp, p) for p in pts]
        eng.flush()
        [f.result(30) for f in futs]
    eng.join(fp, other, timeout=30)


@pytest.mark.parametrize("shards, want_faults, want_hits", [
    # values recorded at the parent commit (2cf12a1), thread backend.
    # A sharded group is one job like an unsharded one, so shards=4 runs
    # the same 6 jobs (5 probe waves and the join) -- it was 19 when
    # every probed shard was a job of its own; the 18 shard queries are
    # the same, now counted inside those jobs.
    (1, {"registry.get": 8, "executor.job": 6}, 6),
    (4, {"registry.get": 8, "executor.job": 6, "shard.query": 18}, 6),
])
def test_fault_site_arithmetic_is_pinned(shards, want_faults, want_hits):
    lines, other = make_lines(1), make_lines(2, n=60)
    with SpatialQueryEngine(shards=shards, workers=1, max_batch=64,
                            max_wait=5.0, fault_plan=COUNTING_PLAN) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        fo = eng.register(other, domain=DOMAIN)
        eng.warm(fp)
        _drive(eng, fp, fo, lines)
        snap = eng.snapshot()
        assert snap["failed"] == 0
        assert snap["faults_injected"] == want_faults
        assert snap["cache"]["hits"] == want_hits


# -- interpreter parity -------------------------------------------------------

STRUCTURES = ("pmr", "pm1", "rtree")
PARAMS = {"pmr": {"capacity": 8}, "pm1": {},
          "rtree": {"min_fill": 2, "capacity": 8}}


class _Maps:
    """Three registered maps and the keys naming their indexes."""

    def __init__(self):
        self.registry = IndexRegistry()
        self.lines = make_lines(5)
        self.fps = [self.registry.register(arr, domain=dom) for arr, dom in
                    ((self.lines, DOMAIN), (make_lines(6, n=60), DOMAIN),
                     (make_lines(7, n=40), 2 * DOMAIN))]

    def ref(self, structure, which=0, **extra):
        return IndexKey.make(self.fps[which], structure,
                             **PARAMS[structure], **extra)

    def fresh_tree(self, key):
        """``key``'s index built anew, outside the registry."""
        with use_machine(Machine()):
            return build_index(self.registry.dataset(key.fingerprint),
                               self.registry.domain(key.fingerprint),
                               key.structure, **dict(key.params))


@pytest.fixture
def maps():
    return _Maps()


def _same(a, b):
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if a is None or isinstance(a, str):
        return a == b
    return np.array_equal(np.asarray(a), np.asarray(b))


def _direct(maps, spec, machine):
    """What ``spec`` asks for, from the kernels called directly:
    ``(values, shards)``."""
    kind = KINDS[spec.kinds] if spec.op != "join" else None
    if spec.op == "batch":
        (ids, ptr, nid, nd), shards = index_wave(
            maps.fresh_tree(spec.index), spec.kinds, spec.payloads,
            spec.exact, machine)
        if kind == "nearest":
            return _pairs(nid, nd), shards
        return _views(ids, ptr), shards
    if spec.op == "brute":
        lines = maps.registry.dataset(spec.index.fingerprint)
        if kind == "window":
            return [brute_window_query(lines, r) for r in spec.payloads], ()
        return [(brute_point_query if kind == "point"
                 else brute_nearest)(lines, float(x), float(y))
                for x, y in spec.payloads], ()
    out = []
    for key_a, key_b in spec.pairs:
        try:
            if spec.brute:
                pairs = brute_join(maps.registry.dataset(key_a.fingerprint),
                                   maps.registry.dataset(key_b.fingerprint))
            else:
                pairs = index_join(maps.fresh_tree(key_a),
                                   maps.fresh_tree(key_b), machine)
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            out.append(("err", exc))
        else:
            out.append(("ok", pairs))
    return out, ()


def assert_parity(maps, spec, refs):
    """One spec, interpreted and called directly: equal values,
    identical accounting.

    The interpreter resolves through the registry, warmed first through
    ``refs`` (none: the spec itself pays the cold resolve).
    """
    for ref in refs:
        maps.registry.get(ref.fingerprint, ref.structure, **dict(ref.params))
    machine = Machine()
    with use_machine(machine):
        got = worker.interpret(maps.registry, spec, machine)
    direct = Machine()
    with use_machine(direct):
        values, shards = _direct(maps, spec, direct)
    assert _same(got.values, values)
    assert got.steps == direct.steps
    assert got.primitives == direct.total_primitives
    assert got.shards == shards
    return got


def _payloads(maps, kind):
    return (make_windows(7, 21) if kind == "window"
            else make_points(7, 22, maps.lines))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("kind", ["window", "point", "nearest"])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_parity_batch_and_brute(maps, structure, kind, exact):
    ref = maps.ref(structure)
    spec = JobSpec(op="batch", kinds=KINDS.index(kind), index=ref,
                   payloads=_payloads(maps, kind), exact=exact)
    got = assert_parity(maps, spec, [ref])
    assert len(got.values) == 7 and got.steps > 0
    assert_parity(maps, replace(spec, op="brute"), [])


@pytest.mark.parametrize("structure", STRUCTURES)
def test_parity_cold_build_is_charged_to_neither_job(maps, structure):
    """A cold registry builds under a machine of its own: the job that
    triggers the build reports its kernel steps only, like a warm one."""
    ref = maps.ref(structure)
    spec = JobSpec(op="batch", kinds=KINDS.index("window"), index=ref,
                   payloads=_payloads(maps, "window"))
    cold = assert_parity(maps, spec, [])
    assert maps.registry.misses == 1
    warm = assert_parity(maps, spec, [])
    assert maps.registry.hits == 1
    assert (cold.steps, cold.primitives) == (warm.steps, warm.primitives)
    assert maps.registry.peek(IndexKey.make(
        ref.fingerprint, ref.structure, **dict(ref.params))).build_steps > 0


@pytest.mark.parametrize("kind", ["window", "point", "nearest"])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_parity_shard(maps, structure, kind):
    """A ``batch`` spec over a sharded ref is one wave over every
    planned shard: same values, steps and shard counts both ways."""
    ref = maps.ref(structure, shards=3, ordering="hilbert")
    got = assert_parity(maps, JobSpec(op="batch", kinds=KINDS.index(kind),
                                      index=ref,
                                      payloads=_payloads(maps, kind)),
                        [ref])
    total, probed, dropped, completed = got.shards
    assert total == 3 and 0 < probed <= 3 and dropped == 0
    assert completed >= probed


@pytest.mark.parametrize("structure", STRUCTURES)
def test_parity_join_warm(maps, structure):
    a, b = maps.ref(structure), maps.ref(structure, 1)
    # a pair whose second index cannot be built (unknown shard ordering):
    # every pair of built indexes joins, across families and domains
    bad = maps.ref(structure, 1, shards=2, ordering="zorder")
    spec = JobSpec(op="join", pairs=((a, b), (a, bad)))
    got = assert_parity(maps, spec, [a, b])
    assert [status for status, _ in got.values] == ["ok", "err"]
    assert len(got.values[0][1])
    brute = assert_parity(maps, JobSpec(op="join", pairs=((a, b),),
                                        brute=True), [])
    assert [status for status, _ in brute.values] == ["ok"]
    assert np.array_equal(brute.values[0][1], got.values[0][1])


# -- degraded-path accounting -------------------------------------------------


def test_degraded_path_accounting():
    """A brute job that fails is counted as failed, one that answers as
    a fallback with a ``brute:read`` (or ``brute:join``) batch row, and
    every row carries its latency sample."""
    plan = FaultPlan(specs=(
        FaultSpec(site="executor.job", kind="error", times=1),))
    lines, other = make_lines(3), make_lines(4, n=60)
    with SpatialQueryEngine(workers=1, fault_plan=plan,
                            brute_fallback=True, breaker_threshold=1,
                            breaker_reset=600.0) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        fo = eng.register(other, domain=DOMAIN)
        eng.breakers.record_failure(fp)   # threshold 1: forced open
        with pytest.raises(InjectedFault):
            eng.window(fp, FULL, timeout=60)
        assert np.array_equal(eng.window(fp, FULL, timeout=60),
                              brute_window_query(lines, np.asarray(FULL)))
        assert eng.nearest(fp, (9.0, 9.0), timeout=60) \
            == brute_nearest(lines, 9.0, 9.0)
        assert np.array_equal(eng.join(fp, fo, timeout=60),
                              brute_join(lines, other))
        snap = eng.snapshot()
        assert snap["failed"] == 1
        assert snap["fallbacks"] == 3
        assert snap["batches"] == 3 and snap["completed"] == 3
        assert {name: row["batches"]
                for name, row in snap["per_index"].items()} \
            == {"brute:read": 2, "brute:join": 1}
        assert eng.stats.latency.count == 3   # every row carries its elapsed
        assert eng.breakers.state(fp) == "open"   # brute feeds no breaker


@pytest.mark.parametrize("kind", ["window", "point"])
@pytest.mark.parametrize("brute_fallback", [True, False])
def test_failed_shard_job_takes_the_group_failure_path(brute_fallback, kind):
    """One injected ``shard.query`` error trips the breaker (threshold 1):
    with ``brute_fallback`` the whole group is re-issued once as a brute
    spec and every probe answers; without it every probe is rejected."""
    plan = FaultPlan(specs=(
        FaultSpec(site="shard.query", kind="error", times=1),))
    lines = make_lines(8)
    if kind == "window":
        payloads = make_windows(6, 31)
        oracle = [brute_window_query(lines, r) for r in payloads]
    else:
        payloads = make_points(6, 32, lines)
        oracle = [brute_point_query(lines, float(x), float(y))
                  for x, y in payloads]
    with SpatialQueryEngine(shards=4, workers=1, max_wait=5.0,
                            fault_plan=plan, breaker_threshold=1,
                            breaker_reset=600.0,
                            brute_fallback=brute_fallback) as eng:
        fp = eng.register(lines, domain=DOMAIN)
        eng.warm(fp)
        submit = eng.submit_window if kind == "window" else eng.submit_point
        futs = [submit(fp, p) for p in payloads]
        eng.flush()
        if brute_fallback:
            for fut, want in zip(futs, oracle):
                assert np.array_equal(fut.result(60), want)
        else:
            for fut in futs:
                assert isinstance(fut.exception(60), InjectedFault)
        snap = eng.snapshot()
        n = len(payloads)
        assert snap["fallbacks"] == (n if brute_fallback else 0)
        assert snap["failed"] == (0 if brute_fallback else n)
        assert snap["faults_injected"] == {"shard.query": 1}
        assert eng.breakers.state(fp) == "open" and snap["breaker_trips"] == 1
        if brute_fallback:
            assert set(snap["per_index"]) == {"brute:read"}
