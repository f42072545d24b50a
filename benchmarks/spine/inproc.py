"""``build_scan`` and ``batch_query``: the program is a fresh worker process.

The parent half (:func:`run`) spawns ``run.py --child`` and times spawn
-> ``READY`` (``setup_s``); the child half (:func:`child_main`) sets the
workload up, prints ``READY``, runs the timed rounds, reads its own
``VmHWM`` and only then pays for the oracle checks.  With ``--trace`` the
same child runs a second, wrapped pass, so the tracing overhead is a
ratio of two passes of one process.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable, Dict, Tuple

import numpy as np

from repro import (EngineConfig, IndexStore, Machine, SpatialQueryEngine,
                   brute_window_query, build_bucket_pmr, build_pm1,
                   build_rtree, clustered_map, random_segments, use_machine)

from . import measure, probes
from .spec import BATCH_QUERY, BUILD_SCAN, COLD_STARTS, MAP, TRACE_SHARE

# -- build_scan ---------------------------------------------------------------------


class BuildScan:
    """Op = one cycle of four scan-model builds, back to back."""

    op_kind = "cycle"
    warmup = BUILD_SCAN["warmup_cycles"]
    round_ops = BUILD_SCAN["round_ops"]

    def __init__(self, seed: int):
        p = BUILD_SCAN
        t0 = perf_counter()
        uniform = random_segments(p["uniform_n"], domain=p["uniform_domain"],
                                  max_len=p["uniform_max_len"], seed=seed)
        # sparse and deduplicated: PM1 rejects duplicate lines, and dense
        # crossing segments are the pathology bench's subject, not ours
        sparse = np.unique(random_segments(
            p["pm1_n"], domain=p["pm1_domain"], max_len=p["pm1_max_len"],
            seed=seed + 1), axis=0)
        clustered = clustered_map(
            p["clustered_n"], clusters=p["clustered_clusters"],
            spread=p["clustered_spread"], domain=p["uniform_domain"],
            seed=seed + 2)
        self.generate_s = perf_counter() - t0
        dom, cap = p["uniform_domain"], p["capacity"]
        # (structure, builder, arguments, domain the oracle probes)
        self.jobs = [
            ("pmr", build_bucket_pmr, (uniform, dom, cap), dom),
            ("rtree", build_rtree, (uniform, p["min_fill"], cap), dom),
            ("pm1", build_pm1, (sparse, p["pm1_domain"]), p["pm1_domain"]),
            ("pmr", build_bucket_pmr, (clustered, dom, cap), dom),
        ]
        self.units_per_op = sum(job[2][0].shape[0] for job in self.jobs)
        self.seed = seed
        self.built: list = []
        self.machine = Machine()

    def op(self, i: int, span: Callable = probes._call) -> bool:
        machine = Machine()
        with use_machine(machine):
            self.built = [span(f"structures.build.{name}", fn, *args)
                          for name, fn, args, _ in self.jobs]
        self.machine = machine
        return True

    def install(self, rec) -> None:
        from .tracing import wrap_build_layers
        wrap_build_layers(rec)

    def counters(self) -> dict:
        return {}

    def layers(self, rec, ops: int, before: dict) -> Dict[str, float]:
        times = rec.self_times()
        out = {"geometry.generate_s": self.generate_s,
               # one cycle's scan-model accounting: repeats exactly
               "machine.steps": self.machine.steps,
               "machine.primitives": self.machine.total_primitives,
               "structures.build_rounds":
                   sum(trace.num_rounds for _, trace in self.built)}
        calls = 0
        for name, (self_s, n) in times.items():
            layer = name.split(".")[0]
            if layer in ("machine", "primitives"):
                out[f"{name}_busy_s"] = self_s / ops
            if layer == "primitives":
                calls += n
            if name.startswith("structures.build."):
                out["structures.build_self_s." + name.rsplit(".", 1)[1]] = \
                    self_s / ops
        out["primitives.calls"] = calls / ops
        return out

    def oracle(self, corrupt: bool) -> Tuple[int, int]:
        """Every build of the last cycle probed with seeded windows."""
        rng = np.random.default_rng([self.seed, 0x0AC1E])
        checked = bad = 0
        for (_, _, args, domain), (tree, _) in zip(self.jobs, self.built):
            lines = args[0]
            for _ in range(BUILD_SCAN["oracle_windows"]):
                side = rng.uniform(domain / 256, domain / 8)
                x, y = rng.random(2) * (domain - side)
                rect = [x, y, x + side, y + side]
                got = np.unique(tree.window_query(rect))
                if corrupt and checked == 0:
                    got = np.append(got, lines.shape[0])   # self-test
                bad += not np.array_equal(
                    got, brute_window_query(lines, rect))
                checked += 1
        return checked, bad

    def close(self) -> None:
        pass


# -- batch_query ---------------------------------------------------------------------


class BatchQuery:
    """Op = one wave of probes through an in-process engine."""

    op_kind = "wave"
    warmup = BATCH_QUERY["warmup_waves"]
    round_ops = BATCH_QUERY["round_ops"]
    units_per_op = BATCH_QUERY["wave"]

    def __init__(self, seed: int):
        p = BATCH_QUERY
        t0 = perf_counter()
        self.lines = probes.serve_map(seed)
        self.generate_s = perf_counter() - t0
        self.pool = probes.make_pool(self.lines, p["wave"] * p["pool_waves"],
                                     seed)
        self.engine = SpatialQueryEngine(EngineConfig())
        self.fp = self.engine.register(self.lines, domain=MAP["domain"])
        for structure in p["structures"]:
            self.engine.warm(self.fp, structure)
        self.answers: Dict[int, list] = {}

    def _wave(self, w: int) -> range:
        size = BATCH_QUERY["wave"]
        return range(w * size, (w + 1) * size)

    def op(self, i: int, span: Callable = probes._call) -> bool:
        p = BATCH_QUERY
        w = i % p["pool_waves"]
        # pool_waves is a multiple of the structure count, so a pool wave
        # always meets the same structure
        structure = p["structures"][w % len(p["structures"])]
        out = probes.run_wave(self.engine, self.fp, self.pool, self._wave(w),
                              structure, span)
        if w < len(p["structures"]):
            self.answers[w] = out      # the oracle's sample
        return True

    def install(self, rec) -> None:
        from repro.engine import Coalescer, IndexRegistry
        from repro.structures import batch
        from .tracing import wrap_method, wrap_public
        for name in batch.__all__:
            wrap_public(rec, getattr(batch, name), "structures.kernel")
        wrap_method(rec, Coalescer, "submit", "engine.coalescer_submit")
        wrap_method(rec, IndexRegistry, "get", "engine.registry_get")

    def counters(self) -> dict:
        snap = self.engine.snapshot()
        return {"batches": snap["batches"], "completed": snap["completed"],
                "hits": snap["cache"]["hits"],
                "misses": snap["cache"]["misses"],
                "retries": snap["retries_total"],
                "rejected": snap["rejected_total"],
                "failed": snap["failed"],
                "partial": snap["partial_results"]}

    def layers(self, rec, ops: int, before: dict) -> Dict[str, float]:
        p = BATCH_QUERY
        delta = {k: v - before[k] for k, v in self.counters().items()}
        out = {
            "geometry.generate_s": self.generate_s,
            # engine counters are per op (wave) over the traced pass
            "engine.batches": delta["batches"] / ops,
            "engine.mean_batch_size":
                delta["completed"] / max(delta["batches"], 1),
            "engine.cache_hits": delta["hits"] / ops,
            "engine.cache_misses": delta["misses"] / ops,
            "engine.retries_total": delta["retries"],
            "engine.rejected_total": delta["rejected"],
            "engine.failed": delta["failed"],
            "engine.partial_results": delta["partial"],
        }
        waves = [self._wave(w) for w in range(16)]
        entries = {s: self.engine.registry.get(
            self.fp, s, **probes.index_params(self.engine.config, s))
            for s in p["structures"]}
        out.update(probes.kernel_ladder(
            {s: e.tree for s, e in entries.items()}, self.pool, waves))
        out.update(probes.engine_ladder(self.engine, self.fp, self.pool,
                                        waves, p["structures"]))
        out["engine.tax_ratio"] = (out["engine.us_per_probe"]
                                   / out["structures.kernel_us"])
        out.update(self._store_layer(entries))
        out["engine.commit_ms"] = self._commit_ms()
        return out

    def _store_layer(self, entries: dict) -> Dict[str, float]:
        tmp = measure.make_tmp("store")
        try:
            store = IndexStore(tmp)
            put = load = size = 0.0
            for entry in entries.values():
                t0 = perf_counter()
                path = store.put(entry.key, entry.tree)
                t1 = perf_counter()
                if store.get(entry.key) is None:
                    raise RuntimeError("IndexStore lost an entry it just put")
                load += perf_counter() - t1
                put += t1 - t0
                size += os.path.getsize(path)
            return {"store.put_ms": put * 1e3, "store.load_ms": load * 1e3,
                    "store.bytes_per_input_byte":
                        size / (len(entries) * self.lines.nbytes)}
        finally:
            measure.drop_tmp(tmp)

    def _commit_ms(self) -> float:
        """Three inserts of 8 distinct rows each (in-domain mirror images of
        existing rows, so no commit restores an earlier content)."""
        spent = []
        for k in range(3):
            rows = MAP["domain"] - self.lines[8 * k:8 * k + 8]
            t0 = perf_counter()
            self.engine.submit_insert(self.fp, rows).result()
            spent.append(perf_counter() - t0)
        return statistics.median(spent) * 1e3

    def oracle(self, corrupt: bool) -> Tuple[int, int]:
        checked = bad = 0
        for w, out in sorted(self.answers.items()):
            for i, answer in zip(self._wave(w), out):
                if corrupt and checked == 0:
                    answer = list(answer)[1:]              # self-test
                bad += not probes.answer_ok(
                    self.lines, self.pool.kind[i], self.pool.rect[i],
                    self.pool.pt[i], answer)
                checked += 1
        return checked, bad

    def close(self) -> None:
        self.engine.close()


STATES = {"build_scan": BuildScan, "batch_query": BatchQuery}


# -- child half ------------------------------------------------------------------------

def child_main(workload: str, seed: int, seconds: float, trace: bool,
               setup_only: bool, corrupt: bool) -> int:
    state = STATES[workload](seed)
    print("READY", flush=True)
    try:
        if setup_only:
            return 0
        if trace:
            seconds *= TRACE_SHARE
        for i in range(state.warmup):
            state.op(i)
        rounds = _rounds(state, seconds, state.op)
        attempted, failed = measure.count_ops(rounds)
        result = {
            "rounds": measure.summarize_rounds(rounds, state.units_per_op),
            "peak_rss_mb": measure.peak_rss_mb(os.getpid()),
            "attempted": attempted, "failed": failed,
            "op": state.op_kind, "units_per_op": state.units_per_op,
        }
        if trace:
            result["layers"] = _traced_pass(state, workload, seconds,
                                            result["rounds"])
        checked, bad = state.oracle(corrupt)
        result["attempted"] += checked
        result["failed"] += bad
        result["oracle_checked"] = checked
        print(json.dumps(result), flush=True)
        return 0
    finally:
        state.close()


def _rounds(state, seconds: float, do_op: Callable[[int], bool]) -> list:
    return measure.timed_rounds(
        seconds, lambda r: measure.sequential_round(
            state.round_ops, do_op, state.warmup + r * state.round_ops))


def _traced_pass(state, workload: str, seconds: float,
                 untraced: dict) -> Dict[str, float]:
    from .tracing import Recorder
    rec = Recorder()
    state.install(rec)

    def traced_op(i: int) -> bool:
        rec.op_id = i
        try:
            return rec.call("op", state.op, i, rec.call)
        finally:
            rec.op_id = -1

    before = state.counters()
    rounds = _rounds(state, seconds, traced_op)
    ops = sum(len(r["lat"]) for r in rounds)
    traced = measure.summarize_rounds(rounds, state.units_per_op)
    layers = state.layers(rec, ops, before)
    layers["trace.overhead_ratio"] = (traced["work_per_s"]["value"]
                                      / untraced["work_per_s"]["value"])
    layers["trace.span_coverage"] = rec.coverage("op")
    layers["trace.spans"] = rec.flush(
        measure.out_path(f"spans-{workload}.jsonl"))
    return layers


# -- parent half -------------------------------------------------------------------------

def _spawn(workload: str, seed: int, seconds: float, trace: bool,
           setup_only: bool, corrupt: bool) -> Tuple[float, dict]:
    """One fresh worker: (spawn -> READY seconds, its result or {})."""
    argv = [sys.executable, str(measure.HERE / "run.py"), "--child",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    argv += ["--setup-only"] if setup_only else []
    argv += ["--self-test-corrupt"] if corrupt else []
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          env=measure.child_env()) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
        except BaseException:      # interrupted: do not wait out its run
            proc.kill()
            raise
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"{workload} worker failed "
                           f"(exit {proc.returncode})")
    return setup_s, ({} if setup_only else json.loads(rest.splitlines()[-1]))


def run(workload: str, seed: int, seconds: float, trace: bool,
        corrupt: bool) -> dict:
    # a traced run reports no setup_s, so it skips the extra cold starts
    setups = [_spawn(workload, seed, seconds, False, True, False)[0]
              for _ in range(0 if trace else COLD_STARTS - 1)]
    setup_s, result = _spawn(workload, seed, seconds, trace, False, corrupt)
    result["setup_s"] = measure.median_iqr(setups + [setup_s])
    return result
