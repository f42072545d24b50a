"""Command-line interface: ``python -m repro <command>``.

Nine subcommands cover the everyday entry points:

``build``
    Generate (or take the paper's) map, run one of the data-parallel
    builds, print the structure summary and the scan-model accounting.
``figures``
    Replay the paper's worked examples (Figures 8, 13-18, 29 and the
    three builds) to stdout.
``join``
    Spatial join of two generated maps through a chosen structure,
    verified against brute force.
``serve``
    Serve the concurrent batched query engine (:mod:`repro.engine`),
    in one of two modes.  ``--demo`` drives it in-process with a mixed
    probe workload from several client threads and prints the serving
    statistics (throughput, batching, cache, latency).  ``--listen
    HOST:PORT`` is the networked mode: an asyncio TCP server
    (:mod:`repro.net`) speaking the length-prefixed JSON protocol,
    with admission control surfacing backpressure/breakers/deadlines
    as structured 429/206/503 responses.  ``--cache-dir`` attaches
    the persistent index store so evicted indexes spill to disk and
    later runs warm-start from it.  ``--backend process`` swaps the
    thread pool for a process pool: shared-nothing workers sidestep
    the GIL, so concurrent batches run on several cores (also on
    ``chaos``).
``mutate``
    Send an insert/delete batch to a running ``serve --listen``
    server.  The engine commits it as a new dataset version (MVCC):
    in-flight reads finish against the snapshot they were admitted
    under, and the response echoes the committed version and
    fingerprint.
``health``
    Scrape a running server's ``health`` request kind -- engine,
    executor, breaker, and server-edge state; ``--json`` emits the
    raw machine-readable document.
``store``
    Inspect and manage a persistent index store directory
    (:mod:`repro.store`): ``ls`` the entries, ``gc`` down to a byte
    budget, ``clear`` everything, or ``prefetch`` -- build an index
    for a generated map and seed the cache with it ahead of serving.
``chaos``
    Run the engine under an injected fault plan
    (:mod:`repro.resilience`): a chaos wave drives probes into
    injected errors, shard stalls, and deadlines, then a recovery
    wave shows the circuit breaker half-opening and closing.  Prints
    per-probe outcomes (ok / partial / circuit-open / ...), the
    breaker life cycle, and the fault-injection accounting.
    ``--plan`` names a built-in example plan or a JSON file.
``journal``
    Inspect a write-ahead mutation journal directory offline
    (:mod:`repro.durability`): ``ls`` the journals with their
    segments, sequence numbers and checkpoint, or ``verify`` --
    replay each into a scratch registry and prove its head by
    fingerprint identity.

Everything is seeded and offline; see ``--help`` on each subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

import numpy as np

from .analysis import format_table, quadtree_stats, rtree_stats
from .engine import EngineConfig, SpatialQueryEngine
from .geometry import clustered_map, paper_dataset, random_segments, road_map
from .machine import Machine, use_machine
from .structures import (
    brute_join,
    build_bucket_pmr,
    build_kdtree,
    build_pm1,
    build_rtree,
    index_join,
)

__all__ = ["main"]

MAPS = ("uniform", "clustered", "street", "paper")
STRUCTURES = ("pmr", "pm1", "rtree", "kdtree")

#: the :class:`EngineConfig` fields ``serve`` exposes, each as the flag
#: of its name (``--backend`` / ``--fsync-policy`` are ``executor`` /
#: ``journal_fsync``): ``_parser`` reads the flag's default from the
#: field and ``_serve_engine`` passes the parsed value straight through
_SERVE_ENGINE_FIELDS = (
    "structure", "capacity", "workers", "executor", "max_batch", "max_wait",
    "queue_depth", "shards", "ordering", "cache_dir", "disk_budget_bytes",
    "shm_budget_bytes", "versions_retained", "journal_dir", "journal_fsync",
    "checkpoint_every")


def _make_map(name: str, n: int, domain: int, seed: int) -> np.ndarray:
    if name == "uniform":
        return random_segments(n, domain=domain, max_len=max(domain // 32, 2),
                               seed=seed)
    if name == "clustered":
        return clustered_map(n, clusters=max(n // 150, 2),
                             spread=max(domain // 24, 4), domain=domain, seed=seed)
    if name == "street":
        side = max(int(np.sqrt(n / 2)), 2)
        return road_map(side, side, domain=domain, jitter=max(domain // 256, 1),
                        seed=seed)
    if name == "paper":
        return paper_dataset()
    raise ValueError(f"unknown map family {name!r}")


def _build_report(args: argparse.Namespace) -> str:
    """Run one build and return the report text."""
    domain = 8 if args.map == "paper" else args.domain
    lines = _make_map(args.map, args.n, domain, args.seed)
    m = Machine(cost_model=args.cost_model, processors=args.processors)
    out: List[str] = []
    with use_machine(m):
        if args.shards > 1:
            if args.structure == "kdtree":
                raise SystemExit("--shards supports pmr, pm1, and rtree only")
            from .structures import build_sharded
            seg_in = (np.unique(lines, axis=0) if args.structure == "pm1"
                      else lines)
            sharded = build_sharded(seg_in, domain, structure=args.structure,
                                    shards=args.shards, ordering=args.ordering,
                                    capacity=args.capacity,
                                    min_fill=args.min_fill)
            sizes = sharded.shard_sizes()
            rows = [["shards", sharded.num_shards],
                    ["ordering", sharded.ordering],
                    ["min shard", int(sizes.min())],
                    ["max shard", int(sizes.max())]]
            out.append(format_table(["metric", "value"],
                                    [["map", args.map],
                                     ["segments", seg_in.shape[0]],
                                     ["structure", args.structure]] + rows,
                                    title="sharded build"))
            out.append("")
            out.append(format_table(["primitive", "count"],
                                    sorted(m.counts.items()),
                                    title=f"machine ({m.cost_model.name}, "
                                          f"p={m.processors}): "
                                          f"{m.steps:g} steps"))
            return "\n".join(out)
        if args.structure == "pmr":
            tree, trace = build_bucket_pmr(lines, domain, args.capacity)
            stats = quadtree_stats(tree)
            rows = [["nodes", stats.nodes], ["leaves", stats.leaves],
                    ["empty leaves", stats.empty_leaves], ["height", stats.height],
                    ["q-edges", stats.q_edges],
                    ["replication", round(stats.replication, 2)]]
        elif args.structure == "pm1":
            tree, trace = build_pm1(np.unique(lines, axis=0), domain)
            stats = quadtree_stats(tree)
            rows = [["nodes", stats.nodes], ["leaves", stats.leaves],
                    ["height", stats.height], ["q-edges", stats.q_edges]]
        elif args.structure == "rtree":
            tree, trace = build_rtree(lines, args.min_fill, args.capacity)
            stats = rtree_stats(tree)
            rows = [["nodes", stats.nodes], ["leaves", stats.leaves],
                    ["height", stats.height],
                    ["coverage", round(stats.coverage, 1)],
                    ["overlap", round(stats.overlap, 1)]]
        else:  # kdtree
            from .geometry import midpoints
            tree, trace = build_kdtree(midpoints(lines), leaf_size=args.capacity)
            rows = [["nodes", tree.num_nodes], ["height", tree.height]]

    out.append(format_table(["metric", "value"],
                            [["map", args.map], ["segments", lines.shape[0]],
                             ["rounds", trace.num_rounds]] + rows,
                            title=f"{args.structure} build"))
    out.append("")
    out.append(format_table(["primitive", "count"],
                            sorted(m.counts.items()),
                            title=f"machine ({m.cost_model.name}, "
                                  f"p={m.processors}): {m.steps:g} steps"))
    if args.render and args.structure in ("pmr", "pm1"):
        out.append("")
        out.append(tree.render())
    return "\n".join(out)


def _cmd_build(args: argparse.Namespace) -> int:
    print(_build_report(args))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    # examples/paper_figures.py is the canonical script; this reuses its
    # building blocks so `python -m repro figures` works from any cwd.
    from .baselines import seq_bucket_pmr_decomposition, seq_pm1_decomposition
    from .geometry import paper_labels
    from .machine import Segments, down_scan, up_scan

    data = np.array([3, 1, 2, 1, 0, 1, 2, 2, 1, 0, 3, 3])
    seg = Segments.from_flags([1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0])
    rows = []
    for direction, fn in (("up", up_scan), ("down", down_scan)):
        for kind in ("in", "ex"):
            rows.append([f"{direction}-scan(+,{kind})"]
                        + fn(data, seg, "+", kind).tolist())
    print(format_table(["scan"] + [str(i) for i in range(12)], rows,
                       title="Figure 8"))

    segs = paper_dataset()
    labels = paper_labels()
    tree, trace = build_pm1(segs, 8)
    assert tree.decomposition_key() == seq_pm1_decomposition(segs, 8)
    print(f"\nFigures 30-33: PM1 build, {trace.num_rounds} rounds")
    print(tree.render(labels))
    tree, trace = build_bucket_pmr(segs, 8, 2, max_depth=3)
    assert tree.decomposition_key() == seq_bucket_pmr_decomposition(segs, 8, 2, 3)
    print(f"\nFigures 35-38: bucket PMR build, {trace.num_rounds} rounds")
    print(tree.render(labels))
    rtree, _ = build_rtree(segs, 1, 3)
    print("\nFigures 39-44: order-(1,3) R-tree")
    print(rtree.render())
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    a = _make_map(args.map, args.n, args.domain, args.seed)
    b = _make_map(args.map, args.n, args.domain, args.seed + 1)
    if args.structure == "rtree":
        ta, tb = (build_rtree(m, args.min_fill, args.capacity)[0]
                  for m in (a, b))
    else:
        ta, tb = (build_bucket_pmr(m, args.domain, args.capacity)[0]
                  for m in (a, b))
    pairs = index_join(ta, tb)
    if args.verify:
        assert np.array_equal(pairs, brute_join(a, b)), "join mismatch!"
    print(format_table(
        ["metric", "value"],
        [["map A segments", a.shape[0]], ["map B segments", b.shape[0]],
         ["intersecting pairs", pairs.shape[0]],
         ["verified", "yes" if args.verify else "skipped"]],
        title=f"spatial join via {args.structure}"))
    return 0


def _parse_hostport(spec: str) -> tuple:
    """``HOST:PORT`` (or ``:PORT`` for localhost) -> ``(host, port)``."""
    if ":" not in spec:
        raise SystemExit(f"expected HOST:PORT, got {spec!r}")
    host, _, port = spec.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"bad port in {spec!r}")


def _serve_engine(args: argparse.Namespace) -> SpatialQueryEngine:
    """The engine a parsed ``serve`` namespace describes."""
    return SpatialQueryEngine(**{name: getattr(args, name)
                                 for name in _SERVE_ENGINE_FIELDS})


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.listen and args.demo:
        raise SystemExit("serve: --demo and --listen are mutually exclusive")
    if args.listen:
        return _serve_listen(args)
    if not args.demo:
        raise SystemExit("serve: pick a mode -- --demo (in-process demo "
                         "workload) or --listen HOST:PORT (network server)")
    return _serve_demo(args)


def _serve_listen(args: argparse.Namespace) -> int:
    """Networked serving: the asyncio front-end over one warm engine.

    With ``--journal-dir`` the startup replays any crash-consistent
    journals found there before listening, and SIGTERM/SIGINT trigger a
    graceful drain: new work is refused with a structured 503
    (``shutting_down``), in-flight requests finish within
    ``--drain-timeout``, and the engine shuts down warm (journal
    fsync'd, index store spilled).
    """
    import asyncio
    import signal

    from .net import SpatialServer

    host, port = _parse_hostport(args.listen)
    lines = _make_map(args.map, args.n, args.domain, args.seed)
    engine = _serve_engine(args)
    with engine:
        for rep in engine.recover():
            print(f"recovered chain {rep.root}: {rep.records_replayed} "
                  f"records replayed over checkpoint seq "
                  f"{rep.checkpoint_seq} -> head {rep.fingerprint} "
                  f"(version {rep.version}, {rep.num_lines} lines)",
                  flush=True)
        fp = engine.register(lines, domain=args.domain)
        engine.warm(fp)
        server = SpatialServer(engine, host, port,
                               max_connections=args.max_connections,
                               max_inflight=args.max_inflight,
                               client_inflight=args.client_inflight,
                               client_rate=args.client_rate,
                               client_burst=args.client_burst,
                               request_timeout=args.request_timeout)

        async def main() -> None:
            h, p = await server.start()
            print(f"serving {args.map} map ({lines.shape[0]} segments, "
                  f"structure {args.structure}, backend {args.executor}) "
                  f"on {h}:{p}", flush=True)
            print(f"dataset fingerprint {fp}", flush=True)
            print(f"try: python -m repro health --connect {h}:{p}   "
                  f"(ctrl-c or SIGTERM drains and stops the server)",
                  flush=True)
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            handled = []
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop.set)
                    handled.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass   # platform without loop signal handlers
            serve = asyncio.ensure_future(server.serve_forever())
            try:
                await stop.wait()
                print("drain: refusing new work, finishing in-flight "
                      "requests", flush=True)
                clean = await server.drain(args.drain_timeout)
                if not clean:
                    print(f"drain: {args.drain_timeout}s budget spent, "
                          f"cancelled the stragglers", flush=True)
            finally:
                serve.cancel()
                try:
                    await serve
                except (asyncio.CancelledError, Exception):
                    pass
                await server.close()
                for sig in handled:
                    loop.remove_signal_handler(sig)

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass   # signal handlers unavailable: plain ctrl-c still stops
        srv = server.stats.snapshot()
        adm = server.admission.snapshot()
        print()
        print(format_table(
            ["metric", "value"],
            [["connections", srv["connections_total"]],
             ["connections shed", srv["connections_shed"]],
             ["requests", srv["requests_total"]],
             ["responses by status",
              ", ".join(f"{k}:{v}" for k, v in srv["per_status"].items())
              or "none"],
             ["throttled (429)", adm["requests_throttled"]],
             ["shed (503)", adm["requests_shed"]],
             ["drained (503 shutting_down)", srv["requests_drained"]],
             ["cancelled in-flight", srv["cancelled_inflight"]],
             ["bytes in/out",
              f"{_fmt_bytes(srv['bytes_in'])} / "
              f"{_fmt_bytes(srv['bytes_out'])}"]],
            title="server stats"))
    return 0


def _serve_demo(args: argparse.Namespace) -> int:
    import threading
    import time as _time

    lines = _make_map(args.map, args.n, args.domain, args.seed)
    rng = np.random.default_rng(args.seed + 7)
    engine = _serve_engine(args)
    with engine:
        fp = engine.register(lines, domain=args.domain)
        engine.warm(fp)

        # a seeded mixed workload: windows, points, nearest probes
        probes = []
        for _ in range(args.probes):
            kind = rng.choice(("window", "point", "nearest"),
                              p=(0.6, 0.2, 0.2))
            if kind == "window":
                x, y = rng.uniform(0, args.domain * 0.9, 2)
                w, h = rng.uniform(8, args.domain * 0.1, 2)
                probes.append(("window", np.array(
                    [x, y, min(x + w, args.domain), min(y + h, args.domain)])))
            else:
                probes.append((kind, rng.uniform(0, args.domain, 2)))

        futures: List = [None] * len(probes)

        def client(lo: int, hi: int) -> None:
            for i in range(lo, hi):
                kind, payload = probes[i]
                if kind == "window":
                    futures[i] = engine.submit_window(fp, payload)
                elif kind == "point":
                    futures[i] = engine.submit_point(fp, payload)
                else:
                    futures[i] = engine.submit_nearest(fp, payload)

        start = _time.perf_counter()
        chunk = (len(probes) + args.clients - 1) // args.clients
        threads = [threading.Thread(target=client,
                                    args=(c * chunk,
                                          min((c + 1) * chunk, len(probes))))
                   for c in range(args.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        engine.flush()
        errors = 0
        for f in futures:
            try:
                f.result(timeout=30)
            except Exception:
                errors += 1
        elapsed = _time.perf_counter() - start

        snap = engine.snapshot()
        cache = snap["cache"]
        print(format_table(
            ["metric", "value"],
            [["map", args.map], ["segments", lines.shape[0]],
             ["structure", args.structure], ["probes", len(probes)],
             ["clients", args.clients], ["errors", errors],
             ["throughput (q/s)", f"{len(probes) / elapsed:,.0f}"],
             ["batches", snap["batches"]],
             ["mean batch size", f"{snap['mean_batch_size']:.1f}"],
             ["max batch size", snap["max_batch_size"]],
             ["p50 latency (ms)", f"{snap['latency_p50_ms']:.2f}"],
             ["p95 latency (ms)", f"{snap['latency_p95_ms']:.2f}"],
             ["cache hit rate", f"{cache['hit_rate']:.2f}"],
             ["scan-model steps", f"{snap['steps']:g}"]]
            + ([["shards", args.shards],
                ["ordering", args.ordering],
                ["mean shards probed", f"{snap['mean_shards_probed']:.2f}"],
                ["shard skip rate", f"{snap['shard_skip_rate']:.2f}"]]
               if args.shards > 1 else [])
            + ([["cache dir", args.cache_dir],
                ["disk hits", snap["disk_hits"]],
                ["disk spills", snap["spills"]]]
               if args.cache_dir else []),
            title="repro.engine serving stats"))
        per = snap["per_index"]
        if per:
            print()
            print(format_table(
                ["index:kind", "batches", "queries", "steps"],
                [[k, int(v["batches"]), int(v["queries"]), f"{v['steps']:g}"]
                 for k, v in sorted(per.items())],
                title="per-index batches"))
        health = engine.health()
        ex = health["executor"]
        if ex["backend"] == "process":
            print()
            print(format_table(
                ["metric", "value"],
                [["backend", ex["backend"]],
                 ["workers", ex["workers"]],
                 ["start method", ex["start_method"]],
                 ["worker restarts", ex["restarts"]],
                 ["datasets shipped", ex["datasets_shipped"]],
                 ["ipc sent", _fmt_bytes(ex["ipc_bytes_sent"])],
                 ["ipc received", _fmt_bytes(ex["ipc_bytes_received"])],
                 ["warm loads", ex["worker_warm_loads"]],
                 ["cold builds", ex["worker_cold_builds"]]],
                title="process executor"))
        print()
        print(format_table(
            ["metric", "value"],
            [["status", health["status"]],
             ["breakers open/half-open",
              ", ".join(health["breakers_not_closed"]) or "none"],
             ["breaker trips", health["breaker_trips"]],
             ["fast fails", health["breaker_fast_fails"]],
             ["retries", sum(health["retries"].values())],
             ["partial results", health["partial_results"]],
             ["brute-force fallbacks", health["fallbacks"]]],
            title="engine health"))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import time as _time

    from .engine import CircuitOpenError, PartialResult, RejectedError
    from .resilience import EXAMPLE_PLANS, FaultPlan, InjectedFault

    if args.plan in EXAMPLE_PLANS:
        plan = EXAMPLE_PLANS[args.plan]
    else:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())

    lines = _make_map(args.map, args.n, args.domain, args.seed)
    rng = np.random.default_rng(args.seed + 11)
    engine = SpatialQueryEngine(structure=args.structure,
                                shards=args.shards,
                                workers=args.workers,
                                max_batch=args.max_batch,
                                max_wait=0.001,
                                executor=args.backend,
                                shm_budget_bytes=args.shm_budget_bytes,
                                breaker_threshold=args.breaker_threshold,
                                breaker_reset=args.breaker_reset,
                                brute_fallback=args.brute_fallback,
                                fault_plan=plan)

    def classify(fut) -> str:
        try:
            res = fut.result(timeout=30)
        except CircuitOpenError:
            return "circuit_open"
        except RejectedError:
            return "rejected"
        except InjectedFault:
            return "injected_fault"
        except Exception:
            return "failed"
        return "partial" if isinstance(res, PartialResult) else "ok"

    def drive(fp: str, n: int, deadline, outcomes: dict) -> None:
        futs = []
        for _ in range(n):
            x, y = rng.uniform(0, args.domain * 0.9, 2)
            w, h = rng.uniform(8, args.domain * 0.1, 2)
            rect = [x, y, min(x + w, args.domain), min(y + h, args.domain)]
            futs.append(engine.submit_window(fp, rect, deadline=deadline))
        engine.flush()
        for f in futs:
            out = classify(f)
            outcomes[out] = outcomes.get(out, 0) + 1

    with engine:
        fp = engine.register(lines, domain=args.domain)
        chaos: dict = {}
        recovery: dict = {}
        # wave 1: probes run into the injected faults; enough
        # consecutive batch failures trip the fingerprint's breaker
        drive(fp, args.probes, args.deadline, chaos)
        # wave 2: past the reset timeout the breaker half-opens; with
        # the plan's fault budgets spent the single probe it admits
        # succeeds, closes the circuit, and the rest flow normally
        _time.sleep(args.breaker_reset + 0.05)
        drive(fp, 1, None, recovery)
        drive(fp, max(args.probes // 4, 8) - 1, None, recovery)
        health = engine.health()
        snap = engine.snapshot()

    order = ("ok", "partial", "circuit_open", "injected_fault",
             "rejected", "failed")
    rows = [[k, chaos.get(k, 0), recovery.get(k, 0)]
            for k in order if chaos.get(k, 0) or recovery.get(k, 0)]
    print(format_table(["outcome", "chaos wave", "recovery wave"], rows,
                       title=f"chaos run: plan {args.plan!r}, "
                             f"{args.probes} probes"))
    print()
    print(format_table(
        ["metric", "value"],
        [["status", health["status"]],
         ["breaker trips", health["breaker_trips"]],
         ["fast fails", health["breaker_fast_fails"]],
         ["half-opens", health["breaker_half_opens"]],
         ["closes", health["breaker_closes"]],
         ["retries", sum(health["retries"].values())],
         ["partial results", health["partial_results"]],
         ["shards dropped", health["shards_dropped"]],
         ["brute-force fallbacks", health["fallbacks"]]]
        + ([["backend", "process"],
            ["worker restarts", health["executor"]["restarts"]]]
           if health["executor"]["backend"] == "process" else []),
        title="engine health after recovery"))
    faults = snap["faults_injected"]
    if faults:
        print()
        print(format_table(["site", "faults fired"],
                           sorted(faults.items()),
                           title="fault injection"))
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    import json as _json

    from .net import ServeClient
    from .net.client import ServeConnectionError

    host, port = _parse_hostport(args.connect)
    try:
        with ServeClient(host, port, connect_timeout=args.timeout) as client:
            resp = client.health()
    except ServeConnectionError as exc:
        raise SystemExit(f"health: {exc}")
    if resp.get("status") != 200:
        print(f"health request failed: {resp}", file=sys.stderr)
        return 1
    result = resp["result"]
    if args.json:
        print(_json.dumps(result, indent=2))
        return 0
    srv = result["server"]
    adm = srv["admission"]
    eng = result["engine"]
    ex = eng["executor"]
    print(format_table(
        ["metric", "value"],
        [["status", result["status"]],
         ["listen", f"{result['listen']['host']}:{result['listen']['port']}"],
         ["connections open", srv["connections_open"]],
         ["in-flight", adm["inflight"]],
         ["requests", srv["requests_total"]],
         ["responses by status",
          ", ".join(f"{k}:{v}" for k, v in srv["per_status"].items())
          or "none"],
         ["throttled (429)", adm["requests_throttled"]],
         ["shed (503)", adm["requests_shed"] + adm["connections_shed"]],
         ["cancelled in-flight", srv["cancelled_inflight"]]],
        title=f"server {host}:{port}"))
    print()
    print(format_table(
        ["metric", "value"],
        [["backend", f"{ex['backend']} x{ex['workers']}"],
         ["breakers open/half-open",
          ", ".join(eng["breakers_not_closed"]) or "none"],
         ["breaker trips", eng["breaker_trips"]],
         ["retries", sum(eng["retries"].values())],
         ["partial results", eng["partial_results"]],
         ["queue depth", eng["queue_depth"]],
         ["pending probes", eng["pending_probes"]]],
        title="engine health"))
    return 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    """Send one insert and/or delete batch to a running network server."""
    from .net import ServeClient
    from .net.client import ServeConnectionError

    if not args.insert and not args.delete:
        raise SystemExit("mutate: nothing to do -- pass --insert N "
                         "and/or --delete IDS")
    host, port = _parse_hostport(args.connect)
    rows = []
    try:
        with ServeClient(host, port, timeout=args.timeout) as client:
            fp = args.fingerprint
            num_lines = None
            if fp is None or (args.delete or "").startswith("random:"):
                datasets = client.datasets().get("result") or []
                if fp is None:
                    if not datasets:
                        raise SystemExit("mutate: the server has no datasets")
                    fp = datasets[0]["fingerprint"]
                for row in datasets:
                    if row["fingerprint"] == fp:
                        num_lines = row.get("num_lines")
            if args.delete:
                if args.delete.startswith("random:"):
                    n = int(args.delete.split(":", 1)[1])
                    if not num_lines:
                        raise SystemExit(f"mutate: cannot pick random rows: "
                                         f"no num_lines for {fp}")
                    rng = np.random.default_rng(args.seed)
                    ids = rng.choice(num_lines, size=min(n, num_lines),
                                     replace=False)
                else:
                    try:
                        ids = [int(v) for v in args.delete.split(",")]
                    except ValueError:
                        raise SystemExit(f"mutate: bad --delete "
                                         f"{args.delete!r}")
                resp = client.delete(fp, sorted(int(i) for i in ids))
                rows.append(["delete", len(ids), resp])
                if resp.get("status") == 200:
                    fp = resp["result"]["fingerprint"]
            if args.insert:
                lines = _make_map("uniform", args.insert, args.domain,
                                  args.seed + 1)
                resp = client.insert(fp, lines.tolist())
                rows.append(["insert", args.insert, resp])
    except ServeConnectionError as exc:
        raise SystemExit(f"mutate: {exc}")
    failed = False
    table = []
    for op, count, resp in rows:
        if resp.get("status") == 200:
            res = resp["result"]
            table.append([op, count, resp["status"],
                          resp.get("version", "-"), res["fingerprint"][:12],
                          res["num_lines"]])
        else:
            failed = True
            table.append([op, count, resp.get("status"),
                          resp.get("reason", "-"),
                          resp.get("error", "")[:40], "-"])
    print(format_table(
        ["op", "rows", "status", "version", "fingerprint", "segments"],
        table, title=f"mutations against {host}:{port}"))
    return 1 if failed else 0


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n:.1f} GiB"


def _cmd_store(args: argparse.Namespace) -> int:
    import time as _time

    from .store import IndexStore

    store = IndexStore(args.cache_dir)

    if args.store_cmd == "ls":
        entries = store.entries()
        now = _time.time()
        rows = [[e.key_id, e.structure, e.num_lines or "?",
                 _fmt_bytes(e.size_bytes), f"{max(now - e.mtime, 0):.0f}s",
                 (e.checksum or "")[:12]]
                for e in entries]
        print(format_table(
            ["entry", "structure", "lines", "size", "idle", "checksum"],
            rows, title=f"index store {args.cache_dir}"))
        print(f"{len(entries)} entries, {_fmt_bytes(store.total_bytes())} "
              f"total, {len(store.quarantined())} quarantined")
        return 0

    if args.store_cmd == "gc":
        before = store.total_bytes()
        removed, freed = store.gc(args.budget_bytes)
        print(format_table(
            ["metric", "value"],
            [["budget", _fmt_bytes(args.budget_bytes)],
             ["before", _fmt_bytes(before)],
             ["removed entries", removed],
             ["freed", _fmt_bytes(freed)],
             ["after", _fmt_bytes(store.total_bytes())]],
            title="store gc"))
        return 0

    if args.store_cmd == "clear":
        n = store.clear()
        print(f"cleared {n} entries from {args.cache_dir}")
        return 0

    # prefetch: seed the store with the index a same-config engine probes
    from .engine import IndexRegistry
    from .engine.registry import index_params

    lines = _make_map(args.map, args.n, args.domain, args.seed)
    reg = IndexRegistry(capacity=1, store=store)
    fp = reg.register(lines, domain=args.domain)
    params = index_params(args.structure, args.capacity, args.min_fill,
                          args.shards, args.ordering)
    t0 = _time.perf_counter()
    path = reg.persist(fp, args.structure, **params)
    dt = _time.perf_counter() - t0
    import os as _os
    print(format_table(
        ["metric", "value"],
        [["map", args.map], ["segments", lines.shape[0]],
         ["structure", args.structure], ["fingerprint", fp],
         ["entry", _os.path.basename(path)],
         ["size", _fmt_bytes(_os.path.getsize(path))],
         ["build+persist (s)", f"{dt:.3f}"],
         ["warm", "yes" if reg.disk_hits else "no"]],
        title="store prefetch"))
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """Offline WAL inspection (do not point it at a live server's dir:
    opening a journal truncates any torn tail, like recovery would)."""
    import os as _os

    from .durability import (MutationJournal, RecoveryError, journal_roots,
                             replay_journal)

    roots = journal_roots(args.journal_dir)
    if not roots:
        print(f"no journals under {args.journal_dir}")
        return 0

    if args.journal_cmd == "ls":
        rows = []
        for root in roots:
            with MutationJournal(
                    _os.path.join(args.journal_dir, root)) as j:
                snap = j.snapshot()
            rows.append([root, snap["segments"], snap["last_seq"],
                         snap["checkpoint_seq"],
                         snap["checkpoint_fingerprint"] or "-",
                         snap["torn_tail_truncations"]])
        print(format_table(
            ["root", "segments", "last seq", "ckpt seq",
             "ckpt fingerprint", "torn tails"],
            rows, title=f"journals in {args.journal_dir}"))
        return 0

    # verify: replay into a scratch registry; fingerprint identity is
    # the proof, exactly what server-startup recovery runs
    from .engine import IndexRegistry

    failed = 0
    for root in roots:
        with MutationJournal(_os.path.join(args.journal_dir, root)) as j:
            try:
                rep = replay_journal(j, IndexRegistry(capacity=1), root)
            except RecoveryError as exc:
                failed += 1
                print(f"{root}: FAILED -- {exc}")
            else:
                print(f"{root}: ok -- {rep.records_replayed} records "
                      f"replay over checkpoint seq {rep.checkpoint_seq} "
                      f"to head {rep.fingerprint} ({rep.num_lines} lines)")
    return 1 if failed else 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Data-parallel spatial primitives (Hoel & Samet, ICPP'95)")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="run one data-parallel build")
    b.add_argument("--structure", choices=STRUCTURES, default="pmr")
    b.add_argument("--map", choices=MAPS, default="uniform")
    b.add_argument("--n", type=int, default=1000, help="segment count")
    b.add_argument("--domain", type=int, default=1024)
    b.add_argument("--capacity", type=int, default=8,
                   help="bucket capacity / R-tree M / k-d leaf size")
    b.add_argument("--min-fill", type=int, default=2, help="R-tree m")
    b.add_argument("--shards", type=int, default=1,
                   help="space-sorted shards (>1 builds a sharded index)")
    b.add_argument("--ordering", choices=("morton", "hilbert"),
                   default="morton", help="shard cut order")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--cost-model", default="scan_model",
                   choices=("scan_model", "hypercube", "pram_emulation"))
    b.add_argument("--processors", type=int, default=32)
    b.add_argument("--render", action="store_true",
                   help="print the leaf decomposition (quadtrees)")
    b.set_defaults(fn=_cmd_build)

    f = sub.add_parser("figures", help="replay the paper's worked examples")
    f.set_defaults(fn=_cmd_figures)

    j = sub.add_parser("join", help="spatial join of two generated maps")
    j.add_argument("--structure", choices=("pmr", "rtree"), default="pmr")
    j.add_argument("--map", choices=MAPS, default="uniform")
    j.add_argument("--n", type=int, default=500)
    j.add_argument("--domain", type=int, default=1024)
    j.add_argument("--capacity", type=int, default=8)
    j.add_argument("--min-fill", type=int, default=2)
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--verify", action="store_true",
                   help="check the result against brute force")
    j.set_defaults(fn=_cmd_join)

    s = sub.add_parser("serve",
                       help="serve the batched query engine: --demo "
                            "(in-process workload) or --listen HOST:PORT "
                            "(network server)")
    # engine-bound flags carry no default= of their own: it is the
    # EngineConfig field's (an explicit default= below would win)
    s.set_defaults(**{f.name: f.default
                      for f in dataclasses.fields(EngineConfig)
                      if f.name in _SERVE_ENGINE_FIELDS})
    s.add_argument("--demo", action="store_true",
                   help="in-process demo: drive the engine with a synthetic "
                        "workload from client threads and print stats")
    s.add_argument("--listen", metavar="HOST:PORT", default=None,
                   help="networked mode: asyncio TCP server speaking the "
                        "length-prefixed JSON protocol (port 0 picks a "
                        "free port)")
    s.add_argument("--max-connections", type=int, default=256,
                   help="connection cap; excess sockets get one 503 frame")
    s.add_argument("--max-inflight", type=int, default=1024,
                   help="global in-flight cap; past it requests shed (503)")
    s.add_argument("--client-inflight", type=int, default=64,
                   help="per-connection in-flight fairness cap (429)")
    s.add_argument("--client-rate", type=float, default=None,
                   help="per-connection token-bucket rate (req/s, 429)")
    s.add_argument("--client-burst", type=float, default=None,
                   help="token-bucket burst (default: rate/4 + 1)")
    s.add_argument("--request-timeout", type=float, default=30.0,
                   help="server-side wall cap per request (seconds)")
    s.add_argument("--structure", choices=("pmr", "pm1", "rtree"))
    s.add_argument("--map", choices=MAPS, default="uniform")
    s.add_argument("--n", type=int, default=2000, help="segment count")
    s.add_argument("--domain", type=int, default=1024)
    s.add_argument("--capacity", type=int)
    s.add_argument("--probes", type=int, default=2000,
                   help="total probes across all clients")
    s.add_argument("--clients", type=int, default=4,
                   help="concurrent client threads")
    s.add_argument("--workers", type=int,
                   help="engine workers (threads or processes)")
    s.add_argument("--backend", dest="executor",
                   choices=("thread", "process"),
                   help="executor backend: thread (in-process) or "
                        "process (multi-core)")
    # the one default not EngineConfig's (64, sized for one in-process
    # caller): serve fronts many clients, so it coalesces a larger wave
    s.add_argument("--max-batch", type=int, default=256,
                   help="largest job a coalesced group is cut into")
    s.add_argument("--max-wait", type=float,
                   help="coalescing deadline (seconds): the longest a "
                        "request waits while a batch is in flight; an "
                        "idle engine dispatches at once")
    s.add_argument("--queue-depth", type=int)
    s.add_argument("--shards", type=int,
                   help="space-sorted shards per index (>1: one tree per "
                        "curve range, culled per probe)")
    s.add_argument("--ordering", choices=("morton", "hilbert"),
                   help="shard cut order")
    s.add_argument("--cache-dir",
                   help="persistent index store directory (spill + warm start)")
    s.add_argument("--disk-budget-bytes", type=int,
                   help="store byte budget (requires --cache-dir)")
    s.add_argument("--shm-budget-bytes", type=int,
                   help="shared-memory arena budget for --backend process "
                        "(default: unbounded; 0 disables the arena)")
    s.add_argument("--versions-retained", type=int,
                   help="dataset versions kept warm for in-flight reads "
                        "after a mutation commits (MVCC)")
    s.add_argument("--journal-dir",
                   help="write-ahead mutation journal directory; commits "
                        "are journaled before reads flip, and startup "
                        "replays any journals found here (crash recovery)")
    s.add_argument("--fsync-policy", dest="journal_fsync",
                   choices=("commit", "none"),
                   help="WAL durability: commit fsyncs every append "
                        "(survives power loss), none only flushes to the "
                        "OS (survives a killed process)")
    s.add_argument("--checkpoint-every", type=int,
                   help="auto-checkpoint a chain every N commits, "
                        "truncating the WAL prefix (0: never)")
    s.add_argument("--drain-timeout", type=float, default=30.0,
                   help="graceful-shutdown budget: SIGTERM refuses new "
                        "work (503 shutting_down) and waits this long for "
                        "in-flight requests before exiting")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_serve)

    m = sub.add_parser("mutate",
                       help="send an insert/delete batch to a running "
                            "serve --listen server")
    m.add_argument("--connect", metavar="HOST:PORT", required=True,
                   help="server address")
    m.add_argument("--fingerprint", default=None,
                   help="dataset fingerprint (default: the server's "
                        "first dataset)")
    m.add_argument("--insert", type=int, default=0, metavar="N",
                   help="append N seeded random segments")
    m.add_argument("--delete", default=None, metavar="IDS",
                   help="comma list of row ids, or random:N for N seeded "
                        "random rows of the current version")
    m.add_argument("--domain", type=int, default=1024,
                   help="coordinate domain for generated inserts")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--timeout", type=float, default=30.0,
                   help="per-request timeout (seconds)")
    m.set_defaults(fn=_cmd_mutate)

    h = sub.add_parser("health",
                       help="scrape a running server's health document")
    h.add_argument("--connect", metavar="HOST:PORT", required=True,
                   help="server address")
    h.add_argument("--json", action="store_true",
                   help="print the raw JSON document instead of tables")
    h.add_argument("--timeout", type=float, default=5.0,
                   help="connect timeout (seconds)")
    h.set_defaults(fn=_cmd_health)

    c = sub.add_parser("chaos",
                       help="drive the engine under an injected fault plan")
    c.add_argument("--plan", default="examples",
                   help="built-in plan name (examples, stall, buildfail, "
                        "corrupt, workercrash, walfail, none) or a JSON "
                        "plan file")
    c.add_argument("--map", choices=MAPS, default="uniform")
    c.add_argument("--n", type=int, default=1500, help="segment count")
    c.add_argument("--domain", type=int, default=1024)
    c.add_argument("--structure", choices=("pmr", "pm1", "rtree"),
                   default="pmr")
    c.add_argument("--shards", type=int, default=4,
                   help="shards per index (stall faults need >1)")
    c.add_argument("--workers", type=int, default=4)
    c.add_argument("--backend", choices=("thread", "process"),
                   default="thread",
                   help="executor backend (crash faults kill real "
                        "workers under process)")
    c.add_argument("--shm-budget-bytes", type=int, default=None,
                   help="shared-memory arena budget for --backend process "
                        "(default: unbounded; 0 disables the arena)")
    c.add_argument("--max-batch", type=int, default=8)
    c.add_argument("--probes", type=int, default=48,
                   help="probes in the chaos wave")
    c.add_argument("--deadline", type=float, default=0.05,
                   help="per-probe deadline in the chaos wave (seconds)")
    c.add_argument("--breaker-threshold", type=int, default=3)
    c.add_argument("--breaker-reset", type=float, default=0.2,
                   help="open -> half-open delay (seconds)")
    c.add_argument("--brute-fallback", action="store_true",
                   help="serve brute force instead of failing fast")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_chaos)

    st = sub.add_parser("store",
                        help="inspect/manage a persistent index store")
    st_sub = st.add_subparsers(dest="store_cmd", required=True)

    def _with_cache_dir(sp):
        sp.add_argument("--cache-dir", required=True,
                        help="index store directory")
        sp.set_defaults(fn=_cmd_store)
        return sp

    _with_cache_dir(st_sub.add_parser(
        "ls", help="list store entries (LRU order, oldest first)"))
    gc = _with_cache_dir(st_sub.add_parser(
        "gc", help="evict least-recently-used entries to a byte budget"))
    gc.add_argument("--budget-bytes", type=int, default=256 * 1024 * 1024,
                    help="target directory size (default 256 MiB)")
    _with_cache_dir(st_sub.add_parser(
        "clear", help="remove every entry (and the quarantine)"))
    pf = _with_cache_dir(st_sub.add_parser(
        "prefetch", help="build an index for a generated map and seed "
                         "the store (same keys the engine probes)"))
    pf.add_argument("--structure", choices=("pmr", "pm1", "rtree"),
                    default="pmr")
    pf.add_argument("--map", choices=MAPS, default="uniform")
    pf.add_argument("--n", type=int, default=2000, help="segment count")
    pf.add_argument("--domain", type=int, default=1024)
    pf.add_argument("--capacity", type=int, default=8)
    pf.add_argument("--min-fill", type=int, default=2)
    pf.add_argument("--shards", type=int, default=1)
    pf.add_argument("--ordering", choices=("morton", "hilbert"),
                    default="morton")
    pf.add_argument("--seed", type=int, default=0)

    jn = sub.add_parser("journal",
                        help="inspect/verify a write-ahead mutation "
                             "journal directory (offline)")
    jn_sub = jn.add_subparsers(dest="journal_cmd", required=True)
    for name, help_text in (
            ("ls", "list journals: segments, sequences, checkpoint"),
            ("verify", "replay every journal into a scratch registry "
                       "and prove the heads by fingerprint identity")):
        sp = jn_sub.add_parser(name, help=help_text)
        sp.add_argument("--journal-dir", required=True,
                        help="journal directory (serve --journal-dir)")
        sp.set_defaults(fn=_cmd_journal)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
