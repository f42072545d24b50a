"""Multi-process open-loop load generator for the serving front-end.

Closed-loop clients (send, wait, send) measure a server at whatever
rate the server itself permits -- they cannot *overload* it, so they
cannot find the knee of the latency curve.  This generator is
**open-loop**: each worker process schedules request departures at a
fixed offered rate regardless of responses in flight, exactly the
arrival process "millions of users" present, and counts what comes
back -- full answers, partial (206) answers, throttles (429), sheds
(503), errors, and silence.

Topology: ``procs`` worker processes (spawn/forkserver, never fork --
matching :class:`~repro.engine.executor.ProcessBackend`'s choice), each
driving ``conns`` pipelined connections on its own asyncio loop.  The
offered rate of a stage is split evenly across workers; a ramp of
stages (``--qps 100,200,400``) sweeps the overload curve in one run.

:func:`run_loadgen` returns (and optionally writes to ``out_path``) a
report with per-stage sustained qps and latency percentiles, the
detected **knee** (the last offered rate the server sustains), and the
brownout behaviour past it.  It is an exploration tool: a single ramp
carries no noise estimate, so the numbers a change is judged by come
from the paired runs of ``benchmarks/spine/``, not from this report.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time
from typing import Dict, List, Optional

import numpy as np

from .client import ServeClient
from .protocol import ProtocolError, read_frame, encode_frame

__all__ = ["run_loadgen", "DEFAULT_MIX"]

#: default request mix, mirroring the demo workload of ``serve --demo``
DEFAULT_MIX = {"window": 0.6, "point": 0.2, "nearest": 0.2}

#: per-worker cap on retained latency samples (memory guard)
MAX_SAMPLES = 50_000


def _make_request(rng: np.random.Generator, req_id: int, fingerprint: str,
                  domain: float, mix_kinds: List[str],
                  mix_probs: List[float],
                  deadline_ms: Optional[float]) -> dict:
    kind = mix_kinds[rng.choice(len(mix_kinds), p=mix_probs)]
    req: Dict[str, object] = {"id": req_id, "kind": kind,
                              "fingerprint": fingerprint}
    if kind == "window":
        x, y = rng.uniform(0, domain * 0.9, 2)
        w, h = rng.uniform(domain * 0.01, domain * 0.1, 2)
        req["rect"] = [x, y, min(x + w, domain), min(y + h, domain)]
    else:
        req["point"] = rng.uniform(0, domain, 2).tolist()
    if deadline_ms is not None:
        req["deadline_ms"] = deadline_ms
    return req


async def _drive(cfg: dict) -> dict:
    """One worker's open-loop stage drive (runs on its own loop)."""
    rng = np.random.default_rng(cfg["seed"])
    mix_kinds = list(cfg["mix"])
    mix_probs = list(cfg["mix"].values())
    out = {"sent": 0, "completed": 0, "statuses": {},
           "latencies": [], "shed_connections": 0, "conn_errors": 0,
           "no_response": 0}
    conns = []
    for _ in range(cfg["conns"]):
        try:
            conns.append(await asyncio.open_connection(cfg["host"],
                                                       cfg["port"]))
        except OSError:
            out["conn_errors"] += 1
    if not conns:
        return out

    pending: Dict[int, float] = {}
    loop = asyncio.get_event_loop()
    alive = [True] * len(conns)

    async def reader(i: int) -> None:
        r = conns[i][0]
        while True:
            try:
                resp = await read_frame(r)
            except (ProtocolError, OSError, ConnectionError):
                alive[i] = False
                return
            if resp is None:
                alive[i] = False
                return
            status = int(resp.get("status", 0))
            if resp.get("reason") == "max_connections":
                out["shed_connections"] += 1
                alive[i] = False
                return
            out["statuses"][str(status)] = \
                out["statuses"].get(str(status), 0) + 1
            sent_at = pending.pop(resp.get("id"), None)
            if sent_at is not None:
                out["completed"] += 1
                if len(out["latencies"]) < MAX_SAMPLES:
                    out["latencies"].append(loop.time() - sent_at)

    readers = [asyncio.ensure_future(reader(i)) for i in range(len(conns))]

    qps = cfg["qps"]
    total = max(int(qps * cfg["duration"]), 1)
    interval = 1.0 / qps
    start = loop.time()
    for k in range(total):
        target = start + k * interval
        now = loop.time()
        if target > now:
            await asyncio.sleep(target - now)
        i = k % len(conns)
        if not alive[i]:
            live = [j for j in range(len(conns)) if alive[j]]
            if not live:
                break
            i = live[k % len(live)]
        req = _make_request(rng, k, cfg["fingerprint"], cfg["domain"],
                            mix_kinds, mix_probs, cfg["deadline_ms"])
        w = conns[i][1]
        pending[k] = loop.time()
        try:
            w.write(encode_frame(req))
            # no drain(): open-loop departures must not be paced by the
            # server; localhost buffers absorb a bounded stage's worth
        except (OSError, ConnectionError):
            alive[i] = False
            pending.pop(k, None)
            out["conn_errors"] += 1
            continue
        out["sent"] += 1

    # grace period: let in-flight responses land
    grace_until = loop.time() + cfg["grace"]
    while pending and loop.time() < grace_until and any(alive):
        await asyncio.sleep(0.02)
    out["no_response"] = len(pending)
    for t in readers:
        t.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, w in conns:
        try:
            w.close()
        except (OSError, RuntimeError):
            pass
    return out


def _worker_main(cfg: dict, pipe) -> None:  # pragma: no cover - subprocess
    try:
        pipe.send(asyncio.run(_drive(cfg)))
    except BaseException as exc:  # noqa: BLE001 - report, don't hang the join
        pipe.send({"error": repr(exc)})
    finally:
        pipe.close()


def _percentile_ms(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q) * 1e3)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn")


def _run_stage(host: str, port: int, qps: float, duration: float,
               procs: int, conns: int, fingerprint: str, domain: float,
               mix: Dict[str, float], deadline_ms: Optional[float],
               grace: float, seed: int) -> dict:
    ctx = _mp_context()
    workers = []
    for w in range(procs):
        parent, child = ctx.Pipe(duplex=False)
        cfg = {"host": host, "port": port, "qps": qps / procs,
               "duration": duration, "conns": conns,
               "fingerprint": fingerprint, "domain": domain, "mix": mix,
               "deadline_ms": deadline_ms, "grace": grace,
               "seed": seed * 1000 + w}
        proc = ctx.Process(target=_worker_main, args=(cfg, child),
                           daemon=True)
        proc.start()
        child.close()
        workers.append((proc, parent))

    agg = {"sent": 0, "completed": 0, "statuses": {}, "latencies": [],
           "shed_connections": 0, "conn_errors": 0, "no_response": 0}
    wall = duration + grace + 30
    for proc, parent in workers:
        res = parent.recv() if parent.poll(wall) else {"error": "timeout"}
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
        if "error" in res:
            agg["conn_errors"] += 1
            continue
        for key in ("sent", "completed", "shed_connections", "conn_errors",
                    "no_response"):
            agg[key] += res[key]
        for status, n in res["statuses"].items():
            agg["statuses"][status] = agg["statuses"].get(status, 0) + n
        agg["latencies"].extend(res["latencies"])

    st = agg["statuses"]
    sent = max(agg["sent"], 1)
    ok = st.get("200", 0)
    partial = st.get("206", 0)
    throttled = st.get("429", 0)
    shed = st.get("503", 0)
    errors = (st.get("500", 0) + st.get("400", 0) + st.get("404", 0)
              + agg["no_response"])
    return {
        "offered_qps": qps,
        "duration_s": duration,
        "sent": agg["sent"],
        "completed": agg["completed"],
        "achieved_qps": round((ok + partial) / duration, 1),
        "p50_ms": round(_percentile_ms(agg["latencies"], 50), 2),
        "p95_ms": round(_percentile_ms(agg["latencies"], 95), 2),
        "p99_ms": round(_percentile_ms(agg["latencies"], 99), 2),
        "ok": ok, "partial": partial, "throttled_429": throttled,
        "shed_503": shed, "errors": errors,
        "no_response": agg["no_response"],
        "shed_connections": agg["shed_connections"],
        "conn_errors": agg["conn_errors"],
        "partial_rate": round(partial / sent, 4),
        "throttle_rate": round(throttled / sent, 4),
        "shed_rate": round(shed / sent, 4),
        "error_rate": round(errors / sent, 4),
    }


def _find_knee(stages: List[dict]) -> Optional[dict]:
    """The last stage the server *sustained*: >= 90% of the offered rate
    answered in full (or partially) with < 1% throttle+shed."""
    knee = None
    for s in stages:
        sustained = s["achieved_qps"] >= 0.9 * s["offered_qps"]
        graceful = (s["throttle_rate"] + s["shed_rate"]) < 0.01
        if sustained and graceful:
            knee = s
    return knee


def run_loadgen(host: str, port: int, qps_stages: List[float],
                duration: float = 2.0, procs: int = 2, conns: int = 4,
                mix: Optional[Dict[str, float]] = None,
                deadline_ms: Optional[float] = None,
                grace: float = 2.0, seed: int = 0,
                out_path: Optional[str] = None) -> dict:
    """Drive a qps ramp against a running server; return the report.

    The target dataset is discovered over the wire (the ``datasets``
    request kind), so the only coupling to the server is the address.
    """
    mix = dict(mix or DEFAULT_MIX)
    total = sum(mix.values())
    mix = {k: v / total for k, v in mix.items()}
    with ServeClient(host, port) as probe:
        datasets = probe.datasets()["result"]
        if not datasets:
            raise RuntimeError("server has no registered datasets")
        target = datasets[0]
        health = probe.health()["result"]
    stages = [_run_stage(host, port, qps, duration, procs, conns,
                         target["fingerprint"], float(target["domain"]),
                         mix, deadline_ms, grace, seed + i)
              for i, qps in enumerate(qps_stages)]
    knee = _find_knee(stages)
    overload = None
    if knee is not None:
        past = [s for s in stages
                if s["offered_qps"] >= 2 * knee["offered_qps"]]
        overload = past[0] if past else None
    notes = _overload_notes(knee, overload, stages)
    report = {
        "benchmark": "network_serving_overload_curve",
        "server": {"host": host, "port": port,
                   "engine": health.get("engine", {}).get("executor", {})},
        "config": {"procs": procs, "conns_per_proc": conns,
                   "duration_s": duration, "mix": mix,
                   "deadline_ms": deadline_ms, "seed": seed,
                   "open_loop": True},
        "stages": stages,
        "knee": ({"offered_qps": knee["offered_qps"],
                  "achieved_qps": knee["achieved_qps"],
                  "p50_ms": knee["p50_ms"], "p95_ms": knee["p95_ms"],
                  "p99_ms": knee["p99_ms"]}
                 if knee else None),
        "overload": ({"offered_qps": overload["offered_qps"],
                      "achieved_qps": overload["achieved_qps"],
                      "p99_ms": overload["p99_ms"],
                      "shed_rate": overload["shed_rate"],
                      "throttle_rate": overload["throttle_rate"],
                      "error_rate": overload["error_rate"]}
                     if overload else None),
        "notes": notes,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def _overload_notes(knee: Optional[dict], overload: Optional[dict],
                    stages: List[dict]) -> str:
    if knee is None:
        top = stages[-1] if stages else None
        return ("no sustained stage: even the lowest offered rate "
                "overloaded the server"
                + (f" (last stage: {top['offered_qps']} qps offered, "
                   f"{top['achieved_qps']} achieved)" if top else ""))
    parts = [f"knee at {knee['offered_qps']} qps offered "
             f"({knee['achieved_qps']} sustained), "
             f"p99 {knee['p99_ms']} ms at the knee"]
    if overload is not None:
        parts.append(f"at {overload['offered_qps']} qps (~2x knee) the "
                     f"server sheds gracefully: shed rate "
                     f"{overload['shed_rate']:.1%}, throttle rate "
                     f"{overload['throttle_rate']:.1%}, error rate "
                     f"{overload['error_rate']:.1%}, p99 "
                     f"{overload['p99_ms']} ms")
    else:
        parts.append("ramp never reached 2x the knee; raise --qps to "
                     "record the brownout point")
    return "; ".join(parts)
