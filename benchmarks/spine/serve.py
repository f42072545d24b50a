"""``serve_read`` and ``serve_mixed``: the program is ``python -m repro serve``.

This process is the load generator (:mod:`.loadgen`); the server is a
subprocess whose start-up time, peak RSS and CPU seconds are read from
outside.  A traced run adds a stage that hosts the same server in this
process (``ServerThread``), so that wrappers on server-side functions
apply: first unwrapped, then wrapped.
"""

from __future__ import annotations

import json
import signal
import socket
import statistics
import subprocess
import sys
import time
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine import dataset_fingerprint
from repro.net import encode_frame, parse_request

from . import measure, probes
from .loadgen import (MixedStream, ReadStream, Wire, closed_round,
                      paced_round)
from .spec import COLD_STARTS, MAP, SERVE_MIXED, SERVE_READ, TRACE_SHARE

HOST = "127.0.0.1"


def serve_argv(seed: int, port: int, journal_dir: Optional[str]) -> List[str]:
    """Every tunable not named here stays at its CLI default, on purpose:
    a PR that fixes a default must show."""
    argv = ["serve", "--listen", f"{HOST}:{port}", "--map", "uniform",
            "--n", str(MAP["n"]), "--domain", str(MAP["domain"]),
            "--seed", str(seed)]
    if journal_dir is not None:
        argv += ["--shards", str(SERVE_MIXED["shards"]),
                 "--ordering", SERVE_MIXED["ordering"],
                 "--journal-dir", journal_dir]
    return argv


def connect(port: int, alive: Callable[[], bool],
            timeout: float = 120.0) -> socket.socket:
    deadline = perf_counter() + timeout
    while True:
        try:
            return socket.create_connection((HOST, port), timeout=5)
        except OSError:
            if not alive():
                raise RuntimeError("server died during start-up")
            if perf_counter() > deadline:
                raise
            time.sleep(0.005)


class ServerProcess:
    """The serve subprocess; ``setup_s`` is spawn -> first answer."""

    def __init__(self, seed: int, journal_dir: Optional[str]):
        with socket.socket() as s:      # the benchmark chooses the port
            s.bind((HOST, 0))
            port = s.getsockname()[1]
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro",
             *serve_argv(seed, port, journal_dir)],
            env=measure.child_env(), stdout=subprocess.DEVNULL)
        self.pid = self.proc.pid
        try:
            self.wire = Wire(connect(port, lambda: self.proc.poll() is None))
            self.fingerprint = self.wire.ask(
                {"kind": "datasets"})["result"][0]["fingerprint"]
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = perf_counter() - t0

    def stop(self) -> None:
        """SIGTERM drain, kill after 10 s; a non-zero exit fails the run."""
        self.wire.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server ignored SIGTERM for 10 s")
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")


# -- timed phases -------------------------------------------------------------------------

def timed_phases(wire: Wire, mixed: bool, stream, seconds: float,
                 paced: bool = True,
                 on_round: Callable[[int], None] = lambda r: None) -> dict:
    """Warm-up, then closed-loop rounds and (serve_read) paced rounds.
    ``on_round`` tells a tracer which round spans belong to."""
    p = SERVE_MIXED if mixed else SERVE_READ
    reads = stream.reads if mixed else stream
    waves = not mixed
    closed_round(wire, p["warmup_requests"], p["inflight"], reads.issue,
                 reads.settle, waves)
    share = 1.0 if mixed else p["saturation_share"]

    def closed(r: int) -> dict:
        on_round(r)
        return closed_round(wire, p["round_ops"], p["inflight"],
                            stream.issue, stream.settle, waves)

    def open_loop(r: int) -> dict:
        on_round(r)
        return paced_round(wire, p["paced_round_ops"], p["paced_rate"],
                           stream.issue, stream.settle, p["paced_inflight"])

    out = {"closed": measure.timed_rounds(share * seconds, closed),
           "paced": []}
    if paced and not mixed:
        out["paced"] = measure.timed_rounds((1 - share) * seconds, open_loop)
    on_round(-1)
    return out


def summarize(phases: dict) -> dict:
    """serve_read: rate from the saturation phase, latency from the paced
    one.  serve_mixed: all three from its single closed loop."""
    closed = measure.summarize_rounds(phases["closed"], 1.0)
    if not phases["paced"]:
        return closed
    paced = measure.summarize_rounds(phases["paced"], 1.0)
    late = np.concatenate([r["late"] for r in phases["paced"]])
    return {"work_per_s": closed["work_per_s"],
            "op_p50_ms": paced["op_p50_ms"], "op_p95_ms": paced["op_p95_ms"],
            "samples": paced["samples"],
            "late_p99_ms": float(np.percentile(late, 99)) * 1e3}


def run(workload: str, seed: int, seconds: float, trace: bool,
        corrupt: bool) -> dict:
    mixed = workload == "serve_mixed"
    p = SERVE_MIXED if mixed else SERVE_READ
    if trace:
        seconds *= TRACE_SHARE
    t0 = perf_counter()
    lines = probes.serve_map(seed)
    generate_s = perf_counter() - t0
    journal = measure.make_tmp("journal") if mixed else None
    setups = []
    try:
        # a traced run reports no setup_s, so it skips the extra cold starts
        for _ in range(0 if trace else COLD_STARTS - 1):
            cold = ServerProcess(seed, journal)
            setups.append(cold.setup_s)
            cold.stop()
        server = ServerProcess(seed, journal)
        try:
            setups.append(server.setup_s)
            if server.fingerprint != dataset_fingerprint(lines):
                raise RuntimeError("server map differs from the "
                                   "benchmark-side copy")
            reads = ReadStream(lines, server.fingerprint, p["pool"], seed,
                               p["oracle_probes"])
            stream = (MixedStream(reads, lines, server.fingerprint, seed)
                      if mixed else reads)
            cpu0 = measure.cpu_seconds(server.pid)
            phases = timed_phases(server.wire, mixed, stream, seconds)
            cpu1 = measure.cpu_seconds(server.pid)
            rss = measure.peak_rss_mb(server.pid)
            health = server.wire.ask({"kind": "health"})["result"]
            final = server.wire.ask({"kind": "datasets"})["result"]
        finally:
            server.stop()
        rounds = summarize(phases)
        sent, failed = measure.count_ops(phases["closed"] + phases["paced"])
        checked, bad = reads.check(
            stream.lines_at if mixed else lambda version: lines, corrupt)
        if mixed:
            checked += 1
            bad += not any(d["num_lines"] == stream.versions[-1].shape[0]
                           for d in final)
        elif rounds["late_p99_ms"] > p["late_p99_warn_ms"]:
            # requests are timed from their scheduled departure, so a late
            # generator can only make the latencies look worse, not better
            print(f"paced phase: generator ran {rounds['late_p99_ms']:.2f} "
                  f"ms late at p99 (noisy host?)", file=sys.stderr)
        result = {
            "rounds": rounds, "setup_s": measure.median_iqr(setups),
            "peak_rss_mb": rss, "attempted": sent + checked,
            "failed": failed + bad,
            "oracle_checked": checked,
            "op": "op" if mixed else "request", "units_per_op": 1,
            "info": {"loadgen_late_p99_ms": rounds.get("late_p99_ms", 0.0),
                     "server_cpu_s": cpu1 - cpu0},
        }
        if trace:
            adm = health["server"]["admission"]
            seen = reads.out_bytes[reads.out_bytes > 0]
            layers = {
                "geometry.generate_s": generate_s,
                "net.server_cpu_s_per_kreq": 1e3 * (cpu1 - cpu0) / sent,
                "net.status_non200": reads.non200,
                "net.admission_refused": (adm["requests_shed"]
                                          + adm["requests_throttled"]
                                          + adm["connections_shed"]),
                "net.bytes_in_per_req":
                    statistics.fmean(len(f) for f in reads.frames),
                "net.bytes_out_per_req": float(seen.mean()),
                "net.loadgen_late_p99_ms": rounds.get("late_p99_ms", 0.0),
            }
            if mixed:
                layers.update(wal_layer(health["engine"]["wal"], stream,
                                        seed, journal))
            layers.update(hosted_stage(seed, mixed, lines, seconds))
            result["layers"] = layers
        return result
    finally:
        if journal is not None:
            measure.drop_tmp(journal)


# -- traced stage -----------------------------------------------------------------------------

def cli_engine(seed: int, journal: Optional[str]):
    """The engine exactly as ``repro serve`` with our argv would build it.

    Goes through the CLI's own (private) parser and factory on purpose:
    a second table of defaults here would drift from the subprocess the
    end-to-end numbers come from."""
    from repro.cli import _parser, _serve_engine
    args = _parser().parse_args(serve_argv(seed, 0, journal))
    return _serve_engine(args), args


def wal_layer(wal: dict, stream: MixedStream, seed: int,
              journal: str) -> Dict[str, float]:
    """WAL counters of the subprocess run, then a timed recovery replay of
    the journal it left behind."""
    engine, _ = cli_engine(seed, journal)
    try:
        t0 = perf_counter()
        reports = engine.recover()
        spent = perf_counter() - t0
    finally:
        engine.close()
    replayed = sum(r.records_replayed for r in reports)
    if replayed != wal["wal_appends"] \
            or reports[0].num_lines != stream.versions[-1].shape[0]:
        raise RuntimeError(f"recovery replayed {replayed} of "
                           f"{wal['wal_appends']} journal records")
    return {
        "durability.bytes_per_commit": wal["wal_bytes"] / replayed,
        "durability.fsyncs_per_commit": wal["fsyncs"] / replayed,
        "durability.wal_bytes_per_user_byte":
            wal["wal_bytes"] / stream.user_bytes,
        "durability.replay_records_per_s": replayed / spent,
    }


def hosted_stage(seed: int, mixed: bool, lines: np.ndarray,
                 seconds: float) -> Dict[str, float]:
    """The server hosted in this process: one unwrapped closed-loop pass,
    then a wrapped one.  Their ratio is the tracing overhead; the
    unwrapped pass is the wire rung of the layer ladder, in the same
    process and under the same GIL as the engine and kernel rungs."""
    from repro.durability import MutationJournal
    from repro.engine import Coalescer, SpatialQueryEngine
    from repro.net import AdmissionController, ServerThread, protocol
    from repro.structures import batch, sharded
    from .tracing import Recorder, wrap_method, wrap_public

    p = SERVE_MIXED if mixed else SERVE_READ
    workload = "serve_mixed" if mixed else "serve_read"
    journal = measure.make_tmp("journal") if mixed else None
    rec = Recorder()
    repairs: List[dict] = []
    if mixed:     # shards are built during warm, before any request
        wrap_public(rec, sharded.build_sharded, "structures.build_sharded")
    engine, args = cli_engine(seed, journal)
    thread = None
    try:
        fp = engine.register(lines, domain=MAP["domain"])
        engine.warm(fp)
        thread = ServerThread(
            engine, host=HOST, port=0, max_connections=args.max_connections,
            max_inflight=args.max_inflight,
            client_inflight=args.client_inflight,
            client_rate=args.client_rate, client_burst=args.client_burst,
            request_timeout=args.request_timeout)
        wire = Wire(connect(thread.port, lambda: True))

        def one_pass(on_round=lambda r: None):
            reads = ReadStream(lines, fp, p["pool"], seed,
                               p["oracle_probes"])
            stream = reads
            if mixed:
                head = engine.registry.resolve(fp)
                stream = MixedStream(
                    reads, engine.registry.dataset(head.fingerprint), fp,
                    seed, base=head.version)
            phases = timed_phases(wire, mixed, stream, seconds, paced=False,
                                  on_round=on_round)
            return phases["closed"], reads

        plain = measure.summarize_rounds(one_pass()[0], 1.0)

        for name in batch.__all__:
            wrap_public(rec, getattr(batch, name), "structures.kernel")
        wrap_public(rec, protocol.encode_frame, "net.encode_frame")
        wrap_public(rec, protocol.parse_request, "net.parse_request")
        wrap_method(rec, AdmissionController, "admit", "net.admit")
        wrap_method(rec, Coalescer, "submit", "engine.coalescer_submit")
        for kind in ("window", "point", "nearest", "insert", "delete"):
            wrap_method(rec, SpatialQueryEngine, f"submit_{kind}",
                        "engine.submit")
        if mixed:
            wrap_public(rec, sharded.repair_sharded,
                        "structures.repair_sharded",
                        on_result=lambda out: repairs.append(out[1]))
            wrap_method(rec, MutationJournal, "append", "durability.append")
        before = engine.snapshot()
        rounds, reads = one_pass(lambda r: setattr(rec, "op_id", r))
        after = engine.snapshot()
        wire.close()
        traced = measure.summarize_rounds(rounds, 1.0)

        def delta(key: str, sub: Optional[str] = None) -> float:
            if sub is None:
                return after[key] - before[key]
            return after[key][sub] - before[key][sub]

        times = rec.self_times()
        requests = traced["samples"]
        layers = {
            "trace.overhead_ratio": (traced["work_per_s"]["value"]
                                     / plain["work_per_s"]["value"]),
            # share of closed-loop wall the server's loop thread spent in
            # wrapped calls (kernel, repair and WAL spans run on other
            # threads, overlap, and include their GIL waits)
            "trace.span_coverage": (
                sum(s for name, (s, _) in times.items()
                    if name.startswith(("net.", "engine.")))
                / sum(r["elapsed"] for r in rounds)),
            # engine counters are per request over the wrapped pass
            "engine.batches": delta("batches") / requests,
            "engine.mean_batch_size":
                delta("completed") / max(delta("batches"), 1),
            "engine.cache_hits": delta("cache", "hits") / requests,
            "engine.cache_misses": delta("cache", "misses") / requests,
            "engine.retries_total": delta("retries_total"),
            "engine.rejected_total": delta("rejected_total"),
            "engine.failed": delta("failed"),
            "engine.partial_results": delta("partial_results"),
            "engine.submit_us":
                1e6 * times.get("engine.submit", (0.0, 0))[0] / requests,
            "net.encode_us": _replay_us(
                encode_frame, list(reads.answers.values())),
            "net.decode_us": _replay_us(
                lambda f: parse_request(json.loads(f[4:])), reads.frames),
        }
        if mixed:
            probed, skipped = delta("shards_probed"), delta("shards_skipped")
            rebuilt = sum(r["shards_rebuilt"] for r in repairs)
            reused = sum(r["shards_reused"] for r in repairs)
            layers.update({
                "structures.shard_build_s":
                    _mean_span(rec, "structures.build_sharded", timed=False),
                "structures.repair_ms":
                    1e3 * _mean_span(rec, "structures.repair_sharded"),
                "structures.repair_touched_ratio":
                    rebuilt / max(rebuilt + reused, 1),
                "engine.shards_probed_per_batch":
                    probed / max(delta("shard_batches"), 1),
                "engine.shard_skip_rate":
                    skipped / max(probed + skipped, 1),
                "durability.append_ms":
                    1e3 * _mean_span(rec, "durability.append"),
            })
        else:
            # the lower rungs of the ladder: this engine, this pool
            wave = 256
            waves = [range(w * wave, (w + 1) * wave) for w in range(16)]
            entry = engine.registry.get(
                fp, args.structure,
                **probes.index_params(engine.config, args.structure))
            kernel = probes.kernel_ladder({args.structure: entry.tree},
                                          reads.pool, waves)
            engine_us = probes.engine_ladder(
                engine, fp, reads.pool, waves, (None,))["engine.us_per_probe"]
            net_us = 1e6 / plain["work_per_s"]["value"]
            layers.update(kernel)
            layers.update({
                "engine.us_per_probe": engine_us,
                "engine.tax_ratio": engine_us / kernel["structures.kernel_us"],
                "net.us_per_probe": net_us,
                "net.tax_ratio": net_us / engine_us,
            })
        layers["trace.spans"] = rec.flush(
            measure.out_path(f"spans-{workload}.jsonl"))
        return layers
    finally:
        if thread is not None:
            thread.stop()
        engine.close()
        if journal is not None:
            measure.drop_tmp(journal)


def _mean_span(rec, name: str, timed: bool = True) -> float:
    spans = [s[2] - s[1] for s in rec.spans
             if s[0] == name and (s[4] >= 0 or not timed)]
    return statistics.fmean(spans) if spans else 0.0


def _replay_us(fn: Callable, captured: list) -> float:
    """Mean microseconds of ``fn`` replayed over captured frames."""
    t0 = perf_counter()
    for item in captured:
        fn(item)
    return 1e6 * (perf_counter() - t0) / len(captured)
