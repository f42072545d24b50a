"""Frozen definition of the bench spine: workloads, parameters, metric names.

Everything a later perf or simplicity PR cites by name lives here, so a
change to a workload or a metric is one visible diff.  Nothing in this
module measures; see ``README.md`` for what each name means.
"""

from __future__ import annotations

COLD_STARTS = 3          # setup_s is the median of this many fresh spawns
CALM_SHARE = 0.25        # a metric is the mean of this share of its rounds
TRACE_SHARE = 0.5        # a traced run times each of its passes this long

# -- workloads ------------------------------------------------------------

WORKLOADS = {
    "build_scan": "the paper's subject: scan-model builds of bucket PMR, "
                  "R-tree and PM1; machine + primitives + structures.build "
                  "do all the work, engine/net/durability none",
    "batch_query": "in-process engine on batched probe waves: batch kernels "
                   "+ coalescer/executor/registry dominate, net/durability "
                   "idle",
    "serve_read": "python -m repro serve at CLI defaults over loopback: "
                  "protocol, admission and coalescer wait dominate, kernels "
                  "are a small share",
    "serve_mixed": "same server, sharded + journaled, every 10th op a "
                   "commit: repair, WAL fsync and fingerprinting beside "
                   "reads",
}

#: the map every query workload serves; identical to what
#: ``python -m repro serve --map uniform --n 20000 --domain 4096`` builds
MAP = {"n": 20000, "domain": 4096, "max_len": 4096 // 32}

#: the probe mix of batch_query / serve_read / serve_mixed reads
MIX = {"window": 0.7, "point": 0.2, "nearest": 0.1,
       "side_lo": 16.0, "side_hi": 512.0}

BUILD_SCAN = {
    # one op = one cycle of these four builds, back to back
    "uniform_n": 8000, "uniform_domain": 4096, "uniform_max_len": 128,
    "pm1_n": 2000, "pm1_domain": 65536, "pm1_max_len": 256,
    "clustered_n": 8000, "clustered_clusters": 53, "clustered_spread": 170,
    "capacity": 8, "min_fill": 2,
    "warmup_cycles": 1, "oracle_windows": 64,
    "round_ops": 1,          # a round is one cycle (about 0.6 s)
}

BATCH_QUERY = {
    "wave": 256,             # probes per op, submitted from one thread
    "pool_waves": 64,        # distinct waves, cycled
    "structures": ("pmr", "rtree"),   # waves alternate
    "warmup_waves": 20, "oracle_probes": 256,
    "round_ops": 16,         # waves per round (about 0.5 s)
}

SERVE_READ = {
    "pool": 8192,            # distinct requests, cycled
    # saturation phase: closed loop of waves -- 16 requests sent together,
    # the next 16 once all are answered -- so that every wave is one
    # coalesced batch; 16 free-running requests form batches chaotically
    # and the rate wanders between 700 and 1200 req/s within one run
    "inflight": 16,
    "round_ops": 512,        # requests per saturation round (about 0.35 s)
    "paced_rate": 200.0,     # open loop, well below saturation
    "paced_round_ops": 200,  # one second: ten samples beyond the p95
    # the generator holds a due request back while this many are unanswered
    # (the server's --client-inflight default is 64 and answers 429 past it;
    # a calm run has one or two in flight)
    "paced_inflight": 48,
    "saturation_share": 0.4,  # of --seconds; the rest is the paced phase
    "warmup_requests": 1600, "oracle_probes": 256,
    "late_p99_warn_ms": 2.0,
}

SERVE_MIXED = {
    "pool": 8192, "inflight": 4, "write_every": 10, "write_rows": 8,
    "cell": 40, "shards": 4, "ordering": "hilbert",
    "warmup_requests": 100, "oracle_probes": 256,
    "round_ops": 50,         # five commits per round (about 0.8 s)
}

# -- end-to-end metrics (same five on every workload) -----------------------
# name -> (unit, better, floor, cap): a bound is calibrated from measured
# spread, never below ``floor``; ``cap`` is what the issue hoped for and
# ``HARD_CAP`` what the driver's contract allows.

HARD_CAP = 0.25

END_TO_END = {
    "setup_s":     ("s",   "lower",  0.15, 0.20),
    "work_per_s":  ("1/s", "higher", 0.05, 0.10),
    "op_p50_ms":   ("ms",  "lower",  0.05, 0.10),
    "op_p95_ms":   ("ms",  "lower",  0.10, 0.10),
    "peak_rss_mb": ("MiB", "lower",  0.05, 0.10),
}

# -- per-layer metrics (traced run) ------------------------------------------
# name -> (unit, better).  ``*_busy_s`` is self time (span minus child
# spans) per op.  A workload that does not exercise a layer reports 0.

PER_LAYER = {
    "geometry.generate_s": ("s", "lower"),
    # machine
    "machine.steps": ("count", "lower"),
    "machine.primitives": ("count", "lower"),
    "machine.scan_busy_s": ("s", "lower"),
    "machine.permute_busy_s": ("s", "lower"),
    "machine.sort_busy_s": ("s", "lower"),
    "machine.ew_busy_s": ("s", "lower"),
    # primitives
    "primitives.clone_busy_s": ("s", "lower"),
    "primitives.unshuffle_busy_s": ("s", "lower"),
    "primitives.dupdelete_busy_s": ("s", "lower"),
    "primitives.capacity_busy_s": ("s", "lower"),
    "primitives.quad_split_busy_s": ("s", "lower"),
    "primitives.pm1_split_busy_s": ("s", "lower"),
    "primitives.rtree_split_busy_s": ("s", "lower"),
    "primitives.calls": ("count", "lower"),
    # structures
    "structures.build_self_s.pmr": ("s", "lower"),
    "structures.build_self_s.rtree": ("s", "lower"),
    "structures.build_self_s.pm1": ("s", "lower"),
    "structures.build_rounds": ("count", "lower"),
    "structures.kernel_us": ("us", "lower"),
    "structures.kernel_window_us": ("us", "lower"),
    "structures.kernel_point_us": ("us", "lower"),
    "structures.kernel_nearest_us": ("us", "lower"),
    "structures.results_per_probe": ("count", "lower"),
    "structures.shard_build_s": ("s", "lower"),
    "structures.repair_ms": ("ms", "lower"),
    "structures.repair_touched_ratio": ("ratio", "lower"),
    # engine
    "engine.us_per_probe": ("us", "lower"),
    "engine.tax_ratio": ("ratio", "lower"),
    "engine.submit_us": ("us", "lower"),
    "engine.batches": ("count", "lower"),
    "engine.mean_batch_size": ("count", "higher"),
    "engine.cache_hits": ("count", "higher"),
    "engine.cache_misses": ("count", "lower"),
    "engine.commit_ms": ("ms", "lower"),
    "engine.shards_probed_per_batch": ("count", "lower"),
    "engine.shard_skip_rate": ("ratio", "higher"),
    "engine.retries_total": ("count", "lower"),
    "engine.rejected_total": ("count", "lower"),
    "engine.failed": ("count", "lower"),
    "engine.partial_results": ("count", "lower"),
    # store
    "store.put_ms": ("ms", "lower"),
    "store.load_ms": ("ms", "lower"),
    "store.bytes_per_input_byte": ("ratio", "lower"),
    # durability
    "durability.append_ms": ("ms", "lower"),
    "durability.bytes_per_commit": ("count", "lower"),
    "durability.fsyncs_per_commit": ("count", "lower"),
    "durability.wal_bytes_per_user_byte": ("ratio", "lower"),
    "durability.replay_records_per_s": ("1/s", "higher"),
    # net
    "net.us_per_probe": ("us", "lower"),
    "net.tax_ratio": ("ratio", "lower"),
    "net.encode_us": ("us", "lower"),
    "net.decode_us": ("us", "lower"),
    "net.bytes_in_per_req": ("count", "lower"),
    "net.bytes_out_per_req": ("count", "lower"),
    "net.server_cpu_s_per_kreq": ("s", "lower"),
    "net.status_non200": ("count", "lower"),
    "net.admission_refused": ("count", "lower"),
    "net.loadgen_late_p99_ms": ("ms", "lower"),
    # the tracer itself
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.span_coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}
