"""Engine statistics: one declared counter table, latency percentiles.

Every engine counter is one :class:`Counter` row of :data:`COUNTERS`:
its name (the ``eng.stats.<name>`` attribute and ``snapshot()`` key),
the ``health()`` block exporting it, the subsystem event it counts when
that is not its name, and its meaning.  :class:`~repro.counters.Counters`
holds the values and the locked bump (``inc`` by name, ``event`` for the
store / journal / breaker streams); ``snapshot()`` and
``health()`` walk the table, so a new counter is one new row.  Counters
a subsystem bumps under its *own* lock (``IndexRegistry.hits``,
``IndexStore``, ``MutationJournal``) stay fields there
(DESIGN.md, "Counters").  Beside the table sit the latency reservoir,
the per-index rows and the repo's own currency -- scan-model steps and
primitive counts per batch -- so the paper's cost semantics survive
into the serving layer.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import numpy as np

from ..counters import Counter, Counters

__all__ = ["LatencyReservoir", "COUNTERS", "EngineStats"]


class LatencyReservoir:
    """Fixed-size ring of recent latency samples with percentile readout."""

    def __init__(self, size: int = 2048):
        self._buf = np.zeros(size, dtype=float)
        self._n = 0
        self._lock = threading.Lock()

    def add(self, seconds: float) -> None:
        with self._lock:
            self._buf[self._n % self._buf.size] = seconds
            self._n += 1

    def percentile(self, q: float) -> float:
        """q in [0, 100]; 0.0 when no samples were recorded yet."""
        with self._lock:
            filled = min(self._n, self._buf.size)
            if not filled:
                return 0.0
            return float(np.percentile(self._buf[:filled], q))

    @property
    def count(self) -> int:
        with self._lock:
            return self._n


#: the ``health()`` blocks a row can be exported under
TOP, WAL = "top", "wal"

COUNTERS = (
    Counter("submitted"),          # probes and mutations accepted
    Counter("completed"),          # ... answered: the sum of batch sizes
    Counter("failed"),             # ... whose future carries an exception
    Counter("timeouts"),           # sync helpers that gave up waiting
    Counter("rejected", labels={}),    # refusal reason -> probes refused
    Counter("batches"),            # dispatched batches (+ mutation commits)
    Counter("flushes", TOP,        # coalescer trigger -> jobs it flushed:
            labels={}),            # deadline, kick, drain, flush
    Counter("ran", TOP,            # where a group's job ran: caller (the
            labels={}),            # kicking thread) or pool
    Counter("steps"),              # scan-model steps of those batches
    Counter("primitives"),         # ... and their primitive invocations
    Counter("per_kind", labels={}),    # probe kind -> submitted
    # -- sharded waves ----------------------------------------------------
    Counter("shard_batches"),      # sharded batches planned
    Counter("shards_probed"),      # shards those batches' plans selected
    Counter("shards_skipped"),     # shards MBR-culled from a batch
    # -- persistent store (the IndexStore observer) ------------------------
    Counter("disk_hits", event="disk_hit"),
    Counter("disk_misses", event="disk_miss"),
    Counter("spills", event="spill"),
    Counter("corrupt_evictions", event="corrupt_eviction"),
    Counter("disk_evictions", event="disk_eviction"),
    # -- resilience --------------------------------------------------------
    Counter("retries", TOP,        # site -> retry count
            labels={"load_retry": "store.load"}),
    Counter("faults_injected", labels={}),   # site -> fired count
    Counter("breaker_trips", TOP, "trip"),
    Counter("breaker_reopens", event="reopen"),
    Counter("breaker_half_opens", TOP, "half_open"),
    Counter("breaker_closes", TOP, "close"),
    Counter("breaker_fast_fails", TOP),   # probes refused by an open breaker
    Counter("partial_batches", TOP),   # sharded waves cut by their deadline
    Counter("partial_results", TOP),   # probes resolved partially
    Counter("shards_dropped", TOP),    # planned shards a deadline cut
    Counter("fallbacks", TOP),     # probes served by brute force
    Counter("cancels", TOP),       # timed-out futures cancelled in time
    Counter("cancel_failures"),    # ... that had already started
    # -- mutations (MVCC commits) ------------------------------------------
    Counter("mutation_batches", TOP),    # coalesced groups committed
    Counter("mutation_failures", TOP),   # groups whose append or warm failed
    Counter("mutations_applied"),  # insert/delete probes committed
    Counter("lines_inserted"),
    Counter("lines_deleted"),
    Counter("repaired_builds"),    # warm builds an incremental repair served
    # -- durability (the MutationJournal observer, recover()) --------------
    Counter("wal_appends", WAL, "wal_append"),   # records durably journaled
    Counter("wal_append_failures", WAL),   # commits aborted at the append
    Counter("wal_bytes", WAL),     # record bytes written
    Counter("fsyncs", WAL, "fsync"),   # fsync calls (segments + checkpoints)
    Counter("wal_abandons", WAL, "wal_abandon"),   # tail records rolled back
    Counter("wal_segments_rotated", event="wal_segment_rotated"),
    Counter("wal_segments_truncated",   # dropped by checkpoint prefix GC
            event="wal_segment_truncated"),
    Counter("torn_tail_truncations", WAL,   # torn records dropped on open
            "torn_tail_truncation"),
    Counter("checkpoints", WAL, "checkpoint"),
    Counter("checkpoint_failures", WAL),
    Counter("recoveries", WAL),    # chains replayed by Engine.recover()
    Counter("wal_records_replayed", WAL),
)


class EngineStats(Counters):
    """Thread-safe counters for the serving stack (:data:`COUNTERS`) plus
    the non-counter readings: latency and per-index rows."""

    ROWS = COUNTERS

    def __init__(self, reservoir_size: int = 2048):
        super().__init__()
        self.steps = 0.0   # the one float-valued counter
        self._max_batch = 0
        self.per_index: Dict[str, Dict[str, float]] = {}
        self.latency = LatencyReservoir(reservoir_size)

    # -- recording: the per-probe and per-batch paths bump the attributes
    # directly under one acquisition, exactly what a field per counter cost

    def record_submitted(self, kind: str, n: int = 1) -> None:
        with self._lock:
            self.submitted += n
            self.per_kind[kind] = self.per_kind.get(kind, 0) + n

    def record_batch(self, index_name: str, size: int, steps: float,
                     primitives: int, latency_s: Optional[float] = None) -> None:
        """One dispatched batch: its size and its scan-model accounting."""
        with self._lock:
            self.batches += 1
            self.completed += size
            self.steps += steps
            self.primitives += primitives
            self._max_batch = max(self._max_batch, size)
            per = self.per_index.setdefault(
                index_name, {"batches": 0.0, "queries": 0.0, "steps": 0.0,
                             "primitives": 0.0})
            per["batches"] += 1
            per["queries"] += size
            per["steps"] += steps
            per["primitives"] += primitives
        if latency_s is not None:
            self.latency.add(latency_s)

    def record_shard_batch(self, total_shards: int, probed: int) -> None:
        """One sharded batch's plan: shards probed vs. MBR-culled."""
        with self._lock:
            self.shard_batches += 1
            self.shards_probed += probed
            self.shards_skipped += total_shards - probed

    # -- readout ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Every declared row, plus the values derived from them."""
        with self._lock:
            out = self.walk()
            probed, skipped = out["shards_probed"], out["shards_skipped"]
            out.update(
                rejected_total=sum(out["rejected"].values()),
                retries_total=sum(out["retries"].values()),
                mean_batch_size=(out["completed"] / out["batches"]
                                 if out["batches"] else 0.0),
                max_batch_size=self._max_batch,
                mean_shards_probed=(probed / out["shard_batches"]
                                    if out["shard_batches"] else 0.0),
                shard_skip_rate=(skipped / (probed + skipped)
                                 if probed + skipped else 0.0),
                per_index={k: dict(v) for k, v in self.per_index.items()},
                latency_p50_ms=self.latency.percentile(50) * 1e3,
                latency_p95_ms=self.latency.percentile(95) * 1e3)
            return out
