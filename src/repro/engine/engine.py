"""The concurrent batched spatial query engine.

:class:`SpatialQueryEngine` composes the serving stack:

* an :class:`~repro.engine.registry.IndexRegistry` building PM1 /
  bucket-PMR / R-tree indexes on demand, keyed by dataset fingerprint,
  with LRU eviction and invalidation hooks for dynamic updates --
  optionally backed by a persistent :class:`~repro.store.IndexStore`
  (``cache_dir=...``) that absorbs evictions and serves warm starts;
* a :class:`~repro.engine.coalescer.Coalescer` that batches individual
  window / point / nearest probes per (index, exactness) -- one mixed
  wave per index -- and flushes a group by deadline, or as soon as a
  caller waits on one of its probes and no group is in flight
  (work-conserving), cut into jobs of at most ``max_batch`` probes;
* a bounded thread pool (:class:`~repro.engine.executor.BoundedExecutor`)
  running each batch as **one** vectorized ``structures.batch``
  frontier pass over the read-only index, with backpressure when
  saturated -- every group, sharded or not, reaches it as **one**
  :class:`~repro.engine.worker.JobSpec` through one submit/settle
  pipeline (``_run_group``; DESIGN.md section 7), and a kicked read
  group over a built index runs on the kicking thread itself;
* an :class:`~repro.engine.stats.EngineStats` layer aggregating batch
  sizes, queue depth, cache hit rate, latency percentiles, and the
  scan-model step accounting per batch;
* a :mod:`~repro.resilience` layer: per-fingerprint circuit breakers
  (fail fast with :class:`CircuitOpenError`, or degrade to a
  brute-force scan with ``brute_fallback=True``), retry with backoff
  on transient executor rejections and store loads, deadline
  propagation into sharded waves (an expired deadline yields a
  :class:`~repro.resilience.PartialResult`, not a timeout), and an
  optional :class:`~repro.resilience.FaultInjector` driven by
  ``fault_plan`` for chaos testing.  :meth:`SpatialQueryEngine.health`
  snapshots it all.

Results are bit-identical to looping the scalar queries (a test
invariant): batching changes the schedule, never the answer.

Example::

    from repro.engine import SpatialQueryEngine

    with SpatialQueryEngine(workers=4, max_batch=256) as eng:
        fp = eng.register(lines, domain=4096)
        hits = eng.window(fp, [100, 100, 400, 300])
        line, dist = eng.nearest(fp, (250.0, 250.0), structure="rtree")
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures import (Future, InvalidStateError,
                                TimeoutError as FutureTimeoutError, wait)
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..durability import (FSYNC_POLICIES, JournalError, MutationJournal,
                          RecoveryReport, journal_roots, replay_journal)
from ..resilience import (OPEN, BreakerBoard, CircuitOpenError, FaultInjector,
                          FaultPlan, PartialResult, RetryPolicy)
from ..structures.batch import FAMILY, KINDS
from ..structures.sharded import ORDERINGS
from .coalescer import Coalescer, Probe
from .executor import BoundedExecutor, RejectedError
from .registry import IndexKey, IndexRegistry, index_params
from .stats import TOP, WAL, EngineStats
from .worker import JobSpec, WorkerResult, interpret

__all__ = ["EngineConfig", "MutationResult", "SpatialQueryEngine"]

#: wall cap (seconds) of the blocking helpers when the caller passes no
#: ``timeout``
_SYNC_TIMEOUT = 30.0


def _refusal(kind: str, pt: np.ndarray, domain: int, size: int,
             family: str) -> Optional[str]:
    """Why a probe cannot join a wave, if it cannot: a quadtree point
    outside the domain, or a nearest probe without a finite point or a
    line to find."""
    if kind == "point" and family == "quadtree" \
            and not (0 <= pt[0] <= domain and 0 <= pt[1] <= domain):
        return f"point {tuple(pt.tolist())} outside the domain"
    if kind == "nearest" and not (size and np.isfinite(pt).all()):
        return f"no nearest line to point {tuple(pt.tolist())} in {size} lines"
    return None


def _resolve(fut: Future, value) -> None:
    """Set a result, tolerating a future cancelled by a timed-out waiter."""
    try:
        fut.set_result(value)
    except InvalidStateError:
        pass


def _reject(fut: Future, exc: BaseException) -> None:
    try:
        fut.set_exception(exc)
    except InvalidStateError:
        pass


class _KickingFuture(Future):
    """A probe's future: waiting on it unfinished kicks the coalescer.

    A caller waits only after it has submitted, so ``result()`` and
    ``exception()`` flush an idle engine's pending groups onto the
    waiting thread.  ``add_done_callback`` (so the server's bridge),
    ``concurrent.futures.wait`` and ``asyncio.wrap_future`` never kick.
    """

    def __init__(self, kick):
        super().__init__()
        self._kick = kick

    def result(self, timeout=None):
        if not self.done():
            self._kick()
        return super().result(timeout)

    def exception(self, timeout=None):
        if not self.done():
            self._kick()
        return super().exception(timeout)


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one committed mutation batch (a future's value).

    ``repair`` carries the repair stats of the warm build when the new
    version was repaired incrementally from its parent (``None``: the
    index was built canonically).
    """

    root: str            # version-0 fingerprint: the stable client handle
    fingerprint: str     # content fingerprint of the committed version
    version: int         # chain position the batch committed as
    num_lines: int
    inserted: int
    deleted: int
    repair: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the serving stack (see class docstrings for roles)."""

    structure: str = "pmr"        # default index family for probes
    capacity: int = 8             # bucket capacity / R-tree M
    min_fill: int = 2             # R-tree m
    max_batch: int = 64           # largest job a flushed group is cut into
    #: coalescing deadline (seconds): the longest a probe waits while
    #: groups are in flight and its callers have not kicked; waiting on
    #: a probe, or a server pass that submitted, flushes an idle engine now
    max_wait: float = 0.002
    workers: int = 4              # executor threads
    queue_depth: int = 64         # bounded executor queue
    cache_capacity: int = 8       # LRU-cached built indexes
    shards: int = 1               # >1: space-sorted sharded indexes
    ordering: str = "morton"      # shard cut order: morton | hilbert
    versions_retained: int = 2    # dataset versions kept warm (MVCC)
    cache_dir: Optional[str] = None   # persistent index store directory
    disk_budget_bytes: Optional[int] = None  # store byte budget (None: unbounded)
    # -- resilience -------------------------------------------------------
    retry_attempts: int = 3       # tries per retrying site (1: no retries)
    breaker_threshold: int = 5    # consecutive failures tripping a breaker
    breaker_reset: float = 5.0    # open -> half-open probe delay (seconds)
    brute_fallback: bool = False  # serve brute-force while a breaker is open
    fault_plan: Optional[FaultPlan] = None  # chaos plan (None: no injection)
    # -- durability -------------------------------------------------------
    journal_dir: Optional[str] = None  # WAL directory (None: no journal)
    journal_fsync: str = "commit"      # "commit": fsync per append | "none"
    checkpoint_every: int = 0          # auto-checkpoint cadence (0: manual)
    journal_segment_bytes: int = 4 << 20   # WAL segment rotation threshold

    def __post_init__(self) -> None:
        if self.structure not in FAMILY:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}; "
                             f"choose from {ORDERINGS}")
        if self.versions_retained < 1:
            raise ValueError("versions_retained must be >= 1")
        if self.disk_budget_bytes is not None:
            if self.cache_dir is None:
                raise ValueError("disk_budget_bytes requires cache_dir")
            if self.disk_budget_bytes < 0:
                raise ValueError("disk_budget_bytes must be >= 0")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_reset < 0:
            raise ValueError("breaker_reset must be >= 0")
        if self.journal_fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown journal_fsync {self.journal_fsync!r}; "
                             f"choose from {FSYNC_POLICIES}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every and self.journal_dir is None:
            raise ValueError("checkpoint_every requires journal_dir")
        if self.journal_segment_bytes < 4096:
            raise ValueError("journal_segment_bytes must be >= 4096")


class SpatialQueryEngine:
    """Concurrent batched query serving over the paper's structures."""

    def __init__(self, config: Optional[EngineConfig] = None, **overrides):
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config or keyword overrides")
        self.config = config
        self.stats = EngineStats()
        self.faults = (FaultInjector(config.fault_plan,
                                     observer=self._on_fault)
                       if config.fault_plan is not None
                       and config.fault_plan.specs else None)
        # backoff delays are RetryPolicy's own defaults (2 ms doubling to
        # a 50 ms cap); only the try count is a knob
        self._retry = RetryPolicy(attempts=config.retry_attempts)
        self._rng = random.Random(0xF417)  # deterministic backoff jitter
        self.store = None
        if config.cache_dir is not None:
            from ..store import IndexStore
            self.store = IndexStore(config.cache_dir,
                                    budget_bytes=config.disk_budget_bytes,
                                    observer=self.stats.event,
                                    retry=self._retry, injector=self.faults)
        # (content fingerprint, structure) -> the IndexKey it serves
        # under; _on_collected drops a collected content's entries
        self._index_keys: Dict[Tuple[str, str], IndexKey] = {}
        self.registry = IndexRegistry(
            capacity=config.cache_capacity, store=self.store,
            injector=self.faults,
            versions_retained=config.versions_retained,
            on_collect=self._on_collected)
        self._mutation_lock = threading.Lock()
        self._mutation_root_locks: Dict[str, threading.Lock] = {}
        self._mutation_threads: List[threading.Thread] = []
        # write-ahead journals, one per mutation chain, keyed by the
        # chain's *current* anchor (after recovery that is the
        # checkpoint fingerprint, not the original handle)
        self._journal_dir = config.journal_dir
        self._journals: Dict[str, MutationJournal] = {}
        self._ckpt_counts: Dict[str, int] = {}
        self._executor = BoundedExecutor(workers=config.workers,
                                         queue_depth=config.queue_depth,
                                         injector=self.faults)
        self.breakers = BreakerBoard(
            failure_threshold=config.breaker_threshold,
            reset_timeout=config.breaker_reset,
            listener=lambda event, key: self.stats.event(event))
        # one marker future per read or join group in flight, which
        # flush() waits on: set once the group has released its pins,
        # recorded its counters and resolved its probes (a caller may
        # cancel a probe future, never this).  Empty is the coalescer's
        # "idle": a kick flushes at once, a settle drains marked groups
        self._unsettled: set = set()
        self._coalescer = Coalescer(
            self._dispatch, max_batch=config.max_batch,
            max_wait=config.max_wait, idle=lambda: not self._unsettled,
            on_flush=lambda why, n: self.stats.inc(flushes={why: n}))
        self._closed = False

    # -- datasets --------------------------------------------------------

    def register(self, lines: np.ndarray, domain: Optional[int] = None) -> str:
        """Register a segment map; returns the fingerprint probes use."""
        return self.registry.register(lines, domain=domain)

    def submit_insert(self, fingerprint: str, new_lines) -> Future:
        """Asynchronously append segments to a registered map.

        Mutations coalesce per dataset *root* like probes coalesce per
        index: every insert/delete submitted within the batch window
        commits as **one** new version (deletes first, then inserts
        appended in submission order).  The future resolves to a
        :class:`MutationResult` once the new version's default index is
        warm and reads have flipped to it; reads admitted before the
        flip finish against the snapshot they resolved at submit time.
        """
        arr = np.asarray(new_lines, dtype=np.float64).reshape(-1, 4)
        return self._submit_mutation("insert", fingerprint, arr)

    def submit_delete(self, fingerprint: str, ids) -> Future:
        """Asynchronously remove segments by current-version row id.

        Ids are validated against the version the batch commits over;
        a probe with out-of-range ids fails alone, without poisoning
        the rest of its batch.  See :meth:`submit_insert`.
        """
        arr = np.asarray(ids, dtype=np.int64).reshape(-1)
        return self._submit_mutation("delete", fingerprint, arr)

    def _submit_mutation(self, op: str, fingerprint: str,
                         payload: np.ndarray) -> Future:
        info = self.registry.resolve(fingerprint)   # KeyError: unknown map
        self.stats.record_submitted(op)
        return self._enqueue(("mutate", info.root), self._probe((op, payload)))

    def insert_lines(self, fingerprint: str, new_lines,
                     timeout: Optional[float] = None) -> str:
        """Blocking insert; returns the committed version's fingerprint."""
        fut = self.submit_insert(fingerprint, new_lines)
        self.flush()
        return self._await(fut, timeout).fingerprint

    def delete_lines(self, fingerprint: str, ids,
                     timeout: Optional[float] = None) -> str:
        """Blocking delete; returns the committed version's fingerprint."""
        fut = self.submit_delete(fingerprint, ids)
        self.flush()
        return self._await(fut, timeout).fingerprint

    def datasets_info(self) -> List[Dict[str, object]]:
        """One row per registered dataset (fingerprint, size, domain).

        The serving front-end (:mod:`repro.net`) exposes this as the
        ``datasets`` request kind so network clients can discover what
        to probe without an out-of-band fingerprint exchange.
        """
        return self.registry.datasets_info()

    def warm(self, fingerprint: str, structure: Optional[str] = None) -> None:
        """Build (or touch) the index ahead of traffic."""
        info = self.registry.resolve(fingerprint)
        key = self._index_key(info.fingerprint, structure)
        self.registry.get(key.fingerprint, key.structure, **dict(key.params))

    # -- asynchronous probes ---------------------------------------------

    def submit_window(self, fingerprint: str, rect,
                      structure: Optional[str] = None,
                      exact: bool = True,
                      deadline: Optional[float] = None) -> Future:
        rect = np.asarray(rect, dtype=float).reshape(4)
        return self._submit("window", fingerprint, rect, structure, exact,
                            deadline)

    def submit_point(self, fingerprint: str, point,
                     structure: Optional[str] = None,
                     exact: bool = True,
                     deadline: Optional[float] = None) -> Future:
        pt = np.asarray(point, dtype=float).reshape(2)
        return self._submit("point", fingerprint, np.tile(pt, 2), structure,
                            exact, deadline)

    def submit_nearest(self, fingerprint: str, point,
                       structure: Optional[str] = None,
                       deadline: Optional[float] = None) -> Future:
        pt = np.asarray(point, dtype=float).reshape(2)
        return self._submit("nearest", fingerprint, np.tile(pt, 2),
                            structure, True, deadline)

    def submit_join(self, fingerprint_a: str, fingerprint_b: str,
                    structure: Optional[str] = None) -> Future:
        """Spatial join of two registered maps.

        Joins coalesce like probes do: pairs submitted within the batch
        window for the same structure share **one** executor job with
        per-pair outcomes, so one bad pair fails only its own future.
        """
        structure = structure or self.config.structure
        if structure not in FAMILY:
            raise ValueError(f"unknown structure {structure!r}")
        self.stats.record_submitted("join")
        infos = (self.registry.resolve(fingerprint_a),
                 self.registry.resolve(fingerprint_b))
        fps = tuple(i.fingerprint for i in infos)
        if not all(self.breakers.allow(fp) for fp in fps):
            if not self.config.brute_fallback:
                return self._fail_fast("join", fps)
            probe = self._probe(fps)   # degraded join: a group of one, brute
            self._dispatch_join(structure, [probe], brute=True)
            return probe.future
        probe = self._probe(fps)
        probe.future.version = max(i.version for i in infos)
        probe.future.versions = tuple(i.version for i in infos)
        for fp in fps:
            self.registry.pin(fp)
        probe.future.add_done_callback(
            lambda _f, pair=fps: [self.registry.unpin(fp) for fp in pair])
        return self._enqueue(("join", structure), probe)

    # -- synchronous helpers ---------------------------------------------

    def window(self, fingerprint: str, rect, structure: Optional[str] = None,
               exact: bool = True, timeout: Optional[float] = None,
               deadline: Optional[float] = None) -> np.ndarray:
        """Blocking window query; raises TimeoutError past ``timeout``.

        With a ``deadline`` (seconds) on a sharded index, a wave that
        passes it before its last planned shard returns a
        :class:`PartialResult` instead of raising.
        """
        return self._await(self.submit_window(fingerprint, rect, structure,
                                              exact, deadline), timeout)

    def point(self, fingerprint: str, point, structure: Optional[str] = None,
              exact: bool = True, timeout: Optional[float] = None,
              deadline: Optional[float] = None) -> np.ndarray:
        """Blocking point query."""
        return self._await(self.submit_point(fingerprint, point, structure,
                                             exact, deadline), timeout)

    def nearest(self, fingerprint: str, point,
                structure: Optional[str] = None,
                timeout: Optional[float] = None,
                deadline: Optional[float] = None) -> Tuple[int, float]:
        """Blocking nearest-line query; returns ``(line id, distance)``."""
        return self._await(self.submit_nearest(fingerprint, point, structure,
                                               deadline), timeout)

    def join(self, fingerprint_a: str, fingerprint_b: str,
             structure: Optional[str] = None,
             timeout: Optional[float] = None) -> np.ndarray:
        """Blocking spatial join of two registered maps."""
        return self._await(self.submit_join(fingerprint_a, fingerprint_b,
                                            structure), timeout)

    # -- durability ------------------------------------------------------

    def recover(self) -> List[RecoveryReport]:
        """Replay every journal under ``journal_dir`` into this engine.

        Call on a fresh engine after a crash (the serve CLI does this
        before listening).  Each chain's journal is replayed over its
        checkpoint snapshot with every step proven by fingerprint
        identity (:func:`repro.durability.replay_journal`), the original
        client handle is aliased onto the recovered chain so pre-crash
        fingerprints keep resolving, and the journal is re-attached for
        new commits.  Returns one :class:`RecoveryReport` per chain;
        idempotent -- replay walks in lockstep with the live chain, so
        a second call finds every position held and applies nothing.
        """
        if self._journal_dir is None:
            return []
        reports: List[RecoveryReport] = []
        for name in journal_roots(self._journal_dir):
            directory = os.path.join(self._journal_dir, name)
            # an attached journal may be keyed by a different chain root
            # than its directory name (a previous recover re-keyed it)
            attached = next((k for k, j in self._journals.items()
                             if j.directory == directory), None)
            journal = (self._journals[attached] if attached is not None
                       else self._open_journal(directory))
            try:
                report = replay_journal(journal, self.registry, name)
            except BaseException:
                if attached is None:
                    journal.close()
                raise
            if report.chain_root != name:
                self.registry.adopt_root(name, report.chain_root)
            if attached is not None:
                self._journals.pop(attached, None)
            self._journals[report.chain_root] = journal
            self.stats.inc(recoveries=1,
                           wal_records_replayed=report.records_replayed)
            reports.append(report)
        return reports

    def checkpoint(self, fingerprint: str) -> Dict[str, object]:
        """Checkpoint the chain's head snapshot; truncates the WAL prefix.

        Persists the head's default index to the store first (when one
        is attached), then atomically snapshots the dataset into the
        journal directory and drops every fully-covered segment.
        Returns the checkpoint manifest.
        """
        info = self.registry.resolve(fingerprint)
        with self._root_lock(info.root):
            return self._checkpoint_locked(info.root)

    # -- lifecycle / introspection ---------------------------------------

    def kick(self) -> None:
        """The callers have nothing more to submit right now: flush the
        pending groups if no group is in flight, else as soon as none
        is (see :meth:`Coalescer.kick`).  Waiting on a probe's future
        (``result()``, ``exception()``, the blocking helpers) kicks
        first; the network server kicks once per event-loop pass that
        submitted.  ``submit_*`` never kicks."""
        self._coalescer.kick()

    def flush(self) -> None:
        """Dispatch all pending probes now (deterministic batching in
        tests) and wait for the read groups and mutation commits in
        flight to settle, so their counters are recorded on return."""
        self._coalescer.flush()
        wait(list(self._unsettled))
        while True:
            with self._mutation_lock:
                alive = [t for t in self._mutation_threads if t.is_alive()]
                self._mutation_threads = alive
            if not alive:
                return
            for t in alive:
                t.join()

    def snapshot(self) -> Dict[str, object]:
        """Engine counters + cache stats + current queue/pending gauges."""
        out = self.stats.snapshot()
        out["cache"] = self.registry.snapshot()
        out["queue_depth"] = self._executor.queue_depth
        out["pending_probes"] = self._coalescer.pending
        return out

    def health(self) -> Dict[str, object]:
        """Liveness snapshot: breaker states plus the resilience counters.

        ``status`` is ``"ok"`` while every breaker is closed and
        ``"degraded"`` when any fingerprint is open or half-open (some
        traffic fails fast or runs on the brute-force fallback).  The
        full per-fingerprint breaker map, retry counters, partial-result
        counters, and the fault-injector state ride along -- what a
        load balancer's health endpoint would serve.
        """
        breakers = self.breakers.snapshot()
        not_closed = [k for k, b in breakers.items() if b["state"] != "closed"]
        s = self.stats
        return {
            "status": "degraded" if not_closed else "ok",
            "closed": self._closed,
            "executor": {"backend": "thread",
                         "workers": self.config.workers},
            "breakers": breakers,
            "breakers_not_closed": sorted(not_closed),
            **s.walk(TOP),
            "wal": {
                "enabled": self._journal_dir is not None,
                "journal_dir": self._journal_dir,
                "fsync_policy": self.config.journal_fsync,
                **s.walk(WAL),
                "journals": {root: j.snapshot()
                             for root, j in self._journals.items()},
            },
            "versions_committed": self.registry.versions_committed,
            "versions_collected": self.registry.versions_collected,
            "queue_depth": self._executor.queue_depth,
            "pending_probes": self._coalescer.pending,
            "fault_injection": (self.faults.snapshot()
                                if self.faults is not None else None),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._coalescer.close()
        with self._mutation_lock:
            pending = list(self._mutation_threads)
        for t in pending:
            t.join()
        self._executor.shutdown(wait=True)
        # graceful-shutdown durability point: even under the "none"
        # fsync policy the journals end fully flushed and fsync'd
        for journal in self._journals.values():
            journal.close()
        # warm shutdown: with a store attached, persist the in-memory
        # tier so the next process starts from disk hits, not rebuilds
        if self.store is not None:
            self.registry.spill_all()

    def __enter__(self) -> "SpatialQueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _on_fault(self, site: str, kind: str) -> None:
        """One injected fault fired (the :class:`FaultInjector` observer)."""
        self.stats.inc(faults_injected={site: 1})

    def _on_collected(self, fingerprint: str) -> None:
        """The registry dropped a content (its ``on_collect`` observer):
        the per-content serving state kept here goes with it."""
        self.breakers.drop(fingerprint)
        for structure in FAMILY:
            self._index_keys.pop((fingerprint, structure), None)

    def _index_key(self, fingerprint: str,
                   structure: Optional[str]) -> IndexKey:
        """The key ``fingerprint``'s index is served under, memoised per
        (content, structure) until the content is collected."""
        structure = structure or self.config.structure
        key = self._index_keys.get((fingerprint, structure))
        if key is None:
            if structure not in FAMILY:
                raise ValueError(f"unknown structure {structure!r}")
            key = self._index_keys[(fingerprint, structure)] = IndexKey.make(
                fingerprint, structure, **index_params(
                    structure, self.config.capacity, self.config.min_fill,
                    self.config.shards, self.config.ordering))
        return key

    def _submit(self, kind: str, fingerprint: str, payload: np.ndarray,
                structure: Optional[str], exact: bool,
                deadline: Optional[float] = None) -> Future:
        """Enqueue one read probe, ``payload`` its wave row: an exact probe
        joins its index's group, a filter probe its kind's."""
        # snapshot isolation: the probe binds to the version that is
        # current *now* -- a mutation committing after this line cannot
        # redirect it, because the group key carries the resolved
        # content fingerprint, not the client's chain handle.  The pin
        # keeps retention GC off this version's dataset (the brute
        # fallback needs it) until the probe's group settles; a probe
        # that never joins a group releases it here.
        fingerprint, version, domain, size = self.registry.pin_head(fingerprint)
        try:
            key = (self._index_key(fingerprint, structure), bool(exact)) \
                + (() if exact else (kind,))
        except ValueError:
            self.registry.unpin(fingerprint)
            raise
        self.stats.record_submitted(kind)
        bad = _refusal(kind, payload[:2], domain, size, FAMILY[key[0].structure])
        if bad:   # fail this probe alone, not the wave it would join
            self.registry.unpin(fingerprint)
            self.stats.inc(failed=1)
            fut: Future = Future()
            fut.set_exception(ValueError(bad))
            return fut
        if not self.breakers.allow(fingerprint):
            if self.config.brute_fallback:
                return self._submit_brute(kind, fingerprint, payload)
            self.registry.unpin(fingerprint)
            return self._fail_fast(kind, (fingerprint,))
        probe = self._probe(payload, kind=KINDS.index(kind),
                            deadline_at=(time.monotonic() + deadline
                                         if deadline is not None else None))
        probe.future.version = version
        return self._enqueue(key, probe, pinned=fingerprint)

    def _probe(self, payload, **kw) -> Probe:
        """A probe whose future kicks the coalescer when waited on."""
        return Probe(payload, _KickingFuture(self._coalescer.kick), **kw)

    def _enqueue(self, group_key, probe: Probe,
                 pinned: Optional[str] = None) -> Future:
        """Hand a probe to the coalescer; a refusal fails only its future
        and releases the pin ``pinned`` names (no group will)."""
        try:
            self._coalescer.submit(group_key, probe)
        except RejectedError as exc:
            if pinned is not None:
                self.registry.unpin(pinned)
            self.stats.inc(rejected={exc.reason: 1})
            probe.future.set_exception(exc)
        return probe.future

    def _fail_fast(self, kind: str, fingerprints) -> Future:
        """An already-failed future for a probe refused by an open breaker."""
        self.stats.inc(breaker_fast_fails=1, failed=1)
        fp = next((f for f in fingerprints
                   if self.breakers.state(f) != "closed"), fingerprints[0])
        fut: Future = Future()
        fut.set_exception(CircuitOpenError(
            f"circuit open for dataset {fp!r} ({kind} probe refused)",
            key=fp, retry_after=self.breakers.retry_after(fp)))
        return fut

    def _submit_brute(self, kind: str, fingerprint: str,
                      payload: np.ndarray) -> Future:
        """Degraded service: answer from the raw segments, no index.

        Runs while the fingerprint's breaker is open and
        ``brute_fallback`` is enabled -- an O(n) scan keeps answers
        flowing (exact-geometry semantics) until the index path heals.
        The pin :meth:`_submit` took goes with the probe's group.
        """
        probe = self._probe(payload)
        self._run_group(JobSpec(op="brute", kinds=KINDS.index(kind),
                                index=self._index_key(fingerprint, None),
                                payloads=payload[None, :]), [probe])
        return probe.future

    def _submit_job_with_retry(self, job, fut: Future) -> None:
        """Executor submit with backoff on transient ``queue_full``.

        A saturated queue usually drains within a backoff or two;
        ``shutdown``/``closed`` rejections are permanent and re-raise
        immediately.  The caller's thread naps, which is exactly the
        backpressure a full queue should exert on producers.
        """
        attempt = 0
        while True:
            try:
                self._executor.submit(job, fut)
                return
            except RejectedError as exc:
                if exc.reason != "queue_full" \
                        or attempt + 1 >= self._retry.attempts:
                    raise
                self.stats.inc(retries={"executor.submit": 1})
                time.sleep(self._retry.delay(attempt, self._rng))
                attempt += 1

    def _await(self, future: Future, timeout: Optional[float]):
        """Block on one probe's answer (waiting kicks its group)."""
        timeout = _SYNC_TIMEOUT if timeout is None else timeout
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            # try to free the slot: a not-yet-started job (or a probe
            # still waiting on its batch) cancels cleanly and its
            # worker/delivery skips it; a running one must finish
            cancelled = future.cancel()
            self.stats.inc(timeouts=1, cancels=int(cancelled),
                           cancel_failures=int(not cancelled))
            raise

    # -- the job pipeline --------------------------------------------------

    def _run_group(self, spec: JobSpec, probes: List[Probe],
                   started: Optional[float] = None,
                   settled: Optional[Future] = None,
                   here: bool = False) -> None:
        """The one group pipeline: submit -> settle.

        ``here`` runs the job on this thread (:meth:`BoundedExecutor.run`)
        instead of the pool; the settle path is the same either way, and
        is attached to the job's future before the job can finish, so a
        fast pool job never settles on the submitting thread.
        Otherwise submit with retry; a rejection is counted and rejects
        every probe (it never feeds a breaker).  A failed job goes to
        :meth:`_group_failed`; a finished one feeds the breaker(s),
        records its batch row and resolves each probe exactly once.
        A ``brute`` spec (or ``join`` with ``brute=True``) is the
        degraded service: it leaves the breakers alone and counts as a
        fallback.  A sharded wave's ``shards`` counts land here too: its
        shard row, and -- when the deadline dropped planned shards --
        a :class:`PartialResult` per probe, which feeds no breaker.
        Every outcome leaves through :meth:`_settling`; ``settled`` is
        the group's marker for it, made on the first issue and handed
        on by the brute re-issue.
        """
        if started is None:
            started = min(p.submitted_at for p in probes)
        if settled is None:
            settled = Future()
            self._unsettled.add(settled)
        fut: Future = Future()
        fut.add_done_callback(lambda done: self._group_done(
            done, spec, probes, started, settled, here))
        job = partial(interpret, self.registry, spec, injector=self.faults)
        if here:
            self._executor.run(job, fut)
            return
        try:
            self._submit_job_with_retry(job, fut)
        except RejectedError as exc:
            self.stats.inc(rejected={exc.reason: len(probes)})
            with self._settling(spec, probes, settled):
                for p in probes:
                    _reject(p.future,
                            RejectedError(str(exc), reason=exc.reason))

    @contextmanager
    def _settling(self, spec: JobSpec, probes: List[Probe],
                  settled: Future):
        """The one exit of a group, taken exactly once: release the pins
        its read probes took at submit (one registry acquisition), let
        the body resolve or reject every probe future, then let
        :meth:`flush` past the group and tell the coalescer (the last
        group out drains the marked ones).  Join probes hold their pins
        on their own futures."""
        if spec.op != "join":
            self.registry.unpin(spec.index.fingerprint, len(probes))
        try:
            yield
        finally:
            self._unsettled.discard(settled)
            settled.set_result(None)
            self._coalescer.settled()

    def _group_done(self, done: Future, spec: JobSpec, probes: List[Probe],
                    started: float, settled: Future, here: bool) -> None:
        self.stats.inc(ran={"caller" if here else "pool": 1})
        exc = done.exception()
        if exc is not None:
            self._group_failed(exc, spec, probes, started, settled)
            return
        res: WorkerResult = done.result()
        degraded = spec.degraded
        values = res.values
        dropped = 0
        if res.shards:
            total, probed, dropped, completed = res.shards
            self.stats.record_shard_batch(total, probed)
        if degraded:
            self.stats.inc(fallbacks=len(probes))
        elif dropped:
            self.stats.inc(partial_batches=1, partial_results=len(probes),
                           shards_dropped=dropped)
            values = [PartialResult(val, shards_dropped=dropped,
                                    shards_completed=completed)
                      for val in values]
        elif spec.op != "join":
            self.breakers.record_success(spec.index.fingerprint)
        served_by = "brute" if degraded else spec.refs[0].structure
        kind = "join" if spec.op == "join" else "read"
        self.stats.record_batch(f"{served_by}:{kind}", len(probes), res.steps,
                                res.primitives, time.monotonic() - started)
        with self._settling(spec, probes, settled):
            if spec.op != "join":
                for p, val in zip(probes, values):
                    _resolve(p.future, val)
                return
            # per-pair outcomes: one bad pair fails (and feeds the
            # breakers of) only its own probe
            for p, (status, val) in zip(probes, res.values):
                if not degraded:
                    feed = (self.breakers.record_success if status == "ok"
                            else self.breakers.record_failure)
                    for fp in p.payload:
                        feed(fp)
                if status == "ok":
                    _resolve(p.future, val)
                else:
                    self._fail_probes([p], val)

    def _group_failed(self, exc: BaseException, spec: JobSpec,
                      probes: List[Probe], started: float,
                      settled: Future) -> None:
        """A whole group failed: breaker(s), then brute re-issue or reject.

        The failure (index resolve, kernel, injected fault) counts
        against every fingerprint of the group; with ``brute_fallback``
        and a breaker now OPEN the *same* group is re-issued once as a
        degraded spec.  Backpressure
        (:class:`RejectedError`) and failures of an already degraded
        spec feed no breaker and are not re-issued.
        """
        if not (spec.degraded or isinstance(exc, RejectedError)):
            keys = [ref.fingerprint for ref in spec.refs]
            for fp in keys:
                self.breakers.record_failure(fp)
            if self.config.brute_fallback \
                    and any(self.breakers.state(fp) == OPEN for fp in keys):
                self._run_group(replace(spec, brute=True) if spec.op == "join"
                                else replace(spec, op="brute"),
                                probes, started, settled)
                return
        with self._settling(spec, probes, settled):
            self._fail_probes(probes, exc)

    def _fail_probes(self, probes: List[Probe], exc: BaseException,
                     **also) -> None:
        """Count the probes as failed (plus any ``also`` counters, under
        the same acquisition) and reject each future."""
        self.stats.inc(failed=len(probes), **also)
        for p in probes:
            _reject(p.future, exc)

    def _dispatch(self, group_key, probes: List[Probe], why: str) -> None:
        """Flush callback: turn one cut of a coalesced group into a job.

        A kicked read job whose index is in memory runs on the kicking
        thread: the engine was idle at the kick, the kick's jobs run one
        after another, and no pool thread trades the GIL with the
        kicker.  A cold index (its build), drain and deadline flushes,
        joins and commits keep the pool, so a caller pays at most its
        own kick's jobs."""
        if group_key[0] == "join":
            self._dispatch_join(group_key[1], probes)
            return
        if group_key[0] == "mutate":
            # commits run off the dispatch thread: the new version's
            # index build must not stall read batches behind it
            t = threading.Thread(target=self._run_mutation_batch,
                                 args=(group_key[1], probes), daemon=True,
                                 name="repro-mutate")
            with self._mutation_lock:
                self._mutation_threads = [x for x in self._mutation_threads
                                          if x.is_alive()]
                self._mutation_threads.append(t)
            t.start()
            return
        index_key, exact = group_key[:2]
        # np.array, not np.stack: one C pass over the equal-shape rows;
        # this runs on the submitting thread, where stack's per-row
        # Python overhead (4x) would stretch the wave past max_wait
        self._run_group(
            JobSpec(op="batch", index=index_key,
                    kinds=np.array([p.kind for p in probes], dtype=np.int8),
                    payloads=np.array([p.payload for p in probes]),
                    exact=exact,
                    deadline_at=min((p.deadline_at for p in probes
                                     if p.deadline_at is not None),
                                    default=None)),
            probes,
            here=(why == "kick"
                  and self.registry.peek(index_key) is not None))

    # -- mutations -------------------------------------------------------

    def _root_lock(self, root: str) -> threading.Lock:
        with self._mutation_lock:
            lock = self._mutation_root_locks.get(root)
            if lock is None:
                lock = self._mutation_root_locks[root] = threading.Lock()
            return lock

    def _open_journal(self, directory: str) -> MutationJournal:
        return MutationJournal(
            directory, fsync=self.config.journal_fsync,
            segment_bytes=self.config.journal_segment_bytes,
            observer=self.stats.event)

    def _journal_for(self, cur) -> MutationJournal:
        """The chain's journal, created (with its base checkpoint) lazily.

        Caller holds the chain's root lock.  A pre-existing journal
        whose head (newest record, else its checkpoint) is not the
        chain's head content is *ahead* of this process -- appending
        would fork its history, so the append path refuses until
        :meth:`recover` has replayed it.
        """
        journal = self._journals.get(cur.root)
        if journal is None:
            journal = self._open_journal(
                os.path.join(self._journal_dir, cur.root))
            try:
                meta = journal.read_checkpoint_meta()
                head = journal.last_fingerprint \
                    or (meta["fingerprint"] if meta is not None else None)
                if head is not None and head != cur.fingerprint:
                    raise JournalError(
                        f"journal for {cur.root} holds unreplayed records "
                        f"(head {head}); run recover() before mutating")
                if meta is None:
                    # base checkpoint: the chain head as of journal
                    # creation, so replay is anchored by the journal
                    # directory alone
                    journal.write_checkpoint(
                        self.registry.dataset(cur.fingerprint),
                        fingerprint=cur.fingerprint, version=cur.version,
                        domain=self.registry.domain(cur.fingerprint), seq=0)
            except BaseException:
                journal.close()
                raise
            self._journals[cur.root] = journal
        return journal

    def _checkpoint_locked(self, root: str) -> Dict[str, object]:
        """Checkpoint a chain's head; caller holds the root lock.

        With a store attached the head's default index is persisted
        first -- a checkpoint only truncates WAL prefix once the index
        it depends on is safely on disk; a failed persist aborts the
        checkpoint and the journal keeps every record.
        """
        journal = self._journals.get(root)
        if journal is None:
            raise JournalError(f"no journal attached for chain {root!r}")
        head = self.registry.resolve(root)
        key = self._index_key(head.fingerprint, None)
        if self.store is not None and not self.store.contains(key):
            self.registry.persist(key.fingerprint, key.structure,
                                  **dict(key.params))
        return journal.write_checkpoint(
            self.registry.dataset(head.fingerprint),
            fingerprint=head.fingerprint, version=head.version,
            domain=self.registry.domain(head.fingerprint),
            seq=journal.last_seq)

    def _run_mutation_batch(self, root: str, probes: List[Probe]) -> None:
        """Commit one coalesced mutation group as one new version.

        Stage (the registry turns the batch into the post-batch
        content), journal, warm (build the default-structure index --
        repairing from the parent's shards when it can), then flip
        reads to the new version and let retention collect what the
        window pushed out.  A failed append or warm build abandons the
        staged version: the readable snapshot is untouched and the
        breakers are *not* fed -- a broken write must not trip readers
        onto the fail-fast path.
        """
        with self._root_lock(root):
            started = time.monotonic()
            try:
                head = self.registry.resolve(root)
            except KeyError as exc:
                self._fail_probes(probes, exc)
                return
            n = head.num_lines
            live, del_parts, ins_parts = [], [], []
            for p in probes:
                op, payload = p.payload
                if op == "delete" and payload.size and (
                        payload.min() < 0 or payload.max() >= n):
                    # fails alone: the rest of its batch still commits
                    self._fail_probes([p], IndexError(
                        f"delete ids out of range for {n} lines "
                        f"(version {head.version})"))
                    continue
                (del_parts if op == "delete" else ins_parts).append(payload)
                live.append(p)
            if not live:
                return
            del_ids = (np.unique(np.concatenate(del_parts)) if del_parts
                       else np.zeros(0, dtype=np.int64))
            ins = (np.concatenate(ins_parts) if ins_parts
                   else np.zeros((0, 4)))
            cur, staged = self.registry.stage_version(root, ins, del_ids)
            result = MutationResult(
                root=staged.root, fingerprint=staged.fingerprint,
                version=staged.version, num_lines=staged.num_lines,
                inserted=int(ins.shape[0]), deleted=int(del_ids.size))
            if staged is cur:
                # the batch left the content as it was: no new version
                self._settle_mutations(live, result)
                return
            # write-ahead: the commit record must be durable *before*
            # the index warms and reads flip, so an acked batch always
            # replays after a crash.  A failed append aborts the whole
            # commit -- staged version abandoned, ack withheld, readable
            # snapshot untouched, breakers not fed (same contract as a
            # failed warm build).
            journal: Optional[MutationJournal] = None
            seq = 0
            if self._journal_dir is not None:
                try:
                    if self.faults is not None:
                        self.faults.fire("wal.append", root=cur.root)
                    journal = self._journal_for(cur)
                    seq = journal.append(
                        base=cur.fingerprint,
                        fingerprint=staged.fingerprint,
                        version=staged.version,
                        num_lines=staged.num_lines,
                        domain=self.registry.domain(staged.fingerprint),
                        delete_ids=del_ids, insert_lines=ins)
                except Exception as exc:  # noqa: BLE001 - any failed append
                    self.registry.abandon_version(staged.fingerprint)
                    self._fail_probes(live, exc, wal_append_failures=1,
                                      mutation_failures=1)
                    return
            key = self._index_key(staged.fingerprint, None)
            try:
                entry = self.registry.get(key.fingerprint, key.structure,
                                          **dict(key.params))
            except Exception as exc:  # noqa: BLE001 - any failed warm build
                if journal is not None:
                    journal.abandon_last(seq)
                self.registry.abandon_version(staged.fingerprint)
                self._fail_probes(live, exc, mutation_failures=1)
                return
            self.registry.activate_version(staged.fingerprint)
            repaired = entry.repair is not None
            self.stats.inc(mutation_batches=1, mutations_applied=len(live),
                           lines_deleted=int(del_ids.size),
                           lines_inserted=int(ins.shape[0]),
                           repaired_builds=int(repaired))
            self.stats.record_batch(f"{key.structure}:mutate", len(live),
                                    entry.build_steps,
                                    entry.build_primitives,
                                    time.monotonic() - started)
            if journal is not None and self.config.checkpoint_every:
                count = self._ckpt_counts.get(cur.root, 0) + 1
                if count >= self.config.checkpoint_every:
                    count = 0
                    try:
                        self._checkpoint_locked(cur.root)
                    except Exception:  # noqa: BLE001 - checkpoint is advisory
                        # the WAL keeps every record the checkpoint
                        # would have truncated, so durability holds
                        self.stats.inc(checkpoint_failures=1)
                self._ckpt_counts[cur.root] = count
            self._settle_mutations(live, replace(result, repair=entry.repair))

    @staticmethod
    def _settle_mutations(probes: List[Probe],
                          result: MutationResult) -> None:
        for p in probes:
            p.future.version = result.version
            _resolve(p.future, result)

    # -- joins -----------------------------------------------------------

    def _dispatch_join(self, structure: str, probes: List[Probe],
                       brute: bool = False) -> None:
        """Flush one coalesced join group as a single ``join`` job."""
        pairs = tuple(tuple(self._index_key(fp, structure) for fp in p.payload)
                      for p in probes)
        self._run_group(JobSpec(op="join", pairs=pairs, brute=brute), probes)
