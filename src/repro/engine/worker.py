"""The job vocabulary: :class:`JobSpec`, its interpreter, and the pool worker.

A :class:`JobSpec` is the **only** unit of work the engine hands an
executor, and :data:`_OPS` the only place an op is implemented.  Four
ops (``batch``, ``join``, ``brute``, ``warm``) are interpreted by
:func:`interpret` against a two-method *resolver* -- ``tree(ref)`` and
``lines(ref)`` -- so the backends differ only in how a job reaches its
index:

* thread backend: :class:`RegistryResolver` over the parent's registry
  (the engine binds a spec to :func:`interpret` directly);
* process backend: the worker's :class:`_WorkerState`
  (:func:`run_job` is what crosses into the pool).

Both yield a :class:`WorkerResult` (``values``, ``steps``,
``primitives``, and ``shards`` for a sharded wave), so the engine
settles and accounts a job once.

No op picks a kernel or a builder of its own.  ``batch`` runs one
:func:`~repro.structures.sharded.index_wave` -- a plain tree's CSR core
from the structure table, or on a sharded index every planned shard's
core under the group's ``deadline_at``, packed once -- and cuts it into
one answer per probe, so a sharded group is one job like any other.
``join`` calls :func:`~repro.structures.join.index_join`, whose window
waves go through the same ``index_wave``, so a join job reports
``Machine`` steps like a batch job.  Every build is
:func:`~repro.structures.sharded.build_index`.

The process backend never ships a built tree across the process
boundary.  A job crosses as a :class:`JobSpec` -- fingerprint-addressed
:class:`IndexRef`\\ s plus a small query array and (with the
shared-memory data plane enabled) a tuple of picklable
:class:`~repro.shm.ShmHandle`\\ s -- and each worker process lazily
**materialises** the indexes it is asked about, in priority order:

1. its own in-process cache (keyed by :func:`repro.store.store_key_id`,
   the same stem the disk store uses),
2. a published index payload block named by a ``ix:`` handle on the
   spec: the worker maps the parent's prebuilt payload zero-copy and
   rebuilds the tree *in place* over the shared pages,
3. the persistent :class:`~repro.store.IndexStore` opened *read-only*
   (the warm path: the parent engine spilled or prefetched the index),
4. a deterministic rebuild from the dataset -- preferentially the
   zero-copy segments mapped from a ``ds:`` handle (attached once per
   worker, shared pages, no pipe bytes), else a shipped snapshot; if
   the worker has neither it raises :class:`NeedDataset`, the parent
   attaches ``(fingerprint, lines, domain)`` to the spec and resubmits,
   so a dataset crosses the pipe **at most once per (worker,
   fingerprint)** and only when neither the arena nor the disk store
   can serve it.

Builds are pure functions of ``(dataset, structure, params)`` (the
registry invariant), so a worker-built tree is bit-identical to the
parent's and results cannot depend on which path materialised it.

Fault sites: ``executor.job`` is fired by whoever runs the job (the
thread pool's worker loop; for the process backend the parent at
submit time plus :func:`run_job`), ``shard.query`` once per shard a
sharded wave runs, ``registry.get`` inside the registry (thread) or by
the engine's binding (process parity).  The process backend splits
``executor.job`` by kind: the parent evaluates ``error``/``crash``/
``corrupt`` specs at submit time (one global, deterministic schedule
regardless of which worker runs the job); ``latency``/``stall`` specs
are evaluated here, inside the worker.  ``shard.query`` fires only in
the job, so under the process backend it evaluates only
``latency``/``stall``; the thread backend evaluates every kind.  A spec
with ``crash=True`` makes the worker ``os._exit`` before touching the
job -- a real dead process, indistinguishable from a SIGKILL, which the
parent observes as ``BrokenProcessPool`` and handles with a pool
restart plus resubmission.

Everything in this module must stay importable without the engine
(workers import it standalone) and every type crossing the boundary
must pickle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..baselines.brute import brute_point_query, brute_window_query
from ..machine import Machine, use_machine
from ..resilience import FaultInjector, FaultPlan
from ..shm import (DATASET_PREFIX, INDEX_PREFIX, Attachment, ShmHandle,
                   attach_payload)
from ..store import IndexStore, store_key_id
from ..structures.io import attach_tree
from ..structures.batch import FAMILY, _pairs, _views, batch_core
from ..structures.join import brute_join, index_join
from ..structures.nearest import brute_nearest
from ..structures.sharded import build_index, index_wave

if TYPE_CHECKING:
    from .registry import IndexRegistry

__all__ = ["IndexRef", "JobSpec", "WorkerResult", "NeedDataset",
           "RegistryResolver", "batch_kernel", "interpret", "run_job"]

#: fault kinds evaluated in the worker (the parent fires the rest)
WORKER_FAULT_KINDS = ("latency", "stall")


def batch_kernel(structure: str, kind: str, exact: bool):
    """The batch kernel for one (structure, kind, exact) triple on a
    plain tree: the structure table's CSR core, cut at the edge into one
    answer per probe -- an id array (window/point) or an ``(id,
    distance)`` pair (nearest).  Jobs go through ``_op_batch``; this is
    the by-name lookup for callers outside the engine."""
    core = batch_core(FAMILY[structure], kind, exact)
    edge = _pairs if kind == "nearest" else _views
    return lambda tree, v, m: edge(*core(tree, v, m))


@dataclass(frozen=True)
class IndexRef:
    """A fingerprint-addressed index reference -- the pickled stand-in
    for a built tree.  Duck-types the registry's ``IndexKey`` (same
    ``fingerprint``/``structure``/``params`` attributes), so the disk
    store derives the identical filename stem for both."""

    fingerprint: str
    structure: str
    params: Tuple[Tuple[str, object], ...]
    domain: int


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: what the engine submits, on either backend.

    ``op`` selects the kernel: ``batch`` (one vectorized pass; over
    every planned shard of a sharded index), ``join`` (a batch of
    dataset-pair joins; ``brute=True`` for the degraded scan),
    ``brute`` (degraded window/point/nearest batch), ``warm``
    (materialise only).  ``deadline_at`` is the group's earliest probe
    deadline (absolute ``time.monotonic`` seconds, which every process
    on one host shares): a sharded wave past it drops the rest of its
    plan (:meth:`~repro.structures.sharded.ShardedIndex.query_wave`).
    ``datasets`` carries ``(fingerprint, lines, domain)`` snapshots
    attached by the parent after a
    :class:`NeedDataset` round trip; ``handles`` carries the arena's
    shared-memory handles (``ds:`` dataset segments and ``ix:`` index
    payloads -- a few hundred bytes each, mapped zero-copy in the
    worker); ``crash=True`` is the injected worker-kill used by chaos
    tests.
    """

    op: str
    kind: str = ""
    index: Optional[IndexRef] = None
    pairs: Tuple[Tuple[IndexRef, IndexRef], ...] = ()
    payloads: Optional[np.ndarray] = None
    exact: bool = True
    deadline_at: Optional[float] = None
    datasets: Tuple[Tuple[str, np.ndarray, int], ...] = ()
    handles: Tuple[ShmHandle, ...] = ()
    crash: bool = False
    brute: bool = False

    @property
    def refs(self) -> Tuple[IndexRef, ...]:
        """Every index the job names: ``index``, then the join pairs."""
        own = () if self.index is None else (self.index,)
        return own + tuple(ref for pair in self.pairs for ref in pair)

    @property
    def degraded(self) -> bool:
        """Answered from the raw segments, no index (brute scan/join)."""
        return self.op == "brute" or self.brute


@dataclass(frozen=True)
class WorkerResult:
    """A job's answer plus the worker-side accounting that rides along.

    ``faults`` lists the (site, kind) pairs the worker-side injector
    fired during this job (the parent replays them into its stats);
    ``warm_loads``/``cold_builds`` count index materialisations done
    *for this job*; ``shm_attached`` names the arena tags this job
    newly mapped (the parent folds them into per-block attach counts);
    ``jobs``/``cached_trees`` are the worker's running totals, keyed
    by ``pid`` in the parent's per-worker map.  A sharded wave reports
    ``shards = (total, probed, dropped, completed)``: the index's shard
    count, the shards its plan selected, the planned shard queries the
    deadline dropped and the ones run (empty for every other job).
    """

    values: object
    steps: float
    primitives: int
    pid: int
    faults: Tuple[Tuple[str, str], ...] = ()
    warm_loads: int = 0
    cold_builds: int = 0
    jobs: int = 0
    cached_trees: int = 0
    shm_attached: Tuple[str, ...] = ()
    shards: Tuple[int, ...] = ()


class NeedDataset(Exception):
    """The worker lacks these datasets and the store could not help.

    The parent catches this, attaches the registry's snapshots to the
    spec, and resubmits -- one round trip per (worker, fingerprint),
    and none at all when the disk store already holds the index.
    """

    def __init__(self, fingerprints):
        self.fingerprints = tuple(fingerprints)
        super().__init__(
            f"worker {os.getpid()} needs dataset(s) "
            f"{', '.join(self.fingerprints)}")

    def __reduce__(self):
        return (NeedDataset, (self.fingerprints,))


@dataclass
class _WorkerState:
    """Per-process caches and counters (module-global, one per worker);
    the worker-side resolver of :func:`interpret`."""

    store: Optional[IndexStore]
    injector: Optional[FaultInjector]
    trees: Dict[str, object] = field(default_factory=dict)
    datasets: Dict[str, Tuple[np.ndarray, int]] = field(default_factory=dict)
    #: live ``ds:`` mappings by arena tag -- held for the worker's
    #: lifetime so the segment views handed to kernels stay valid (an
    #: ``ix:`` mapping is pinned on its tree by :func:`attach_tree`)
    attachments: Dict[str, Attachment] = field(default_factory=dict)
    #: index payload handles seen on specs, by store key id
    payload_handles: Dict[str, ShmHandle] = field(default_factory=dict)
    #: arena tags newly attached during the current job
    job_attached: List[str] = field(default_factory=list)
    fired: List[Tuple[str, str]] = field(default_factory=list)
    jobs: int = 0
    job_warm: int = 0
    job_cold: int = 0

    def tree(self, ref: IndexRef):
        """Cache -> shm payload -> read-only store -> rebuild, in that order."""
        key_id = store_key_id(ref)
        tree = self.trees.get(key_id)
        if tree is not None:
            return tree
        handle = self.payload_handles.get(key_id)
        if handle is not None:
            try:
                tree = attach_tree(handle)
            except Exception:  # noqa: BLE001 - degrade to store/rebuild
                del self.payload_handles[key_id]
            else:
                self.job_attached.append(handle.tag)
        if tree is None and self.store is not None:
            probe = self.store.get(ref)
            if probe is not None:
                tree = probe[0]
        if tree is not None:
            self.job_warm += 1
        else:
            lines, domain = self._snapshot(ref)
            # like ``registry.get``: a machine of its own pays the build
            with use_machine(Machine()):
                tree = build_index(lines, domain, ref.structure,
                                   **dict(ref.params))
            self.job_cold += 1
        self.trees[key_id] = tree
        return tree

    def lines(self, ref: IndexRef) -> np.ndarray:
        return self._snapshot(ref)[0]

    def _snapshot(self, ref: IndexRef) -> Tuple[np.ndarray, int]:
        snap = self.datasets.get(ref.fingerprint)
        if snap is None:
            raise NeedDataset((ref.fingerprint,))
        return snap


class RegistryResolver:
    """The parent-side resolver: the thread backend's view of an index.

    Trees come through ``registry.get`` -- memory cache, arena and store
    tiers, build on a miss, and the ``registry.get`` fault site all
    apply per lookup -- and raw segments through ``registry.dataset``.
    """

    def __init__(self, registry: IndexRegistry):
        self.registry = registry

    def tree(self, ref: IndexRef):
        return self.registry.get(ref.fingerprint, ref.structure,
                                 **dict(ref.params)).tree

    def lines(self, ref: IndexRef) -> np.ndarray:
        return self.registry.dataset(ref.fingerprint)


_STATE: Optional[_WorkerState] = None


def _init_worker(cache_dir: Optional[str],
                 fault_plan: Optional[FaultPlan]) -> None:
    """Process-pool initializer: build this worker's state once.

    The store is opened read-only -- workers never spill, refresh
    mtimes, or quarantine, so the parent's GC/shutdown spill stays the
    single writer.  The injector evaluates only the sleep kinds (see
    module docstring).
    """
    global _STATE
    state = _WorkerState(
        store=(IndexStore(cache_dir, readonly=True)
               if cache_dir is not None else None),
        injector=None)
    if fault_plan is not None and fault_plan.specs:
        state.injector = FaultInjector(
            fault_plan, observer=lambda s, k: state.fired.append((s, k)))
    _STATE = state


def _register_handle(state: _WorkerState, handle: ShmHandle) -> None:
    """Note one arena handle: map ``ds:`` blocks now, ``ix:`` lazily.

    Dataset blocks are attached eagerly (one mapping per worker, reused
    by every later job); index payloads are only recorded here and
    mapped on first use in :meth:`_WorkerState.tree`.  Any attach failure --
    the parent released the block between pickling the spec and the
    worker opening it -- falls through silently to the store / rebuild
    / :class:`NeedDataset` paths, which remain correct without shm.
    """
    if handle.tag.startswith(DATASET_PREFIX):
        fingerprint = handle.tag[len(DATASET_PREFIX):]
        if fingerprint in state.datasets:
            return
        try:
            att = attach_payload(handle)
        except Exception:  # noqa: BLE001 - degrade to the ship path
            return
        state.attachments[handle.tag] = att
        domain = int(float(handle.meta_dict().get("domain", "0")))
        state.datasets[fingerprint] = (att.value["lines"], domain)
        state.job_attached.append(handle.tag)
    elif handle.tag.startswith(INDEX_PREFIX):
        state.payload_handles.setdefault(
            handle.tag[len(INDEX_PREFIX):], handle)


def _preflight(state: _WorkerState, spec: JobSpec) -> None:
    """Raise one :class:`NeedDataset` naming *every* missing dataset.

    Checked before any kernel runs so a join over N pairs costs at most
    one ship round trip instead of N.  A degraded spec needs the raw
    segments; any other is also served by a tree the worker can load.
    """
    missing: List[str] = []
    for ref in spec.refs:
        if ref.fingerprint in state.datasets or ref.fingerprint in missing:
            continue
        if not spec.degraded:
            key_id = store_key_id(ref)
            if key_id in state.trees or key_id in state.payload_handles \
                    or (state.store is not None and state.store.contains(ref)):
                continue
        missing.append(ref.fingerprint)
    if missing:
        raise NeedDataset(missing)


def _op_batch(resolver, spec: JobSpec, machine: Machine, on_shard):
    """One :func:`~repro.structures.sharded.index_wave`, cut at the edge
    into one answer per probe."""
    pair, shards = index_wave(resolver.tree(spec.index), spec.kind,
                              spec.payloads, spec.exact, machine,
                              spec.deadline_at, on_shard)
    edge = _pairs if spec.kind == "nearest" else _views
    return edge(*pair), shards


def _op_join(resolver, spec: JobSpec, machine: Machine, on_shard):
    """A batch of joins: per-pair ``("ok", pairs)`` / ``("err", exc)``.

    Per-pair outcomes (not one shared exception) so one failing pair
    cannot poison the other joins coalesced into the same job -- the
    parent feeds each outcome to its own fingerprints' breakers.
    """
    out = []
    for ref_a, ref_b in spec.pairs:
        try:
            if spec.brute:
                pairs = brute_join(resolver.lines(ref_a),
                                   resolver.lines(ref_b))
            else:
                pairs = index_join(resolver.tree(ref_a),
                                   resolver.tree(ref_b), machine)
        except NeedDataset:
            raise
        except Exception as exc:  # noqa: BLE001 - outcome, not control flow
            out.append(("err", exc))
        else:
            out.append(("ok", pairs))
    return out, ()


def _op_brute(resolver, spec: JobSpec, machine: Machine, on_shard):
    lines = resolver.lines(spec.index)
    if spec.kind == "window":
        return [brute_window_query(lines, r) for r in spec.payloads], ()
    if spec.kind == "point":
        return [brute_point_query(lines, float(p[0]), float(p[1]))
                for p in spec.payloads], ()
    return [brute_nearest(lines, float(p[0]), float(p[1]))
            for p in spec.payloads], ()


def _op_warm(resolver, spec: JobSpec, machine: Machine, on_shard):
    resolver.tree(spec.index)
    return None, ()


#: the op table: every ``JobSpec.op`` has exactly this one implementation,
#: returning ``(values, shards)`` (see :class:`WorkerResult`)
_OPS = {"batch": _op_batch, "join": _op_join, "brute": _op_brute,
        "warm": _op_warm}


def interpret(resolver, spec: JobSpec, machine: Machine,
              injector: Optional[FaultInjector] = None,
              only_kinds: Optional[Tuple[str, ...]] = None) -> WorkerResult:
    """Run one spec against a resolver: the interpreter of both backends.

    The caller has installed ``machine`` (:func:`use_machine`) and
    fired ``executor.job``; the ``shard.query`` site fires here, once
    per shard a sharded wave runs, on both backends.  The thread
    backend runs ``partial(interpret, RegistryResolver(...), spec,
    injector=...)`` as the ``fn(machine)`` of a
    :class:`~repro.engine.executor.BoundedExecutor`; :func:`run_job`
    calls it on the worker's state and adds the worker-side accounting.
    """
    on_shard = None
    if injector is not None:
        def on_shard(k: int) -> None:
            injector.fire("shard.query", only_kinds=only_kinds, shard=k,
                          kind=spec.kind)
    values, shards = _OPS[spec.op](resolver, spec, machine, on_shard)
    return WorkerResult(values, machine.steps, machine.total_primitives,
                        os.getpid(), shards=shards)


def run_job(spec: JobSpec) -> WorkerResult:
    """Entry point the parent submits to the pool; runs in the worker."""
    state = _STATE
    if state is None:  # pool built without the initializer (tests)
        _init_worker(None, None)
        state = _STATE
    if spec.crash:
        # injected worker kill: a real dead process, not an exception.
        # _exit skips atexit/finalizers exactly like a SIGKILL would.
        os._exit(1)
    state.jobs += 1
    state.job_warm = state.job_cold = 0
    state.fired = []
    state.job_attached = []
    for handle in spec.handles:
        _register_handle(state, handle)
    for fp, lines, domain in spec.datasets:
        if fp not in state.datasets:
            arr = np.ascontiguousarray(
                np.asarray(lines, dtype=np.float64).reshape(-1, 4))
            arr.setflags(write=False)
            state.datasets[fp] = (arr, int(domain))
    _preflight(state, spec)
    machine = Machine()
    with use_machine(machine):
        if state.injector is not None:
            state.injector.fire("executor.job",
                                only_kinds=WORKER_FAULT_KINDS)
        result = interpret(state, spec, machine, state.injector,
                           WORKER_FAULT_KINDS)
    return replace(result, faults=tuple(state.fired),
                   warm_loads=state.job_warm, cold_builds=state.job_cold,
                   jobs=state.jobs, cached_trees=len(state.trees),
                   shm_attached=tuple(state.job_attached))
