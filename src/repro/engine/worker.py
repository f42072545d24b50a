"""The job vocabulary: :class:`JobSpec` and its interpreter.

A :class:`JobSpec` is the **only** unit of work the engine hands its
executor, and :data:`_OPS` the only place an op is implemented.  Three
ops (``batch``, ``join``, ``brute``) are interpreted by :func:`interpret`
against the engine's :class:`~repro.engine.registry.IndexRegistry`: a
job names its indexes by :class:`~repro.engine.registry.IndexKey`,
trees come through ``registry.get`` (memory cache, store tier, build on
a miss, and the ``registry.get`` fault site all apply per lookup) and
raw segments through ``registry.dataset``.  Every job yields a :class:`WorkerResult`
(``values``, ``steps``, ``primitives``, and ``shards`` for a sharded
wave), so the engine settles and accounts a job once.

No op picks a kernel or a builder of its own.  ``batch`` runs one
:func:`~repro.structures.sharded.index_wave` over a wave of mixed
window, point and nearest rows -- a plain tree's wave core from the
structure table, or on a sharded index every planned shard's core
under the group's ``deadline_at``, packed once -- and cuts it into one
answer per probe, so a sharded group is one job like any other.
``join`` calls :func:`~repro.structures.join.index_join`, whose window
waves go through the same ``index_wave``, so a join job reports
``Machine`` steps like a batch job.  Every build is
:func:`~repro.structures.sharded.build_index`.

Fault sites: ``executor.job`` is fired by whoever runs the job
(:meth:`~repro.engine.executor.BoundedExecutor.run`), ``shard.query``
here, once per shard a sharded wave runs, and ``registry.get`` inside
the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..baselines.brute import (brute_nearest, brute_point_query,
                              brute_window_query)
from ..machine import Machine
from ..resilience import FaultInjector
from ..structures.batch import (FAMILY, KINDS, NEAREST, POINT, wave_answers,
                                wave_core, wave_kinds)
from ..structures.join import brute_join, index_join
from ..structures.sharded import index_wave
from .registry import IndexKey, IndexRegistry

__all__ = ["JobSpec", "WorkerResult", "batch_kernel", "interpret"]


def batch_kernel(structure: str, kind: str, exact: bool):
    """The batch kernel for one (structure, kind, exact) triple on a
    plain tree: the wave core on a wave of ``kind`` probes, one answer
    per probe.  Jobs go through ``_op_batch``; this is the by-name
    lookup for callers outside the engine."""
    core, code = wave_core(FAMILY[structure], exact), KINDS.index(kind)
    return lambda tree, v, m: wave_answers(*core(tree, v, code, m), code)


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: what the engine submits to its executor.

    ``op`` selects the kernel: ``batch`` (one vectorized pass; over
    every planned shard of a sharded index), ``join`` (a batch of
    dataset-pair joins; ``brute=True`` for the degraded scan),
    ``brute`` (degraded probe batch).  ``kinds`` is each payload row's
    probe kind code (:func:`~repro.structures.batch.wave_kinds`).  ``index``
    and the ``pairs`` name indexes by their registry key.  ``deadline_at`` is
    the group's earliest probe deadline (absolute ``time.monotonic``
    seconds): a sharded wave past it drops the rest of its plan
    (:meth:`~repro.structures.sharded.ShardedIndex.query_wave`).
    """

    op: str
    kinds: object = ()
    index: Optional[IndexKey] = None
    pairs: Tuple[Tuple[IndexKey, IndexKey], ...] = ()
    payloads: Optional[np.ndarray] = None
    exact: bool = True
    deadline_at: Optional[float] = None
    brute: bool = False

    @property
    def refs(self) -> Tuple[IndexKey, ...]:
        """Every index the job names: ``index``, then the join pairs."""
        own = () if self.index is None else (self.index,)
        return own + tuple(key for pair in self.pairs for key in pair)

    @property
    def degraded(self) -> bool:
        """Answered from the raw segments, no index (brute scan/join)."""
        return self.op == "brute" or self.brute


@dataclass(frozen=True)
class WorkerResult:
    """A job's answer plus the scan-model accounting that rides along.

    A sharded wave reports ``shards = (total, probed, dropped,
    completed)``: the index's shard count, the shards its plan selected,
    the planned shard queries the deadline dropped and the ones run
    (empty for every other job).
    """

    values: object
    steps: float
    primitives: int
    shards: Tuple[int, ...] = ()


def _tree(registry: IndexRegistry, key: IndexKey):
    return registry.get(key.fingerprint, key.structure,
                        **dict(key.params)).tree


def _op_batch(registry, spec: JobSpec, machine: Machine, on_shard):
    """One :func:`~repro.structures.sharded.index_wave`, cut at the edge
    into one answer per probe."""
    quad, shards = index_wave(_tree(registry, spec.index), spec.kinds,
                              spec.payloads, spec.exact, machine,
                              spec.deadline_at, on_shard)
    return wave_answers(*quad, spec.kinds), shards


def _op_join(registry, spec: JobSpec, machine: Machine, on_shard):
    """A batch of joins: per-pair ``("ok", pairs)`` / ``("err", exc)``.

    Per-pair outcomes (not one shared exception) so one failing pair
    cannot poison the other joins coalesced into the same job -- the
    engine feeds each outcome to its own fingerprints' breakers.
    """
    out = []
    for key_a, key_b in spec.pairs:
        try:
            if spec.brute:
                pairs = brute_join(registry.dataset(key_a.fingerprint),
                                   registry.dataset(key_b.fingerprint))
            else:
                pairs = index_join(_tree(registry, key_a),
                                   _tree(registry, key_b), machine)
        except Exception as exc:  # noqa: BLE001 - outcome, not control flow
            out.append(("err", exc))
        else:
            out.append(("ok", pairs))
    return out, ()


def _op_brute(registry, spec: JobSpec, machine: Machine, on_shard):
    lines = registry.dataset(spec.index.fingerprint)
    kinds = wave_kinds(spec.kinds, len(spec.payloads)).tolist()
    return [brute_nearest(lines, float(p[0]), float(p[1])) if k == NEAREST
            else brute_point_query(lines, float(p[0]), float(p[1]))
            if k == POINT else brute_window_query(lines, p)
            for k, p in zip(kinds, spec.payloads)], ()


#: the op table: every ``JobSpec.op`` has exactly this one implementation,
#: returning ``(values, shards)`` (see :class:`WorkerResult`)
_OPS = {"batch": _op_batch, "join": _op_join, "brute": _op_brute}


def interpret(registry: IndexRegistry, spec: JobSpec, machine: Machine,
              injector: Optional[FaultInjector] = None) -> WorkerResult:
    """Run one spec against the registry: the engine's one interpreter.

    The caller has installed ``machine`` (:func:`use_machine`) and
    fired ``executor.job``; the ``shard.query`` site fires here, once
    per shard a sharded wave runs.  The engine runs ``partial(interpret,
    registry, spec, injector=...)`` as the ``fn(machine)`` of a
    :class:`~repro.engine.executor.BoundedExecutor`.
    """
    on_shard = None
    if injector is not None:
        def on_shard(k: int) -> None:
            injector.fire("shard.query", shard=k)
    values, shards = _OPS[spec.op](registry, spec, machine, on_shard)
    return WorkerResult(values, machine.steps, machine.total_primitives,
                        shards=shards)
