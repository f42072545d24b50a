"""Executor backends: bounded thread pool and crash-surviving process pool.

Both backends present the same small surface (:class:`ExecutorBackend`)
to the engine -- ``submit`` resolving the caller's future, a ``queue_depth``
gauge, and ``shutdown`` -- and both apply **backpressure**: when the
bounded queue (thread) or the in-flight window (process) is full,
``submit`` fails *immediately* with :class:`RejectedError` carrying a
reason, so overload surfaces as explicit rejections instead of
unbounded memory growth and collapsing latency.

The engine's unit of work is a :class:`~repro.engine.worker.JobSpec`
on either backend; both futures yield a
:class:`~repro.engine.worker.WorkerResult`.

:class:`BoundedExecutor` (``kind="thread"``) runs ``fn(machine)``
callables in threads -- the engine hands it a spec bound to the shared
interpreter over the parent's registry
(:func:`~repro.engine.worker.interpret`).  Cheap and zero-copy, but
the GIL serialises the CPU-bound portions of concurrent batch kernels
-- which is why the engine runs a kicked read group on the kicking
thread itself (:meth:`BoundedExecutor.run`) instead of handing it to a
pool thread that would trade the GIL with the kicker on every NumPy
call.

:class:`ProcessBackend` (``kind="process"``) ships the picklable spec
itself to a ``concurrent.futures.ProcessPoolExecutor`` of
shared-nothing workers running the same interpreter
(see :mod:`repro.engine.worker` for how workers materialise indexes).
On top of the raw pool it adds what serving needs:

* **crash survival** -- a dead worker surfaces as ``BrokenProcessPool``
  failing *every* in-flight job; the backend restarts the pool once
  (generation-guarded) and resubmits each job under the engine's retry
  policy, so a killed worker costs a retry, never a hung or silently
  dropped batch.  Exhausted retries fail the job's future with
  :class:`WorkerCrashError`, which the engine feeds to the dataset's
  circuit breaker like any job failure;
* **dataset shipping** -- a worker that cannot materialise an index
  (:class:`~repro.engine.worker.NeedDataset`) gets the registry
  snapshot attached to its spec and the job resubmitted, at no cost to
  the retry budget;
* **shared-memory handles** -- an optional ``handle_provider`` stamps
  each launch with the arena's current :class:`~repro.shm.ShmHandle`
  tuple (re-queried per attempt, so a resubmitted job sees blocks
  published since), keeping datasets and prebuilt indexes off the pipe
  entirely;
* **honest IPC accounting** -- first submissions count into
  ``ipc_sent``; crash resubmissions and post-\\ ``NeedDataset``
  relaunches count into ``ipc_resent`` (and shipped snapshot payloads
  into ``dataset_ship_bytes``), so per-job pipe-byte gauges are not
  double-counted across pool restarts or bounded resubmits;
* **fault-site parity** -- ``error``/``crash``/``corrupt`` specs of the
  ``executor.job`` site are evaluated here at submit time (one global,
  deterministic schedule; a ``crash`` marks the spec so its worker
  ``os._exit``\\ s), while ``latency``/``stall`` specs ship to the
  workers, which also arrive at ``shard.query`` once per shard a
  sharded wave runs (the only site a worker evaluates besides
  ``executor.job``; there, too, only ``latency``/``stall``).

Every thread-backend job runs under a **fresh scan-model**
:class:`Machine` installed with :func:`use_machine`
(:meth:`BoundedExecutor.run`, the one job body, whether a pool worker
or the engine's flushing thread runs it); process workers do the same
on their side, and ship the step counts back in the
:class:`~repro.engine.worker.WorkerResult`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import random
import threading
from concurrent.futures import (BrokenExecutor, CancelledError, Future,
                                InvalidStateError, ProcessPoolExecutor)
from dataclasses import replace
from typing import Callable, Optional

from ..errors import EngineError
from ..machine import Machine, use_machine
from ..resilience import InjectedFault, InjectedWorkerCrash
from .worker import JobSpec, NeedDataset, _init_worker, run_job

__all__ = ["RejectedError", "WorkerCrashError", "ExecutorBackend",
           "BoundedExecutor", "ProcessBackend"]

#: fault kinds the process backend evaluates parent-side at submit
PARENT_FAULT_KINDS = ("error", "crash", "corrupt")


class RejectedError(EngineError):
    """A request the engine refused to enqueue (backpressure or shutdown).

    ``reason`` is the machine-readable code (``queue_full``,
    ``shutdown``, ``closed``); the message stays human-readable.
    """

    reason = "rejected"


class WorkerCrashError(EngineError):
    """A job whose worker process died on every attempt.

    Raised only after the pool was restarted and the job resubmitted up
    to the retry budget -- repeated crashes on the same work are treated
    as persistent, so the engine routes this into the circuit breaker.
    """

    reason = "worker_crash"


def _nbytes(obj) -> int:
    """Pickled size of one boundary crossing (the IPC-bytes gauge)."""
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


class ExecutorBackend:
    """The surface the engine needs from an executor backend.

    ``submit`` takes what ``SpatialQueryEngine._bind`` made of a
    :class:`~repro.engine.worker.JobSpec` -- a ``fn(machine)`` callable
    (thread backend) or the spec itself (process backend) -- and the
    future to resolve (a new one when ``None``), and returns it: a
    caller that passes its own attaches its callbacks before the job
    can finish.  ``queue_depth`` gauges waiting work; ``shutdown``
    drains.
    """

    kind: str = "?"

    @property
    def queue_depth(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def submit(self, job,
               fut: Optional[Future] = None) -> "Future":  # pragma: no cover
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:  # pragma: no cover
        raise NotImplementedError


class BoundedExecutor(ExecutorBackend):
    """Fixed worker pool over a bounded queue; rejects when saturated."""

    kind = "thread"

    def __init__(self, workers: int = 4, queue_depth: int = 64,
                 injector=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self._injector = injector
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._shutdown = False
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._worker, name=f"repro-engine-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting (a gauge for the stats layer)."""
        return self._queue.qsize()

    def submit(self, fn: Callable[[Machine], object],
               fut: Optional[Future] = None) -> "Future":
        """Enqueue ``fn(machine)``; raises :class:`RejectedError` when full.

        ``fut`` (a new future when ``None``, returned either way)
        resolves to ``fn``'s return value; errors raised by ``fn``
        propagate through it.
        """
        with self._lock:
            if self._shutdown:
                raise RejectedError("executor is shut down",
                                    reason="shutdown")
        if fut is None:
            fut = Future()
        try:
            self._queue.put_nowait((fn, fut))
        except queue.Full:
            raise RejectedError(
                f"queue full ({self._queue.maxsize} jobs pending)",
                reason="queue_full") from None
        return fut

    def run(self, fn: Callable[[Machine], object],
            fut: Optional[Future] = None) -> "Future":
        """Run ``fn(machine)`` on *this* thread and resolve ``fut`` (a
        new future when ``None``); a cancelled ``fut`` is skipped.

        The one job body: a pool worker runs each queued job through it,
        and the engine calls it directly for a kicked read group, which
        runs on the kicking thread.  Either way the
        ``executor.job`` fault site fires once and the job gets a fresh
        :class:`Machine`.
        """
        if fut is None:
            fut = Future()
        if not fut.set_running_or_notify_cancel():
            return fut
        machine = Machine()
        try:
            with use_machine(machine):
                if self._injector is not None:
                    self._injector.fire("executor.job")
                result = fn(machine)
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            fut.set_exception(exc)
        else:
            fut.set_result(result)
        return fut

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            self.run(*item)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for t in self._threads:
                t.join()


class ProcessBackend(ExecutorBackend):
    """Shared-nothing process pool with crash restarts (module docstring).

    Parameters beyond the thread backend's: ``cache_dir``/``fault_plan``
    seed each worker's read-only store and latency/stall injector;
    ``dataset_provider(fingerprint) -> (lines, domain)`` answers
    :class:`~repro.engine.worker.NeedDataset` round trips;
    ``handle_provider(spec) -> tuple`` (optional) returns the
    shared-memory handles to stamp onto each launch;
    ``on_event(name, value)`` streams backend telemetry (``restart``,
    ``crash_retry``, ``dataset_shipped``, ``dataset_ship_bytes``,
    ``ipc_sent``, ``ipc_resent``, ``ipc_received``: the count to add;
    ``worker_result``: the result itself) to the engine's counter table;
    ``retry`` budgets crash resubmissions.  Workers start by
    ``forkserver`` where available, else ``spawn`` -- never ``fork``,
    the parent runs coalescer/timer threads.
    """

    kind = "process"

    def __init__(self, workers: int = 4, queue_depth: int = 64,
                 injector=None, cache_dir: Optional[str] = None,
                 fault_plan=None, dataset_provider=None,
                 handle_provider=None, on_event=None,
                 retry=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self._workers = workers
        self._capacity = workers + queue_depth
        self._injector = injector
        self._cache_dir = cache_dir
        self._fault_plan = fault_plan
        self._dataset_provider = dataset_provider
        self._handle_provider = handle_provider
        self._on_event = on_event
        self._retry = retry
        self._rng = random.Random(0xC3A5)  # deterministic crash backoff
        self._lock = threading.Lock()
        self._inflight = 0
        self._shutdown = False
        self._generation = 0
        self.start_method = ("forkserver" if "forkserver"
                             in multiprocessing.get_all_start_methods()
                             else "spawn")
        self._ctx = multiprocessing.get_context(self.start_method)
        self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self._workers, mp_context=self._ctx,
            initializer=_init_worker,
            initargs=(self._cache_dir, self._fault_plan))

    @property
    def queue_depth(self) -> int:
        """In-flight jobs beyond the worker count (waiting, roughly)."""
        with self._lock:
            return max(0, self._inflight - self._workers)

    def _event(self, name: str, value=1) -> None:
        if self._on_event is not None:
            try:
                self._on_event(name, value)
            except Exception:  # pragma: no cover - observer must not kill
                pass

    # -- submission ------------------------------------------------------

    def submit(self, spec: JobSpec,
               outer: Optional[Future] = None) -> "Future":
        """Dispatch one :class:`JobSpec`; ``outer`` (a new future when
        ``None``, returned either way) yields a
        :class:`~repro.engine.worker.WorkerResult`."""
        with self._lock:
            if self._shutdown:
                raise RejectedError("executor is shut down",
                                    reason="shutdown")
            if self._inflight >= self._capacity:
                raise RejectedError(
                    f"queue full ({self._capacity} jobs in flight)",
                    reason="queue_full")
            self._inflight += 1
        if outer is None:
            outer = Future()
        self._launch(spec, outer, attempt=0)
        return outer

    def _finish(self, outer: Future, value=None,
                exc: Optional[BaseException] = None) -> None:
        """A job's one exit: free its in-flight slot, then resolve
        ``outer`` -- in that order, so a done callback that submits
        more work (an engine settle draining marked groups) finds the
        slot free."""
        with self._lock:
            self._inflight -= 1
        try:
            if exc is None:
                outer.set_result(value)
            else:
                outer.set_exception(exc)
        except InvalidStateError:   # already cancelled
            pass

    def _launch(self, spec: JobSpec, outer: Future, attempt: int,
                first: bool = True) -> None:
        """One pool submission; ``spec`` stays pristine across retries.

        ``first`` marks the job's initial submission -- its pickled
        size counts into ``ipc_sent``.  Crash resubmits and
        post-:class:`NeedDataset` relaunches pass ``first=False`` and
        count into ``ipc_resent`` instead, so the per-job
        ``ipc_sent / jobs`` gauge is not inflated by retries.
        """
        if outer.done():   # cancelled while backing off: free the slot
            self._finish(outer)
            return
        run = spec
        if self._handle_provider is not None:
            # re-queried per attempt: a resubmit sees blocks published
            # (or released) since the previous launch
            try:
                handles = tuple(self._handle_provider(spec))
            except Exception:  # pragma: no cover - provider must not kill
                handles = ()
            if handles != run.handles:
                run = replace(run, handles=handles)
        if self._injector is not None:
            # parent-side evaluation keeps error/crash schedules global
            # and deterministic across workers and pool restarts
            try:
                self._injector.fire("executor.job",
                                    only_kinds=PARENT_FAULT_KINDS)
            except InjectedWorkerCrash:
                run = replace(run, crash=True)
            except InjectedFault as exc:
                self._finish(outer, exc=exc)
                return
        with self._lock:
            shut = self._shutdown
            pool = self._pool
            gen = self._generation
        if shut:
            self._finish(outer, exc=RejectedError(
                "executor is shut down", reason="shutdown"))
            return
        try:
            inner = pool.submit(run_job, run)
        except BrokenExecutor as exc:
            self._crashed(spec, outer, attempt, gen, exc)
            return
        except RuntimeError as exc:   # pool shut down under us
            self._finish(outer, exc=RejectedError(str(exc), reason="shutdown"))
            return
        self._event("ipc_sent" if first else "ipc_resent", _nbytes(run))
        inner.add_done_callback(
            lambda f: self._on_inner(f, spec, outer, attempt, gen))

    def _on_inner(self, inner: Future, spec: JobSpec, outer: Future,
                  attempt: int, gen: int) -> None:
        try:
            exc = inner.exception()
        except CancelledError as cancelled:
            exc = cancelled
        if exc is None:
            wr = inner.result()
            self._event("ipc_received", _nbytes(wr))
            self._event("worker_result", wr)
            self._finish(outer, wr)
            return
        if isinstance(exc, NeedDataset):
            self._ship(exc, spec, outer, attempt)
            return
        if isinstance(exc, BrokenExecutor):
            self._crashed(spec, outer, attempt, gen, exc)
            return
        self._finish(outer, exc=exc)

    def _ship(self, need: NeedDataset, spec: JobSpec, outer: Future,
              attempt: int) -> None:
        """Attach the requested dataset snapshots and resubmit.

        Costs nothing against the crash-retry budget -- it is the
        normal cold path, not a failure.  A fingerprint the spec
        already carries (or no provider) means the dataset truly cannot
        be served; then the job fails instead of looping.
        """
        have = {fp for fp, _, _ in spec.datasets}
        wanted = [fp for fp in need.fingerprints if fp not in have]
        if not wanted or self._dataset_provider is None:
            self._finish(outer, exc=need)
            return
        shipped = []
        for fp in wanted:
            try:
                lines, domain = self._dataset_provider(fp)
            except Exception as provider_exc:
                self._finish(outer, exc=provider_exc)
                return
            shipped.append((fp, lines, int(domain)))
        self._event("dataset_shipped", len(shipped))
        self._event("dataset_ship_bytes",
                    sum(int(getattr(lines, "nbytes", 0))
                        for _, lines, _ in shipped))
        self._launch(replace(spec, datasets=spec.datasets + tuple(shipped)),
                     outer, attempt, first=False)

    def _crashed(self, spec: JobSpec, outer: Future, attempt: int,
                 gen: int, exc: BaseException) -> None:
        """BrokenProcessPool: restart once per generation, retry the job."""
        self._restart(gen)
        attempts = self._retry.attempts if self._retry is not None else 1
        if attempt + 1 >= attempts:
            err = WorkerCrashError(
                f"worker crashed running {spec.op!r} job; "
                f"gave up after {attempt + 1} attempt(s)")
            err.__cause__ = exc
            self._finish(outer, exc=err)
            return
        self._event("crash_retry")
        delay = (self._retry.delay(attempt, self._rng)
                 if self._retry is not None else 0.0)
        timer = threading.Timer(delay, self._launch,
                                args=(spec, outer, attempt + 1),
                                kwargs={"first": False})
        timer.daemon = True
        timer.start()

    def _restart(self, gen: int) -> None:
        """Replace the broken pool; the generation guard makes the N
        concurrent failures of one crash cost exactly one restart."""
        with self._lock:
            if self._shutdown or self._generation != gen:
                return
            self._generation += 1
            old = self._pool
            self._pool = self._new_pool()
        self._event("restart")
        try:
            old.shutdown(wait=False)
        except Exception:  # pragma: no cover - broken pools may throw
            pass

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            pool = self._pool
        pool.shutdown(wait=wait)
