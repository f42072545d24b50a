"""The engine's executor: a bounded thread pool with backpressure.

:class:`BoundedExecutor` runs ``fn(machine)`` callables -- the engine
hands it a :class:`~repro.engine.worker.JobSpec` bound to the
interpreter over its registry (:func:`~repro.engine.worker.interpret`)
-- and applies **backpressure**: when the bounded queue is full,
``submit`` fails *immediately* with :class:`RejectedError` carrying a
reason, so overload surfaces as explicit rejections instead of
unbounded memory growth and collapsing latency.

Threads are cheap and zero-copy, but the GIL serialises the CPU-bound
portions of concurrent batch kernels -- which is why the engine runs a
kicked read group on the kicking thread itself
(:meth:`BoundedExecutor.run`) instead of handing it to a pool thread
that would trade the GIL with the kicker on every NumPy call.

Every job runs under a **fresh scan-model** :class:`Machine` installed
with :func:`use_machine` (:meth:`BoundedExecutor.run`, the one job
body, whether a pool worker or the engine's flushing thread runs it),
and the ``executor.job`` fault site fires there once per job.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Callable, Optional

from ..errors import EngineError
from ..machine import Machine, use_machine

__all__ = ["RejectedError", "BoundedExecutor"]


class RejectedError(EngineError):
    """A request the engine refused to enqueue (backpressure or shutdown).

    ``reason`` is the machine-readable code (``queue_full``,
    ``shutdown``, ``closed``); the message stays human-readable.
    """

    reason = "rejected"


class BoundedExecutor:
    """Fixed worker pool over a bounded queue; rejects when saturated."""

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
