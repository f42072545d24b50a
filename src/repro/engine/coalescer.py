"""Request coalescer: individual probes in, vectorized batches out.

The paper's batch evaluation (``structures/batch.py``) answers a whole
query *set* in O(tree height) vector rounds -- but a serving system
receives probes one at a time.  The coalescer bridges the two: probes
for the same key (the engine's: an index and exactness, whatever the
probe kind) accumulate in a group, and a group is flushed by the first
of three triggers:

* **deadline** -- its oldest probe has waited ``max_wait`` seconds
  (flushed by the watcher thread);
* **kick** -- its callers have nothing more to add right now
  (:meth:`Coalescer.kick`): on an idle engine every pending group
  flushes at once, on the kicking thread; on a busy one the pending
  groups are *marked*;
* **drain** -- a settling group leaves the engine idle
  (:meth:`Coalescer.settled`): every marked group flushes at once.

A flushed group is **cut** into consecutive jobs of at most
``max_batch`` probes, in arrival order, so ``max_batch`` bounds a job
without starting one: a submit only appends.

``idle`` is the engine's predicate "no read or join group in flight".
Kick and drain make the batching work-conserving: a lone request on an
idle engine goes out at once, and while a batch runs the next one forms
behind it, so ``max_wait`` only bounds how long a probe waits while the
engine is busy and its callers have not kicked.  The engine kicks when
a caller waits on a probe (a wave waits only after it has submitted),
so an in-process wave runs on the thread that waits for it; a submit
loop that outlasts ``max_wait`` still loses its oldest groups to the
deadline.  ``flush()`` and ``close()`` dispatch every pending group
unconditionally.

``flush_fn(key, probes, why)`` hears the trigger, so the engine can run
a kicked job on the kicking thread (nothing else is in flight then).
A job that runs there settles there too, and its settle calls
:meth:`Coalescer.settled` on that thread; the engine sends drained
groups to its pool, so a settle only submits and never nests a run.

The deadline watcher keeps each group's *head timestamp* (when its
oldest probe arrived) and sleeps until the soonest ``head + max_wait``.
``max_wait = 0`` degenerates to immediate dispatch: every submit
flushes its group synchronously, the zero-latency end of the knob.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from concurrent.futures import Future

from .executor import RejectedError

__all__ = ["Probe", "Coalescer"]


@dataclass(slots=True)
class Probe:
    """One in-flight request: its payload and the future awaiting it.

    ``deadline_at`` (absolute ``time.monotonic`` seconds, ``None`` for
    no deadline) rides along through coalescing: a batch inherits the
    *earliest* deadline of its probes, and a sharded wave that passes
    it before its last planned shard resolves with a partial result
    instead of timing out.  ``kind`` is a read probe's kind code
    (:data:`repro.structures.batch.KINDS`), one row of its group's wave.
    """

    payload: object
    future: Future = field(default_factory=Future)
    submitted_at: float = field(default_factory=time.monotonic)
    deadline_at: Optional[float] = None
    kind: int = 0


class Coalescer:
    """Groups probes per key and flushes on deadline, kick or drain.

    ``on_flush(why, jobs)`` (optional) hears every dispatch: ``why``
    is ``"deadline"``, ``"kick"``, ``"drain"`` or ``"flush"`` (explicit
    :meth:`flush` and :meth:`close`), ``jobs`` the number of jobs of at
    most ``max_batch`` probes the flushed groups were cut into.
    """

    def __init__(self,
                 flush_fn: Callable[[Hashable, List[Probe], str], None],
                 max_batch: int = 64, max_wait: float = 0.002,
                 idle: Callable[[], bool] = lambda: True,
                 on_flush: Optional[Callable[[str, int], None]] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        self._flush_fn = flush_fn
        self._idle = idle
        self._on_flush = on_flush
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._cv = threading.Condition()
        self._groups: Dict[Hashable, List[Probe]] = {}
        # group key -> the oldest probe's submit timestamp
        self._heads: Dict[Hashable, float] = {}
        # groups kicked while the engine was busy: they flush on drain
        self._marked: set = set()
        self._closed = False
        self._timer = threading.Thread(target=self._run, daemon=True,
                                       name="repro-engine-coalescer")
        self._timer.start()

    def submit(self, key: Hashable, probe: Probe) -> None:
        """Add a probe (``max_wait = 0``: and flush its group now)."""
        with self._cv:
            if self._closed:
                raise RejectedError("engine is closed", reason="closed")
            group = self._groups.setdefault(key, [])
            group.append(probe)
            if len(group) == 1:
                self._heads[key] = probe.submitted_at
                self._cv.notify()
            if self.max_wait > 0:
                return
            ready = [(key, self._take(key))]
        self._dispatch("deadline", ready)   # a zero window has elapsed

    def kick(self) -> None:
        """The callers have nothing more to add right now.

        On an idle engine every pending group flushes at once, on this
        thread; otherwise the pending groups are marked and flush when
        the engine drains (or earlier by deadline).  A no-op
        with nothing pending, and so after :meth:`close`.
        """
        with self._cv:
            if not self._groups:
                return
            if not self._idle():
                self._marked.update(self._groups)
                return
            batches = self._take_all()
        self._dispatch("kick", batches)

    def settled(self) -> None:
        """A group left the engine: if it is now idle, flush the marked
        groups in one pass."""
        with self._cv:
            if not self._marked or not self._idle():
                return
            batches = [(k, self._take(k)) for k in list(self._groups)
                       if k in self._marked]   # in arrival order
        self._dispatch("drain", batches)

    def _take(self, key: Hashable) -> List[Probe]:
        self._heads.pop(key, None)
        self._marked.discard(key)
        return self._groups.pop(key)

    def _take_all(self) -> List[Tuple[Hashable, List[Probe]]]:
        return [(k, self._take(k)) for k in list(self._groups)]

    def _dispatch(self, why: str,
                  batches: List[Tuple[Hashable, List[Probe]]]) -> None:
        """Cut each group into jobs of at most ``max_batch``, in order."""
        n = self.max_batch
        jobs = [(key, probes[i:i + n]) for key, probes in batches
                for i in range(0, len(probes), n)]
        if jobs and self._on_flush is not None:
            self._on_flush(why, len(jobs))
        for key, probes in jobs:
            self._flush_fn(key, probes, why)

    def _run(self) -> None:
        """Deadline watcher: flush groups whose window has elapsed."""
        while True:
            batches: List[Tuple[Hashable, List[Probe]]] = []
            with self._cv:
                if self._closed:
                    return
                if not self._heads:
                    self._cv.wait()
                else:
                    now = time.monotonic()
                    soonest = min(self._heads.values()) + self.max_wait
                    if soonest > now:
                        self._cv.wait(soonest - now)
                    now = time.monotonic()
                    due = [k for k, h in self._heads.items()
                           if h + self.max_wait <= now]
                    batches = [(k, self._take(k)) for k in due]
            self._dispatch("deadline", batches)

    def flush(self) -> None:
        """Dispatch every pending group immediately (tests, shutdown)."""
        with self._cv:
            batches = self._take_all()
        self._dispatch("flush", batches)

    @property
    def pending(self) -> int:
        with self._cv:
            return sum(len(g) for g in self._groups.values())

    def close(self) -> None:
        """Flush what is pending and stop accepting probes."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            batches = self._take_all()
            self._cv.notify_all()
        self._dispatch("flush", batches)
        self._timer.join(timeout=5)
