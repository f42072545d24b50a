"""Request coalescer: individual probes in, vectorized batches out.

The paper's batch evaluation (``structures/batch.py``) answers a whole
query *set* in O(tree height) vector rounds -- but a serving system
receives probes one at a time.  The coalescer bridges the two: probes
for the same (index, query kind) accumulate in a group, and a group is
dispatched as one batch when either

* it reaches ``max_batch`` probes (count trigger), or
* its oldest probe has waited ``max_wait`` seconds (deadline trigger),

whichever comes first.  This is the classic throughput/latency knob of
batched serving: larger windows amortise the per-round vector work over
more queries, smaller ones bound the queueing delay.

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
    instead of timing out.
    """

    payload: object
    future: Future = field(default_factory=Future)
    submitted_at: float = field(default_factory=time.monotonic)
    deadline_at: Optional[float] = None


class Coalescer:
    """Groups probes per key and flushes on count or deadline."""

    def __init__(self, flush_fn: Callable[[Hashable, List[Probe]], None],
                 max_batch: int = 64, max_wait: float = 0.002):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        self._flush_fn = flush_fn
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._cv = threading.Condition()
        self._groups: Dict[Hashable, List[Probe]] = {}
        # group key -> the oldest probe's submit timestamp
        self._heads: Dict[Hashable, float] = {}
        self._closed = False
        self._timer = threading.Thread(target=self._run, daemon=True,
                                       name="repro-engine-coalescer")
        self._timer.start()

    def submit(self, key: Hashable, probe: Probe) -> None:
        """Add a probe; may synchronously flush a full group."""
        ready = None
        with self._cv:
            if self._closed:
                raise RejectedError("engine is closed", reason="closed")
            group = self._groups.setdefault(key, [])
            group.append(probe)
            if len(group) == 1:
                self._heads[key] = probe.submitted_at
                self._cv.notify()
            if len(group) >= self.max_batch or self.max_wait <= 0:
                ready = self._take(key)
        if ready is not None:
            self._flush_fn(key, ready)

    def _take(self, key: Hashable) -> List[Probe]:
        self._heads.pop(key, None)
        return self._groups.pop(key)

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
            for key, probes in batches:
                self._flush_fn(key, probes)

    def flush(self) -> None:
        """Dispatch every pending group immediately (tests, shutdown)."""
        with self._cv:
            batches = [(k, self._take(k)) for k in list(self._groups)]
        for key, probes in batches:
            self._flush_fn(key, probes)

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
            batches = [(k, self._take(k)) for k in list(self._groups)]
            self._cv.notify_all()
        for key, probes in batches:
            self._flush_fn(key, probes)
        self._timer.join(timeout=5)
