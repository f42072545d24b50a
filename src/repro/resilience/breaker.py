"""Per-key circuit breakers: fail fast while a dependency is down.

The classic three-state machine, one instance per dataset fingerprint:

* **closed** -- requests flow; consecutive failures are counted and
  ``failure_threshold`` of them in a row *trips* the breaker;
* **open** -- requests fail fast (the engine raises
  :class:`CircuitOpenError` or degrades to brute force) until
  ``reset_timeout`` seconds have passed;
* **half-open** -- after the timeout, up to ``half_open_probes``
  requests are let through as probes: one success closes the breaker,
  one failure re-opens it and restarts the clock.

The clock is injectable so tests drive transitions without sleeping,
and an optional ``listener(event, key)`` receives ``trip`` /
``half_open`` / ``close`` / ``reopen`` for the stats layer.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..errors import EngineError

__all__ = ["CLOSED", "OPEN", "HALF_OPEN", "CircuitOpenError",
           "CircuitBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitOpenError(EngineError):
    """Failed fast: the key's breaker is open (dependency still down)."""

    reason = "circuit_open"

    def __init__(self, message: str, key: Optional[str] = None,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.key = key
        self.retry_after = retry_after  # seconds until the next probe


class CircuitBreaker:
    """One key's closed/open/half-open state machine; thread-safe."""

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 5.0, half_open_probes: int = 1,
                 clock: Callable[[], float] = time.monotonic,
                 listener: Optional[Callable[[str], None]] = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._listener = listener
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0          # consecutive failures while closed
        self._opened_at = 0.0
        self._probes_in_flight = 0  # half-open tokens handed out
        self.trips = 0

    def _emit(self, event: str) -> None:
        if self._listener is not None:
            self._listener(event)

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        """State with the open->half-open clock applied (lock held)."""
        if self._state == OPEN \
                and self._clock() - self._opened_at >= self.reset_timeout:
            return HALF_OPEN
        return self._state

    def retry_after(self) -> float:
        """Seconds until an open breaker starts probing (0 otherwise)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(self.reset_timeout - (self._clock() - self._opened_at),
                       0.0)

    def allow(self) -> bool:
        """May one request proceed right now?

        Closed: always.  Open: no, until the reset timeout promotes the
        breaker to half-open, where up to ``half_open_probes`` requests
        get probe tokens; the rest keep failing fast until a probe
        reports back.
        """
        if self._state == CLOSED:
            # unlocked fast path: a closed breaker stays closed until
            # a recorded failure trips it, which may as well land just
            # after this read
            return True
        event = None
        with self._lock:
            state = self._peek_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN:
                if self._state == OPEN:   # first arrival past the timeout
                    self._state = HALF_OPEN
                    self._probes_in_flight = 0
                    event = "half_open"
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    allowed = True
                else:
                    allowed = False
            else:
                allowed = False
        if event:
            self._emit(event)
        return allowed

    def record_success(self) -> None:
        event = None
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._probes_in_flight = 0
                event = "close"
            self._failures = 0
        if event:
            self._emit(event)

    def record_failure(self) -> None:
        event = None
        with self._lock:
            if self._state == HALF_OPEN:
                # the probe failed: back to open, restart the clock
                self._state = OPEN
                self._opened_at = self._clock()
                self._probes_in_flight = 0
                self._failures = 0
                self.trips += 1
                event = "reopen"
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._state = OPEN
                    self._opened_at = self._clock()
                    self._failures = 0
                    self.trips += 1
                    event = "trip"
        if event:
            self._emit(event)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"state": self._peek_state(),
                    "consecutive_failures": self._failures,
                    "trips": self.trips,
                    "retry_after": (
                        max(self.reset_timeout
                            - (self._clock() - self._opened_at), 0.0)
                        if self._state == OPEN else 0.0)}


class BreakerBoard:
    """Lazily-created breaker per key (the engine keys by fingerprint)."""

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 5.0,
                 half_open_probes: int = 1,
                 clock: Callable[[], float] = time.monotonic,
                 listener: Optional[Callable[[str, str], None]] = None):
        self._kw = dict(failure_threshold=failure_threshold,
                        reset_timeout=reset_timeout,
                        half_open_probes=half_open_probes, clock=clock)
        self._listener = listener
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, key: str) -> CircuitBreaker:
        with self._lock:
            b = self._breakers.get(key)
            if b is None:
                hook = ((lambda event, k=key: self._listener(event, k))
                        if self._listener is not None else None)
                b = CircuitBreaker(listener=hook, **self._kw)
                self._breakers[key] = b
            return b

    def allow(self, key: str) -> bool:
        # the board lock only guards creation: an existing breaker is
        # read without it (one dict lookup, atomic under the GIL)
        b = self._breakers.get(key)
        return (b or self.breaker(key)).allow()

    def record_success(self, key: str) -> None:
        self.breaker(key).record_success()

    def record_failure(self, key: str) -> None:
        self.breaker(key).record_failure()

    def state(self, key: str) -> str:
        return self.breaker(key).state

    def retry_after(self, key: str) -> float:
        return self.breaker(key).retry_after()

    def drop(self, key: str) -> None:
        """Forget ``key``'s breaker: its content was collected."""
        with self._lock:
            self._breakers.pop(key, None)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            items = list(self._breakers.items())
        return {key: b.snapshot() for key, b in items}
