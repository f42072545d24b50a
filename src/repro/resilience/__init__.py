"""Resilience primitives for the serving stack.

Four cooperating pieces turn partial failure from an exception into a
degraded mode (see README's "Resilience" section for the tour):

* :mod:`~repro.resilience.faults` -- a deterministic fault-injection
  harness (:class:`FaultPlan` / :class:`FaultInjector`) firing latency,
  errors, corruption, and stalls at named engine sites;
* :mod:`~repro.resilience.retry` -- :class:`RetryPolicy`, exponential
  backoff with seeded jitter and per-site budgets;
* :mod:`~repro.resilience.breaker` -- per-fingerprint
  closed/open/half-open :class:`CircuitBreaker` state machines behind a
  :class:`BreakerBoard`, failing fast with :class:`CircuitOpenError`;
* :mod:`~repro.resilience.partial` -- :class:`PartialResult`, the
  best-effort answer of a sharded wave its deadline cut short.

This package never imports :mod:`repro.engine` (only the shared
:class:`repro.errors.EngineError` base), so either can be imported
first.
"""

from .breaker import (CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker,
                      CircuitOpenError)
from .faults import (EXAMPLE_PLANS, KINDS, SITES, FaultInjector, FaultPlan,
                     FaultSpec, InjectedCorruption, InjectedFault,
                     InjectedWorkerCrash)
from .partial import PartialResult
from .retry import RetryPolicy, retry_call

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCorruption",
    "InjectedWorkerCrash",
    "EXAMPLE_PLANS",
    "SITES",
    "KINDS",
    "RetryPolicy",
    "retry_call",
    "CircuitBreaker",
    "CircuitOpenError",
    "BreakerBoard",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "PartialResult",
]
