"""Concurrent batched spatial query engine (the serving layer).

Turns the one-shot builders and the data-parallel batch queries into a
serving stack: an index registry with an LRU cache, a request
coalescer, a bounded worker pool, and an engine-stats layer.  See
:mod:`repro.engine.engine` for the composition and README's "Serving
queries with repro.engine" for a tour.
"""

from ..errors import EngineError
from ..resilience import (CircuitBreaker, CircuitOpenError, FaultInjector,
                          FaultPlan, FaultSpec, InjectedCorruption,
                          InjectedFault, InjectedWorkerCrash, PartialResult,
                          RetryPolicy)
from .coalescer import Coalescer, Probe
from .engine import EngineConfig, SpatialQueryEngine
from .executor import (BoundedExecutor, ExecutorBackend, ProcessBackend,
                       RejectedError, WorkerCrashError)
from .registry import BuiltIndex, IndexKey, IndexRegistry, dataset_fingerprint
from .stats import EngineStats, LatencyReservoir
from .worker import IndexRef, JobSpec, NeedDataset, WorkerResult

__all__ = [
    "SpatialQueryEngine",
    "EngineConfig",
    "IndexRegistry",
    "IndexKey",
    "BuiltIndex",
    "dataset_fingerprint",
    "Coalescer",
    "Probe",
    "BoundedExecutor",
    "ProcessBackend",
    "ExecutorBackend",
    "IndexRef",
    "JobSpec",
    "WorkerResult",
    "NeedDataset",
    "EngineError",
    "RejectedError",
    "WorkerCrashError",
    "InjectedWorkerCrash",
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedCorruption",
    "PartialResult",
    "RetryPolicy",
    "EngineStats",
    "LatencyReservoir",
]
