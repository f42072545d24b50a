"""Partial results: what a deadline-cut sharded wave still knows.

When a sharded query's deadline passes before its last planned shard
runs, the engine resolves the probe with a :class:`PartialResult`
wrapping the merge of the shards that *did* run (always at least one),
instead of raising a ``TimeoutError`` -- graceful degradation over
hard failure.  Callers
distinguish the two shapes with ``isinstance`` (the fault-free path
keeps returning bare arrays/tuples, preserving the bit-identical
invariant against the scalar queries).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PartialResult"]


@dataclass(frozen=True)
class PartialResult:
    """A best-effort answer from an incomplete sharded query.

    ``value`` carries the kind's normal result shape -- a global-id
    array for window/point probes, a ``(line id, distance)`` tuple for
    nearest (``(-1, inf)`` when none of the shards run held the probe).
    """

    value: object
    shards_dropped: int
    shards_completed: int
    partial: bool = True
