"""Deterministic fault injection for the serving stack.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` rows,
each naming a **site** -- a choke point the engine instruments -- and a
fault **kind** to fire there.  The :class:`FaultInjector` evaluates the
plan at runtime: components call :meth:`FaultInjector.fire` with the
site name (plus context like the shard number), and the injector either
returns silently, sleeps, or raises.

Sites (see the module docstrings of the instrumented components):

``registry.get``
    Index lookup/build in :class:`repro.engine.registry.IndexRegistry`
    -- an ``error`` here simulates a failing build or a crashed loader.
``store.load``
    Archive load in :class:`repro.store.IndexStore` -- ``corrupt``
    exercises the retry -> quarantine -> rebuild path exactly as a torn
    file would.
``executor.job``
    Job start in :meth:`repro.engine.executor.BoundedExecutor.run`,
    whichever thread runs the job -- ``latency`` makes stragglers,
    ``error`` a failing job, and ``crash`` a killed worker: a thread
    cannot be killed, so the :class:`InjectedWorkerCrash` it raises
    becomes the job's failure and feeds the dataset's breaker like any
    other.
``shard.query``
    One shard of a sharded wave, fired inside the wave's job before
    the shard runs (context key ``shard``; a wave mixes probe kinds)
    -- ``stall``
    holds a shard past the batch deadline, so the wave drops the rest
    of its plan and answers partially.
``wal.append``
    The write-ahead journal append inside a mutation commit -- an
    ``error`` simulates a full or failing journal disk, exercising the
    commit-abort path: the staged version is abandoned, the ack is
    withheld, the readable snapshot stays untouched, and the breakers
    are not fed (a broken write must not trip readers).
``store.put``
    An :class:`repro.store.IndexStore` write -- an ``error`` makes
    spills and checkpoint index persists fail like a full disk would:
    best-effort writers degrade silently, a checkpoint aborts without
    truncating the journal.

Everything is deterministic: each spec owns a ``random.Random`` seeded
from ``(plan.seed, spec index)``, arrivals are counted per spec, and
``after``/``times`` window the firings, so a chaos test replays
identically.  ``fire`` on a site with no matching specs is one dict
lookup -- cheap enough to leave compiled in on the fault-free path.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import EngineError

__all__ = [
    "SITES",
    "KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCorruption",
    "InjectedWorkerCrash",
    "EXAMPLE_PLANS",
]

#: the instrumented choke points, each with the context keys its
#: ``fire`` passes (the only keys a spec's ``match`` can name)
SITES = {"registry.get": ("fingerprint", "structure"),
         "store.load": ("key_id",), "executor.job": (),
         "shard.query": ("shard",), "wal.append": ("root",),
         "store.put": ("key_id",)}

#: what a spec can do when it fires
KINDS = ("latency", "error", "corrupt", "stall", "crash")


class InjectedFault(EngineError):
    """An exception raised on purpose by the fault injector."""

    reason = "injected_fault"


class InjectedCorruption(InjectedFault):
    """An injected load failure, indistinguishable from a torn archive.

    The store's load path treats it like any other deserialisation
    error, so the *real* quarantine-and-rebuild machinery runs.
    """

    reason = "injected_corruption"


class InjectedWorkerCrash(InjectedFault):
    """A ``crash`` spec fired: the job's worker died mid-batch.

    The engine's workers are threads, which cannot be killed, so the
    exception propagates as the job's failure (plan files keep the
    ``crash`` kind).
    """

    reason = "injected_worker_crash"


@dataclass(frozen=True)
class FaultSpec:
    """One row of a fault plan: where, what, and when to fire.

    ``probability`` gates each arrival through the spec's seeded RNG;
    ``after`` skips the first N arrivals and ``times`` caps the total
    firings (``None``: unlimited), so "fail the first two loads" or
    "stall every third sub-batch of shard 0" are all expressible.
    ``match`` filters on the caller's context, e.g.
    ``(("shard", 0),)`` fires only for shard 0.
    """

    site: str
    kind: str = "error"
    probability: float = 1.0
    times: Optional[int] = None
    after: int = 0
    delay: float = 0.0
    match: Tuple[Tuple[str, object], ...] = ()
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"choose from {tuple(SITES)}")
        unknown = sorted({k for k, _ in self.match} - set(SITES[self.site]))
        if unknown:
            raise ValueError(f"site {self.site!r} passes no context key "
                             f"{unknown}; it passes {SITES[self.site]}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {KINDS}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        if self.times is not None and self.times < 0:
            raise ValueError("times must be >= 0")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def matches(self, ctx: Dict[str, object]) -> bool:
        return all(ctx.get(k) == v for k, v in self.match)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable set of fault specs plus the RNG seed."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def from_dicts(cls, rows, seed: int = 0) -> "FaultPlan":
        """Build a plan from dict rows (``match`` as a plain mapping)."""
        specs = []
        for row in rows:
            row = dict(row)
            match = row.pop("match", {})
            specs.append(FaultSpec(match=tuple(sorted(match.items())), **row))
        return cls(specs=tuple(specs), seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse ``{"seed": ..., "specs": [{...}, ...]}`` (or a bare list)."""
        payload = json.loads(text)
        if isinstance(payload, list):
            return cls.from_dicts(payload)
        return cls.from_dicts(payload.get("specs", []),
                              seed=int(payload.get("seed", 0)))


class FaultInjector:
    """Runtime evaluator of a :class:`FaultPlan`; thread-safe.

    ``observer`` (optional) is called with ``(site, kind)`` for every
    fault that actually fires -- the engine points it at its stats
    layer.  :meth:`snapshot` exposes per-spec arrival/fired counts for
    tests and the ``chaos`` CLI.
    """

    def __init__(self, plan: Optional[FaultPlan] = None,
                 observer: Optional[Callable[[str, str], None]] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self._observer = observer
        self._lock = threading.Lock()
        self._arrivals = [0] * len(self.plan.specs)
        self._fired = [0] * len(self.plan.specs)
        self._rngs = [random.Random(f"{self.plan.seed}:{i}")
                      for i in range(len(self.plan.specs))]
        self._by_site: Dict[str, List[int]] = {}
        for i, spec in enumerate(self.plan.specs):
            self._by_site.setdefault(spec.site, []).append(i)

    @property
    def active(self) -> bool:
        return bool(self.plan.specs)

    def fire(self, site: str, **ctx) -> None:
        """Evaluate the plan at one site; may sleep or raise.

        At most one spec raises per call (the first due one, in plan
        order); latency/stall specs all sleep before that.
        """
        indexes = self._by_site.get(site)
        if not indexes:
            return
        to_raise: Optional[InjectedFault] = None
        naps = 0.0
        for i in indexes:
            spec = self.plan.specs[i]
            if not spec.matches(ctx):
                continue
            with self._lock:
                self._arrivals[i] += 1
                if self._arrivals[i] <= spec.after:
                    continue
                if spec.times is not None and self._fired[i] >= spec.times:
                    continue
                if spec.probability < 1.0 \
                        and self._rngs[i].random() >= spec.probability:
                    continue
                self._fired[i] += 1
            if self._observer is not None:
                self._observer(site, spec.kind)
            if spec.kind in ("latency", "stall"):
                naps += spec.delay
            elif to_raise is None:
                msg = spec.message or (f"injected {spec.kind} at {site}"
                                       + (f" {dict(spec.match)}" if spec.match
                                          else ""))
                cls = (InjectedCorruption if spec.kind == "corrupt"
                       else InjectedWorkerCrash if spec.kind == "crash"
                       else InjectedFault)
                to_raise = cls(msg)
        if naps:
            time.sleep(naps)
        if to_raise is not None:
            raise to_raise

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            rows = [{"site": s.site, "kind": s.kind,
                     "arrivals": self._arrivals[i], "fired": self._fired[i]}
                    for i, s in enumerate(self.plan.specs)]
        fired_per_site: Dict[str, int] = {}
        for row in rows:
            fired_per_site[row["site"]] = (
                fired_per_site.get(row["site"], 0) + row["fired"])
        return {"seed": self.plan.seed, "specs": rows,
                "fired_per_site": fired_per_site,
                "fired_total": sum(r["fired"] for r in rows)}

    def reset(self) -> None:
        """Rewind every counter and RNG to the plan's initial state."""
        with self._lock:
            self._arrivals = [0] * len(self.plan.specs)
            self._fired = [0] * len(self.plan.specs)
            self._rngs = [random.Random(f"{self.plan.seed}:{i}")
                          for i in range(len(self.plan.specs))]


#: named plans for the ``chaos`` CLI and the CI smoke job
EXAMPLE_PLANS: Dict[str, FaultPlan] = {
    # sequenced so one chaos run tells the whole story: the first two
    # batches stall shard 0 (deadline -> partial results), the next
    # three hit index-lookup errors (tripping a threshold-3 breaker),
    # and a later wave finds the budgets spent and closes the circuit;
    # the corrupt spec exercises quarantine + rebuild when a store is
    # attached, and a fifth of all jobs are stragglers
    "examples": FaultPlan(specs=(
        FaultSpec(site="shard.query", kind="stall", delay=0.25,
                  match=(("shard", 0),), times=2),
        FaultSpec(site="registry.get", kind="error", after=2, times=3),
        FaultSpec(site="store.load", kind="corrupt", times=1),
        FaultSpec(site="executor.job", kind="latency", delay=0.002,
                  probability=0.2),
    ), seed=42),
    "stall": FaultPlan(specs=(
        FaultSpec(site="shard.query", kind="stall", delay=0.25,
                  match=(("shard", 0),)),
    ), seed=7),
    "buildfail": FaultPlan(specs=(
        FaultSpec(site="registry.get", kind="error", times=8),
    ), seed=7),
    "corrupt": FaultPlan(specs=(
        FaultSpec(site="store.load", kind="corrupt", probability=0.5),
    ), seed=7),
    # a killed worker: the first two jobs fail with InjectedWorkerCrash
    # (each feeds the breaker), then the budget is spent and later
    # batches complete
    "workercrash": FaultPlan(specs=(
        FaultSpec(site="executor.job", kind="crash", times=2),
    ), seed=7),
    # durability: the first two mutation commits die at the journal
    # append (aborted, unacked, snapshot untouched), later ones land
    "walfail": FaultPlan(specs=(
        FaultSpec(site="wal.append", kind="error", times=2),
    ), seed=7),
    "none": FaultPlan(),
}
