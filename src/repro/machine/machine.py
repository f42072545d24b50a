"""Cost-accounting core of the scan-model virtual vector machine.

The paper's algorithms are stated in Blelloch's *scan model* of parallel
computation: a vector machine whose primitive operations (elementwise
operations, one-to-one permutations, and scans -- including segmented
scans) each take **unit time**, regardless of vector length.  All of the
paper's complexity claims (O(log n) quadtree builds, O(log**2 n) R-tree
build) count primitive invocations under that cost semantics.

This module provides :class:`Machine`, the object that every primitive in
:mod:`repro.machine` and :mod:`repro.primitives` reports to.  A machine
tracks

* a per-primitive invocation counter (``scan``, ``elementwise``,
  ``permute``, ``sort``, ...),
* a *step clock* advanced according to a :class:`CostModel`, and
* optional named *phases* so builds can attribute cost to rounds.

Three cost models are provided, mirroring the paper's Section 3
discussion:

``scan_model``
    Every primitive costs one step (the model the paper's O(.) claims
    use).  A sort costs ``ceil(log2 n)`` steps, matching the paper's
    statement that the scan model allows sorting in O(log n) time.
``hypercube``
    A scan costs ``log2 p`` steps on a p-processor hypercube; permutes
    cost ``log2 p`` routing steps; elementwise operations cost
    ``ceil(n / p)``.  This is the "real machine" cost the scan model
    abstracts away.
``pram_emulation``
    PRAM emulated on a shared-nothing machine pays a slowdown factor per
    shared-memory access (Alt et al. [Alt87] in the paper); we charge
    ``log2 p`` per elementwise step as a deterministic-simulation proxy.

The default machine is *context-scoped* (a :mod:`contextvars` variable,
falling back to one process-wide instance) and can be swapped with
:func:`use_machine` for scoped accounting::

    with use_machine(Machine(cost_model="hypercube", processors=32)) as m:
        tree = build_pm1(segments)
    print(m.steps, m.counts["scan"])

Because each thread (and each asyncio task) carries its own context,
concurrent workers that install their own machine via
:func:`use_machine` account in complete isolation -- the property the
:mod:`repro.engine` executor relies on to attribute scan-model steps
per batch without cross-talk.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "CostModel",
    "Machine",
    "get_machine",
    "use_machine",
    "reset_machine",
    "COST_MODELS",
]


@dataclass(frozen=True)
class CostModel:
    """Per-primitive step costs for a :class:`Machine`.

    Each field is either a callable ``(n, p) -> float`` giving the step
    cost of one invocation of that primitive on a length-``n`` vector
    with ``p`` physical processors, or a plain number when the cost
    depends on neither (the scan model's unit-time primitives).  ``n``
    may be 0 for degenerate vectors; costs must be non-negative.
    """

    name: str
    scan: Callable[[int, int], float] | float
    elementwise: Callable[[int, int], float] | float
    permute: Callable[[int, int], float] | float
    sort: Callable[[int, int], float] | float

    def cost(self, primitive: str, n: int, p: int) -> float:
        fn = getattr(self, primitive, None)
        if fn is None:
            raise KeyError(f"cost model {self.name!r} has no primitive {primitive!r}")
        if not callable(fn):
            return float(fn)
        return float(fn(max(int(n), 0), max(int(p), 1)))


def _log2ceil(x: int) -> int:
    return int(math.ceil(math.log2(x))) if x > 1 else 1


def _scan_model() -> CostModel:
    return CostModel(
        name="scan_model",
        scan=1.0,
        elementwise=1.0,
        permute=1.0,
        sort=lambda n, p: float(_log2ceil(n)),
    )


def _hypercube() -> CostModel:
    return CostModel(
        name="hypercube",
        scan=lambda n, p: float(_log2ceil(p)),
        elementwise=lambda n, p: float(math.ceil(n / p)) if n else 1.0,
        permute=lambda n, p: float(_log2ceil(p)),
        sort=lambda n, p: float(_log2ceil(n) * _log2ceil(p)),
    )


def _pram_emulation() -> CostModel:
    return CostModel(
        name="pram_emulation",
        scan=lambda n, p: float(_log2ceil(n)),
        elementwise=lambda n, p: float(_log2ceil(p)),
        permute=lambda n, p: float(_log2ceil(p)),
        sort=lambda n, p: float(_log2ceil(n) * _log2ceil(p)),
    )


COST_MODELS: Dict[str, Callable[[], CostModel]] = {
    "scan_model": _scan_model,
    "hypercube": _hypercube,
    "pram_emulation": _pram_emulation,
}


@dataclass
class Machine:
    """Primitive-operation accountant for the virtual vector machine.

    Parameters
    ----------
    cost_model:
        Either a :class:`CostModel` or the name of a registered model
        (``"scan_model"``, ``"hypercube"``, ``"pram_emulation"``).
    processors:
        Number of physical processors ``p`` used by machine-aware cost
        models.  The paper's CM-5 configuration had 32.
    """

    cost_model: CostModel | str = "scan_model"
    processors: int = 32
    trace: bool = False
    steps: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    phase_steps: Dict[str, float] = field(default_factory=dict)
    events: list = field(default_factory=list)
    max_vector_length: int = 0
    _phase: Optional[str] = None
    _constant_costs: Dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.cost_model, str):
            try:
                self.cost_model = COST_MODELS[self.cost_model]()
            except KeyError as exc:
                raise KeyError(
                    f"unknown cost model {self.cost_model!r}; "
                    f"available: {sorted(COST_MODELS)}"
                ) from exc
        if self.processors < 1:
            raise ValueError("processors must be >= 1")
        self._constant_costs = {k: float(v) for k, v in vars(self.cost_model).items()
                                if k != "name" and not callable(v)}

    # -- recording -------------------------------------------------------

    def record(self, primitive: str, n: int = 0) -> None:
        """Record one invocation of ``primitive`` on a length-``n`` vector."""
        self.counts[primitive] = self.counts.get(primitive, 0) + 1
        delta = self._constant_costs.get(primitive)
        if delta is None:
            delta = self.cost_model.cost(primitive, n, self.processors)
        self.steps += delta
        if self._phase is not None:
            self.phase_steps[self._phase] = self.phase_steps.get(self._phase, 0.0) + delta
        if self.trace:
            self.events.append((self._phase, primitive, int(n)))
        if n > self.max_vector_length:
            self.max_vector_length = int(n)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute steps recorded inside the block to phase ``name``."""
        prev = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = prev

    # -- inspection ------------------------------------------------------

    @property
    def total_primitives(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, float]:
        """Return a flat summary suitable for tabulation."""
        out: Dict[str, float] = {"steps": self.steps, "primitives": float(self.total_primitives)}
        for k, v in sorted(self.counts.items()):
            out[k] = float(v)
        return out

    def format_trace(self, limit: int = 50) -> str:
        """Render the recorded primitive stream (requires ``trace=True``).

        One line per primitive invocation -- the machine-level analogue
        of the paper's mechanics figures (14, 16, 18).
        """
        if not self.trace:
            raise ValueError("machine was created without trace=True")
        lines = []
        for i, (phase, primitive, n) in enumerate(self.events[:limit]):
            tag = f"[{phase}] " if phase else ""
            lines.append(f"{i:>4}  {tag}{primitive}(n={n})")
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more")
        return "\n".join(lines)

    def reset(self) -> None:
        self.steps = 0.0
        self.counts.clear()
        self.phase_steps.clear()
        self.events.clear()
        self.max_vector_length = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return (
            f"Machine(model={self.cost_model.name!r}, p={self.processors}, "
            f"steps={self.steps:.0f}, {ops})"
        )


# Fallback accountant shared by every context that never installed its
# own machine.  Overrides travel through a ContextVar so threads and
# asyncio tasks that call use_machine() are isolated from one another.
_FALLBACK = Machine()
_CURRENT: contextvars.ContextVar[Optional[Machine]] = contextvars.ContextVar(
    "repro_machine", default=None)


def get_machine() -> Machine:
    """Return the machine primitives report to when none is passed."""
    machine = _CURRENT.get()
    return machine if machine is not None else _FALLBACK


def reset_machine() -> None:
    """Zero the current default machine's counters (convenience for tests)."""
    get_machine().reset()


@contextmanager
def use_machine(machine: Machine) -> Iterator[Machine]:
    """Install ``machine`` as the default accountant for this context.

    The override is scoped to the current thread / task: concurrent
    workers each see only the machine they installed themselves.
    """
    token = _CURRENT.set(machine)
    try:
        yield machine
    finally:
        _CURRENT.reset(token)
