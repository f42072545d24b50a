"""Segmented scan primitives (paper Section 3.2.1, Figure 8).

A scan takes an associative operator ``(+)``, a vector
``[a0, a1, ..., a_{n-1}]``, and returns the vector of running
combinations.  Scans here come in every flavour the paper uses:

* **direction** -- ``up`` (left to right) or ``down`` (right to left);
* **kind** -- ``inclusive`` (element i includes a_i) or ``exclusive``
  (element i combines strictly earlier elements; segment heads receive
  the operator identity);
* **segmentation** -- an optional :class:`~repro.machine.vector.Segments`
  descriptor restarts the scan at every segment head, realising
  "multiple parallel scans, where each operates independently on a
  segment of contiguous processors".

Supported operators:

======  =========================  =========================
name    identity                   used by (paper)
======  =========================  =========================
``+``   0                          every primitive in Section 4
``max`` dtype minimum / -inf       R-tree split bounding boxes (4.7)
``min`` dtype maximum / +inf       R-tree split bounding boxes (4.7)
``copy`` first element             segmented broadcast (4.7, [Hung89])
``or``  False                      split-flag dissemination
``and`` True                       shared-vertex tests (4.5)
======  =========================  =========================

Two execution engines produce identical results:

``fast``
    O(n)-work vectorised NumPy (cumulative sums with per-segment base
    subtraction; monotone offset embedding for min/max).
``hillis_steele``
    The textbook log-step doubling network: ``ceil(log2 n)`` whole-vector
    rounds, each combining element ``i`` with element ``i - 2**k`` when
    both lie in the same segment.  This is (the vectorised image of) how
    the CM-5 actually evaluated scans and is kept both as an oracle for
    the fast paths and for step-faithful demonstrations.

Every call records exactly **one** ``scan`` primitive on the accounting
:class:`~repro.machine.machine.Machine` -- the scan model's unit-time
semantics -- regardless of engine (:func:`seg_scan_columns` scans ``k``
vectors in one pass and records ``k``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .machine import Machine, get_machine
from .vector import Segments

__all__ = [
    "seg_scan",
    "seg_scan_columns",
    "up_scan",
    "down_scan",
    "scan_identity",
    "SCAN_OPS",
]

SCAN_OPS = ("+", "max", "min", "copy", "or", "and")

_BOOL_OPS = {"or", "and"}


def scan_identity(op: str, dtype: np.dtype):
    """Return the identity element of ``op`` for vectors of ``dtype``."""
    dtype = np.dtype(dtype)
    if op == "+":
        return dtype.type(0)
    if op == "or":
        return np.bool_(False)
    if op == "and":
        return np.bool_(True)
    if op == "max":
        if np.issubdtype(dtype, np.floating):
            return dtype.type(-np.inf)
        if np.issubdtype(dtype, np.integer):
            return np.iinfo(dtype).min
        raise TypeError(f"max scan unsupported for dtype {dtype}")
    if op == "min":
        if np.issubdtype(dtype, np.floating):
            return dtype.type(np.inf)
        if np.issubdtype(dtype, np.integer):
            return np.iinfo(dtype).max
        raise TypeError(f"min scan unsupported for dtype {dtype}")
    if op == "copy":
        raise ValueError("copy scan has no identity; exclusive copy is undefined")
    raise ValueError(f"unknown scan operator {op!r}; expected one of {SCAN_OPS}")


def _coerce(data: np.ndarray, op: str, ndim: int = 1) -> np.ndarray:
    data = np.asarray(data)
    if data.ndim != ndim:
        raise ValueError("scan input must be one-dimensional" if ndim == 1 else
                         "column-wise scan input must have shape (n, k)")
    if op in _BOOL_OPS:
        return data.astype(bool)
    if op == "+" and data.dtype == bool:
        return data.astype(np.int64)
    return data


def _ufunc(op: str) -> np.ufunc:
    return {"+": np.add, "max": np.maximum, "min": np.minimum,
            "or": np.logical_or, "and": np.logical_and}[op]


# ---------------------------------------------------------------------------
# fast O(n) engines (upward inclusive; other flavours derived)
# ---------------------------------------------------------------------------

def _up_inclusive_fast(data: np.ndarray, seg: Segments, op: str) -> np.ndarray:
    # ``data`` is one vector (n,) or k vectors as columns (n, k)
    ids = seg.ids
    heads = seg.heads
    if op == "copy":
        return data[heads][ids]
    if op == "+":
        c = np.cumsum(data, axis=0)
        base = (c[heads] - data[heads])[ids]
        return c - base
    if op in _BOOL_OPS:
        x = data.astype(np.int64) if op == "or" else (~data).astype(np.int64)
        c = np.cumsum(x, axis=0)
        base = (c[heads] - x[heads])[ids]
        within = c - base
        return within > 0 if op == "or" else within == 0
    # min/max: embed each segment in a disjoint monotone band so a single
    # global accumulate cannot carry values across segment boundaries.
    # Bands ascend for max (earlier segments sit strictly lower, so their
    # running max never wins) and descend for min.
    if np.issubdtype(data.dtype, np.integer):
        lo = int(data.min(initial=0))
        hi = int(data.max(initial=0))
        span = hi - lo + 1
        if span * max(seg.nseg, 1) < 2**62:
            band = (ids * span).reshape((-1,) + (1,) * (data.ndim - 1))  # per slot
            if op == "max":
                shifted = data.astype(np.int64) - lo + band
                acc = np.maximum.accumulate(shifted)
                return (acc - band + lo).astype(data.dtype, copy=False)
            shifted = data.astype(np.int64) - lo - band
            acc = np.minimum.accumulate(shifted)
            return (acc + band + lo).astype(data.dtype, copy=False)
    # floats (offset embedding loses precision) and band-overflow cases
    # fall back to the exact log-step engine.
    return _up_inclusive_doubling(data, seg, op)


def _up_inclusive_doubling(data: np.ndarray, seg: Segments, op: str) -> np.ndarray:
    """Hillis-Steele doubling network; exact for every operator.

    Slots ``2**k`` apart lie in different segments once ``2**k`` reaches
    the longest segment, so the network stops there.
    """
    if op == "copy":
        return data[seg.heads][seg.ids]
    out = np.array(data.T, order="C")       # each vector contiguous
    offset = seg.offsets_within()
    fn = _ufunc(op)
    longest = int(seg.lengths.max(initial=0))
    d = 1
    while d < longest:
        np.copyto(out[..., d:], fn(out[..., d:], out[..., :-d]), where=offset[d:] >= d)
        d <<= 1
    return out.T


def _to_exclusive(inc: np.ndarray, data: np.ndarray, seg: Segments, op: str) -> np.ndarray:
    """Shift an inclusive up-scan one slot right within each segment."""
    ident = scan_identity(op, data.dtype)
    out = np.empty_like(inc)
    if inc.size:
        out[1:] = inc[:-1]
        out[0] = ident
        out[seg.heads] = ident
    return out


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def seg_scan(
    data,
    segments: Optional[Segments] = None,
    op: str = "+",
    direction: str = "up",
    inclusive: bool = True,
    machine: Optional[Machine] = None,
    engine: str = "fast",
) -> np.ndarray:
    """Segmented scan of ``data``; the paper's workhorse primitive.

    Parameters
    ----------
    data:
        One-dimensional array-like.
    segments:
        Segment descriptor; ``None`` means one segment spanning the
        vector (an unsegmented scan).
    op:
        One of ``"+", "max", "min", "copy", "or", "and"``.
    direction:
        ``"up"`` scans left-to-right, ``"down"`` right-to-left (the
        paper's ``up-scan`` / ``down-scan``).
    inclusive:
        Inclusive scans include each element's own value; exclusive
        scans place the operator identity at segment heads (tails, for
        downward scans).  ``op="copy"`` must be inclusive.
    engine:
        ``"fast"`` (O(n) work) or ``"hillis_steele"`` (log-step
        doubling).  Both give identical results.

    Returns
    -------
    numpy.ndarray of the same length as ``data``.
    """
    return _seg_scan(data, segments, op, direction, inclusive, machine, engine, ndim=1)


def seg_scan_columns(data, segments: Optional[Segments] = None, op: str = "+",
                     direction: str = "up", inclusive: bool = True,
                     machine: Optional[Machine] = None, engine: str = "fast") -> np.ndarray:
    """:func:`seg_scan` of the ``k`` columns of an ``(n, k)`` array at once.

    The columns are ``k`` vectors sharing one descriptor (the four
    coordinates of a box vector, say); they go through the engine in one
    pass and are recorded as what they are on the machine: ``k`` scans.
    """
    return _seg_scan(data, segments, op, direction, inclusive, machine, engine, ndim=2)


def _seg_scan(data, segments, op, direction, inclusive, machine, engine, ndim) -> np.ndarray:
    if op not in SCAN_OPS:
        raise ValueError(f"unknown scan operator {op!r}; expected one of {SCAN_OPS}")
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if op == "copy" and not inclusive:
        raise ValueError("exclusive copy scan is undefined")
    if engine not in ("fast", "hillis_steele"):
        raise ValueError("engine must be 'fast' or 'hillis_steele'")

    data = _coerce(data, op, ndim)
    n = data.shape[0]
    seg = segments if segments is not None else Segments.single(n)
    if seg.n != n:
        raise ValueError(f"segment descriptor covers {seg.n} slots, data has {n}")

    m = machine or get_machine()
    for _ in range(1 if ndim == 1 else data.shape[1]):
        m.record("scan", n)

    if n == 0:
        return data.copy()

    if direction == "down":
        rev = seg.reversed()
        res = _run_up(data[::-1], rev, op, inclusive, engine)
        return res[::-1]
    return _run_up(data, seg, op, inclusive, engine)


def _run_up(data: np.ndarray, seg: Segments, op: str, inclusive: bool, engine: str) -> np.ndarray:
    if engine == "hillis_steele":
        inc = _up_inclusive_doubling(data, seg, op)
    else:
        inc = _up_inclusive_fast(data, seg, op)
    if inclusive:
        return inc
    return _to_exclusive(inc, data, seg, op)


def up_scan(data, segments=None, op="+", kind="in", machine=None, engine="fast"):
    """Paper-style alias: ``up-scan(data, sf, op, in|ex)`` (Figure 8)."""
    return seg_scan(data, segments, op, "up", kind == "in", machine, engine)


def down_scan(data, segments=None, op="+", kind="in", machine=None, engine="fast"):
    """Paper-style alias: ``down-scan(data, sf, op, in|ex)`` (Figure 8)."""
    return seg_scan(data, segments, op, "down", kind == "in", machine, engine)
