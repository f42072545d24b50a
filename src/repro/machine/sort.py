"""Data-parallel sorting (paper Sections 3.2 and 4.7).

"The scan model considers all primitive operations (including scans) as
taking unit time ... this allows sorting operations to be performed in
O(log n) time."  Blelloch's split-radix sort realises this with one
split (a pair of scans plus a permute) per key bit.

On the virtual machine we expose two layers:

* :func:`rank` / :func:`sort` / :func:`seg_sort` -- the production path.
  Results come from NumPy's stable argsort; cost is recorded as a single
  ``sort`` primitive, which the active cost model prices at
  ``ceil(log2 n)`` steps under ``scan_model`` (see
  :mod:`repro.machine.machine`).
* :func:`split_radix_sort` -- the faithful scan-composed sort: one
  :func:`~repro.primitives.unshuffle`-style split per bit, each made of
  two scans, two elementwise operations and a permute.  It exists to
  *demonstrate* the O(log n) claim with real primitive counts and as an
  oracle in tests; the two paths always agree.

All sorts are stable; the R-tree split-selection algorithm (Section 4.7)
relies on deterministic tie ordering.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .machine import Machine, get_machine
from .scans import seg_scan
from .vector import Segments

__all__ = ["rank", "sort", "seg_rank", "seg_sort", "split_radix_sort"]


def rank(keys, machine: Optional[Machine] = None) -> np.ndarray:
    """Stable rank of each element: its slot in the sorted order.

    ``rank(keys)[i]`` is the destination index of element ``i``; sorting
    is ``permute(keys, rank(keys))``.  Recorded as one ``sort``.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    (machine or get_machine()).record("sort", keys.size)
    order = np.argsort(keys, kind="stable")
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = np.arange(keys.size, dtype=np.int64)
    return ranks


def sort(keys, *payloads, machine: Optional[Machine] = None):
    """Stable sort of ``keys``, carrying optional payload vectors along.

    Returns the sorted keys, or a tuple ``(keys, *payloads)`` when
    payloads are given.  One ``sort`` primitive is recorded.
    """
    keys = np.asarray(keys)
    (machine or get_machine()).record("sort", keys.size)
    order = np.argsort(keys, kind="stable")
    out = keys[order]
    if not payloads:
        return out
    moved = tuple(np.asarray(p)[order] for p in payloads)
    return (out,) + moved


def _narrow(v: np.ndarray) -> np.ndarray:
    """Non-negative integers in their narrowest dtype (16-bit keys radix-sort)."""
    if v.size and np.issubdtype(v.dtype, np.integer) and v.min() >= 0:
        return v.astype(np.min_scalar_type(int(v.max())), copy=False)
    return v


def _seg_order(keys: np.ndarray, segments: Segments) -> np.ndarray:
    """Stable order that sorts every segment independently."""
    if segments.nseg <= 1:
        return np.argsort(_narrow(keys), kind="stable")
    return np.lexsort((_narrow(keys), _narrow(segments.ids)))   # lexsort is stable


def seg_rank(keys, segments: Segments, machine: Optional[Machine] = None) -> np.ndarray:
    """Stable within-segment rank (destination index) of each element.

    Sorting happens independently inside every segment; elements never
    cross segment boundaries.  This is the sort the R-tree node split
    applies to each overflowing node's processor group.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if segments.n != keys.size:
        raise ValueError("segment descriptor does not cover the key vector")
    (machine or get_machine()).record("sort", keys.size)
    order = _seg_order(keys, segments)
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = np.arange(keys.size, dtype=np.int64)
    return ranks


def seg_sort(keys, segments: Segments, *payloads, machine: Optional[Machine] = None):
    """Stable independent sort of every segment (one ``sort`` primitive)."""
    keys = np.asarray(keys)
    if segments.n != keys.size:
        raise ValueError("segment descriptor does not cover the key vector")
    (machine or get_machine()).record("sort", keys.size)
    order = _seg_order(keys, segments)
    out = keys[order]
    if not payloads:
        return out
    moved = tuple(np.asarray(p)[order] for p in payloads)
    return (out,) + moved


def split_radix_sort(keys, bits: Optional[int] = None,
                     machine: Optional[Machine] = None) -> np.ndarray:
    """Blelloch's split-radix sort, composed from scans and permutes.

    Sorts non-negative integer ``keys`` by splitting on each bit from
    least to most significant.  Each of the ``bits`` rounds records the
    primitives it genuinely uses (two scans, elementwise work, one
    permute), so a machine watching this call sees the O(log n)-round
    structure the paper's cost claims rest on.
    """
    keys = np.asarray(keys)
    if keys.size and (not np.issubdtype(keys.dtype, np.integer) or keys.min() < 0):
        raise ValueError("split_radix_sort requires non-negative integer keys")
    data = keys.astype(np.int64, copy=True)
    if data.size == 0:
        return data
    if bits is None:
        bits = max(int(data.max()).bit_length(), 1)
    m = machine or get_machine()
    n = data.size
    seg = Segments.single(n)
    position = np.arange(n, dtype=np.int64)
    for b in range(bits):
        bit = (data >> b) & 1
        # zeros pack left, ones pack right: the unshuffle of Section 4.2.
        ones_before = seg_scan(bit, seg, "+", "up", False, machine=m)
        zeros_after = seg_scan(1 - bit, seg, "+", "down", False, machine=m)
        m.record("elementwise", n)
        dest = np.where(bit == 0, position - ones_before, position + zeros_after)
        m.record("permute", n)
        out = np.empty_like(data)
        out[dest] = data
        data = out
    return data
