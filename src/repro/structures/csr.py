"""CSR grouping: the whole-array steps the batch kernels share.

A grouping of ``n`` items into ``k`` groups is a pair ``(ptr, ids)``:
group ``j`` is ``ids[ptr[j]:ptr[j + 1]]``.  :func:`group_csr` derives
one from an owner-pointer array (once per tree), :func:`gather_csr`
reads many groups at once (once per frontier round), and
:func:`pack_csr` turns a kernel's (query, line) hit stream into the
per-query result grouping (once per batch); :func:`distinct_pairs` is
its sort-and-dedupe half, for kernels that filter the distinct pairs
before packing them with :func:`pack_sorted`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["group_csr", "gather_csr", "run_heads", "distinct_pairs",
           "pack_sorted", "pack_csr"]


def _ptr(owner: np.ndarray, num_groups: int) -> np.ndarray:
    ptr = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=num_groups), out=ptr[1:])
    return ptr


def group_csr(owner: np.ndarray, num_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, ids)`` of items grouped by ``owner``, ascending within a
    group (one stable sort); read-only, since callers share it."""
    ids = np.argsort(owner, kind="stable")
    ids.flags.writeable = False
    return _ptr(owner, num_groups), ids


def gather_csr(ptr: np.ndarray, ids: np.ndarray, groups: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, members)`` of each of ``groups``, concatenated in order.

    The gather every frontier expansion shares: one output slot per
    (pair, child) combination, computed with whole-array ops only.
    """
    starts = ptr[groups]
    counts = ptr[groups + 1] - starts
    ends = np.cumsum(counts)
    flat = np.arange(ends[-1] if ends.size else 0) + np.repeat(
        starts - (ends - counts), counts)
    return counts, ids[flat]


def run_heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal (sorted) keys."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def distinct_pairs(qid: np.ndarray, lid: np.ndarray, span: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(q, ids)``: the distinct (query, line) pairs, sorted by query
    then line.

    One sort of the fused key ``qid * span + lid`` (every ``lid <
    span``), one run-boundary dedupe, one ``divmod``.
    """
    key = np.sort(qid * span + lid)
    return np.divmod(key[run_heads(key)], max(span, 1))


def pack_sorted(q: np.ndarray, ids: np.ndarray, num_queries: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, ptr)`` of pairs already sorted by query: no second sort.
    ``ids`` is returned read-only: the per-query results are views of it."""
    ids.flags.writeable = False
    return ids, _ptr(q, num_queries)


def pack_csr(qid: np.ndarray, lid: np.ndarray, num_queries: int, span: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Group (query, line) pairs into sorted duplicate-free runs per query:
    :func:`distinct_pairs`, then :func:`pack_sorted`."""
    return pack_sorted(*distinct_pairs(qid, lid, span), num_queries)
