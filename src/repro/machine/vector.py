"""Segment descriptors for the virtual vector machine.

In the scan model, a *segmented* vector is a data vector accompanied by a
segment-flag vector: a 1 marks the first processor of each segment
(paper, Section 3.2.1 and Figure 8).  Segments partition the linear
processor ordering into contiguous groups; in the spatial algorithms each
group holds the line processors associated with one tree node.

:class:`Segments` is an immutable descriptor that stores the partition
once and converts freely between the representations the primitives
need:

``flags``   boolean head-flag vector (the paper's ``sf``),
``heads``   indices of segment starts,
``ids``     per-element segment index (non-decreasing),
``lengths`` per-segment element counts (all positive).

The derived vectors (``ids``, ``ends``, ``lengths``, the
:meth:`~Segments.reversed` descriptor) are computed once per descriptor
and handed out read-only; copy before writing.

Empty segments cannot be represented by flags alone (two adjacent 1s
encode two length-1 segments, not an empty one); the tree builders
therefore track empty nodes in their node tables, never in the segment
descriptor, matching the paper's layout where every segment group shown
contains at least one line processor.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["Segments"]


class Segments:
    """Immutable partition of ``n`` vector slots into contiguous segments.

    Construct via :meth:`from_flags`, :meth:`from_heads`,
    :meth:`from_lengths`, or :meth:`from_ids`.  The zero-length vector is
    represented by zero segments.
    """

    __slots__ = ("_n", "_heads", "_cache")

    def __init__(self, n: int, heads: np.ndarray):
        n = int(n)
        heads = np.array(heads, dtype=np.int64)     # private copy: frozen below
        if n < 0:
            raise ValueError("vector length must be non-negative")
        if n == 0:
            if heads.size:
                raise ValueError("zero-length vector cannot have segments")
        else:
            if heads.size == 0:
                raise ValueError("non-empty vector must have at least one segment")
            if heads[0] != 0:
                raise ValueError("first segment must start at index 0")
            if np.any(np.diff(heads) <= 0):
                raise ValueError("segment heads must be strictly increasing")
            if heads[-1] >= n:
                raise ValueError("segment head beyond vector end")
        heads.setflags(write=False)
        self._n = n
        self._heads = heads
        self._cache = {}

    @classmethod
    def _trusted(cls, n: int, heads: np.ndarray, **derived: np.ndarray) -> "Segments":
        """Internal constructor: ``heads`` valid by construction, no re-check.

        ``heads`` and the ``derived`` vectors the caller already holds
        (``lengths=``) must be fresh int64 arrays; they are frozen here.
        """
        self = object.__new__(cls)
        self._n = n
        self._heads = heads
        self._cache = derived
        for v in (heads, *derived.values()):
            v.setflags(write=False)
        return self

    def _cached(self, name: str, compute):
        """Derived value ``name``, computed once: the descriptor is immutable."""
        try:
            return self._cache[name]
        except KeyError:
            value = self._cache[name] = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            return value

    # -- constructors ----------------------------------------------------

    @classmethod
    def single(cls, n: int) -> "Segments":
        """One segment spanning the whole vector (or none if ``n == 0``)."""
        n = int(n)
        if n < 0:
            raise ValueError("vector length must be non-negative")
        return cls._trusted(n, np.zeros(1 if n else 0, dtype=np.int64))

    @classmethod
    def from_flags(cls, flags: Sequence[int] | np.ndarray) -> "Segments":
        """Build from the paper's segment-flag vector (1 = segment head)."""
        flags = np.asarray(flags)
        if flags.ndim != 1:
            raise ValueError("flags must be one-dimensional")
        heads = np.flatnonzero(flags.astype(bool))
        return cls(flags.size, heads)

    @classmethod
    def from_heads(cls, n: int, heads: Sequence[int] | np.ndarray) -> "Segments":
        return cls(n, np.asarray(heads, dtype=np.int64))

    @classmethod
    def from_lengths(cls, lengths: Sequence[int] | np.ndarray) -> "Segments":
        """Build from per-segment lengths (every length must be > 0)."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size and np.any(lengths <= 0):
            raise ValueError("segment lengths must be positive")
        heads = np.zeros(lengths.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=heads[1:])
        return cls._trusted(int(lengths.sum()), heads, lengths=lengths.copy())

    @classmethod
    def from_ids(cls, ids: Sequence[int] | np.ndarray) -> "Segments":
        """Build from a non-decreasing per-element segment-id vector."""
        ids = np.asarray(ids)
        if ids.ndim != 1:
            raise ValueError("ids must be one-dimensional")
        if ids.size == 0:
            return cls(0, np.zeros(0, np.int64))
        if np.any(np.diff(ids) < 0):
            raise ValueError("segment ids must be non-decreasing")
        flags = np.ones(ids.size, dtype=bool)
        flags[1:] = ids[1:] != ids[:-1]
        return cls._trusted(ids.size, np.flatnonzero(flags))

    # -- representations -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vector slots."""
        return self._n

    @property
    def nseg(self) -> int:
        """Number of segments."""
        return int(self._heads.size)

    @property
    def heads(self) -> np.ndarray:
        """Start index of each segment, shape ``(nseg,)``."""
        return self._heads

    @property
    def ends(self) -> np.ndarray:
        """One past the last index of each segment, shape ``(nseg,)``."""
        return self._cached("ends", lambda: np.append(self._heads[1:], self._n)
                            if self.nseg else np.zeros(0, np.int64))

    @property
    def tails(self) -> np.ndarray:
        """Index of the last element of each segment, shape ``(nseg,)``."""
        return self.ends - 1

    @property
    def flags(self) -> np.ndarray:
        """Boolean head-flag vector, shape ``(n,)`` (the paper's ``sf``)."""
        f = np.zeros(self._n, dtype=bool)
        f[self._heads] = True
        return f

    @property
    def ids(self) -> np.ndarray:
        """Per-element segment index, shape ``(n,)``, non-decreasing."""
        return self._cached("ids", lambda: np.repeat(
            np.arange(self.nseg, dtype=np.int64), self.lengths))

    @property
    def lengths(self) -> np.ndarray:
        """Per-segment element count, shape ``(nseg,)``, all positive."""
        return self._cached("lengths", lambda: self.ends - self._heads)

    # -- derived descriptors ----------------------------------------------

    def reversed(self) -> "Segments":
        """Descriptor of the element-reversed vector.

        Used to implement downward scans as upward scans on the reversed
        vector: segment ``k`` of the reversal is segment ``nseg-1-k`` of
        the original, reversed in place.
        """
        return self._cached("reversed", lambda: Segments._trusted(
            self._n, (self._n - self.ends)[::-1].copy(), lengths=self.lengths[::-1].copy()))

    def offsets_within(self) -> np.ndarray:
        """Per-element offset from its segment head, shape ``(n,)``."""
        return self._cached("offsets", lambda: np.arange(self._n, dtype=np.int64)
                            - self._heads[self.ids])

    def slices(self) -> Iterator[slice]:
        """Iterate per-segment slices (reference/verification paths only)."""
        for h, e in zip(self._heads, self.ends):
            yield slice(int(h), int(e))

    # -- dunder -----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Segments):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._heads, other._heads)

    def __hash__(self) -> int:
        return hash((self._n, self._heads.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Segments(n={self._n}, lengths={self.lengths.tolist()})"
