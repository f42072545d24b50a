"""Segmented broadcast / reduce idiom tests (paper Section 4.7, [Hung89])."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machine import (
    SCAN_OPS,
    Machine,
    Segments,
    gather,
    seg_broadcast,
    seg_count,
    seg_first,
    seg_last,
    seg_reduce,
    seg_scan,
)


def test_broadcast_spreads_values():
    seg = Segments.from_lengths([2, 3, 1])
    got = seg_broadcast(np.array([7, 9, 4]), seg)
    assert list(got) == [7, 7, 9, 9, 9, 4]


def test_broadcast_requires_one_value_per_segment():
    with pytest.raises(ValueError, match="one value per segment"):
        seg_broadcast(np.array([1, 2]), Segments.from_lengths([3]))


@pytest.mark.parametrize("op,want", [
    ("+", [6, 4]),
    ("max", [3, 4]),
    ("min", [1, 0]),
])
def test_reduce_ops(op, want):
    seg = Segments.from_lengths([3, 2])
    got = seg_reduce(np.array([1, 2, 3, 4, 0]), seg, op)
    assert list(got) == want


def test_count_equals_lengths():
    seg = Segments.from_lengths([4, 1, 2])
    assert list(seg_count(seg)) == [4, 1, 2]


def test_first_and_last():
    seg = Segments.from_lengths([2, 3])
    data = np.array([5, 6, 7, 8, 9])
    assert list(seg_first(data, seg)) == [5, 7]
    assert list(seg_last(data, seg)) == [6, 9]


@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.data())
def test_reduce_matches_per_segment_sum(lengths, data):
    seg = Segments.from_lengths(lengths)
    xs = np.array([data.draw(st.integers(-20, 20)) for _ in range(seg.n)])
    got = seg_reduce(xs, seg, "+")
    want = [int(xs[sl].sum()) for sl in seg.slices()]
    assert list(got) == want


@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.data())
def test_broadcast_then_first_roundtrips(lengths, data):
    seg = Segments.from_lengths(lengths)
    vals = np.array([data.draw(st.integers(-9, 9)) for _ in range(seg.nseg)])
    assert np.array_equal(seg_first(seg_broadcast(vals, seg), seg), vals)


def test_reduce_is_figure19_pattern():
    """Node capacity check: down-inclusive scan then head read."""
    m = Machine()
    seg = Segments.from_lengths([3, 2])
    seg_reduce(np.ones(5, dtype=np.int64), seg, "+", machine=m)
    assert m.counts["scan"] == 1
    assert m.counts["permute"] == 1  # the head gather


# -- seg_reduce == gather(seg_scan(down, inclusive), heads) -------------------
#
# The host reads the reductions off a ``reduceat``; on the machine they are
# the head values of a downward inclusive scan.  Every operator, every input
# dtype, every segment shape -- against both scan engines.

SHAPES = {
    "single": [7],
    "many": [3, 1, 4, 2, 6],
    "length_one": [1, 1, 1, 1],
    "empty": [],
}


def _vector(kind, n, rng):
    if kind == "int":
        return rng.integers(-50, 50, n)
    if kind == "bool":
        return rng.random(n) < 0.5
    return rng.integers(-400, 400, n) / 8.0      # dyadic: float sums are exact


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", ["int", "float", "bool"])
@pytest.mark.parametrize("op", SCAN_OPS)
def test_reduce_equals_head_of_downward_scan(op, kind, shape):
    seg = Segments.from_lengths(SHAPES[shape])
    data = _vector(kind, seg.n, np.random.default_rng([len(op), seg.n]))
    m = Machine()
    got = seg_reduce(data, seg, op, machine=m)
    assert m.counts == {"scan": 1, "permute": 1}
    for engine in ("fast", "hillis_steele"):
        want = gather(seg_scan(data, seg, op, "down", True, engine=engine), seg.heads)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_reduce_columns_are_k_reductions_in_one_pass():
    seg = Segments.from_lengths([3, 1, 4])
    data = np.random.default_rng(5).random((8, 4))
    m = Machine()
    got = seg_reduce(data, seg, "min", machine=m)
    assert m.counts == {"scan": 4, "permute": 4}
    for c in range(4):
        assert np.array_equal(got[:, c], seg_reduce(data[:, c], seg, "min"))


def test_broadcast_columns_are_k_broadcasts_in_one_pass():
    seg = Segments.from_lengths([2, 3])
    boxes = np.array([[0.0, 0.0, 4.0, 4.0], [4.0, 0.0, 8.0, 4.0]])
    m = Machine()
    got = seg_broadcast(boxes, seg, machine=m)
    assert m.counts == {"scan": 4, "permute": 4}
    assert np.array_equal(got, boxes[seg.ids])


def test_reduce_rejects_bad_input():
    seg = Segments.from_lengths([2, 1])
    with pytest.raises(ValueError, match="unknown scan operator"):
        seg_reduce(np.arange(3), seg, "xor")
    with pytest.raises(ValueError, match="covers 3 slots"):
        seg_reduce(np.arange(4), seg)


def test_reduce_float_sum_differs_from_the_scan_only_by_rounding():
    """A float sum is the one reduction whose value depends on the order of
    additions; ``reduceat`` and the scan's cumulative sums agree to n * eps."""
    seg = Segments.from_lengths([50, 1, 200])
    data = np.random.default_rng(1).random(seg.n)
    want = gather(seg_scan(data, seg, "+", "down", True), seg.heads)
    np.testing.assert_allclose(seg_reduce(data, seg, "+"), want,
                               rtol=seg.n * np.finfo(float).eps)
