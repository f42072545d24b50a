"""Segmented scan tests: the Figure 8 worked example, engine agreement,
exclusive/inclusive and direction semantics, and a per-segment reference
oracle under hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import Machine, Segments, down_scan, seg_scan, up_scan
from repro.machine.scans import SCAN_OPS, scan_identity, seg_scan_columns

FIG8_DATA = np.array([3, 1, 2, 1, 0, 1, 2, 2, 1, 0, 3, 3])
FIG8_FLAGS = np.array([1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0])


class TestFigure8:
    """The paper's worked segmented-scan example, value for value."""

    def setup_method(self):
        self.seg = Segments.from_flags(FIG8_FLAGS)

    def test_up_inclusive(self):
        got = up_scan(FIG8_DATA, self.seg, "+", "in")
        assert list(got) == [3, 4, 6, 1, 1, 2, 4, 2, 3, 0, 3, 6]

    def test_up_exclusive(self):
        got = up_scan(FIG8_DATA, self.seg, "+", "ex")
        assert list(got) == [0, 3, 4, 0, 1, 1, 2, 0, 2, 0, 0, 3]

    def test_down_inclusive(self):
        got = down_scan(FIG8_DATA, self.seg, "+", "in")
        assert list(got) == [6, 3, 2, 4, 3, 3, 2, 3, 1, 6, 6, 3]

    def test_down_exclusive(self):
        got = down_scan(FIG8_DATA, self.seg, "+", "ex")
        assert list(got) == [3, 2, 0, 3, 3, 2, 0, 1, 0, 6, 3, 0]


def _reference_scan(data, seg, op, direction, inclusive):
    """Per-segment pure-Python oracle."""
    import math
    fns = {"+": lambda a, b: a + b, "max": max, "min": min,
           "or": lambda a, b: a or b, "and": lambda a, b: a and b}
    out = np.empty(len(data), dtype=object)
    for sl in seg.slices():
        chunk = list(data[sl])
        if direction == "down":
            chunk = chunk[::-1]
        acc = []
        if op == "copy":
            acc = [chunk[0]] * len(chunk)
        else:
            ident = scan_identity(op, np.asarray(data).dtype if op not in ("or", "and") else np.dtype(bool))
            run = ident
            for v in chunk:
                run = fns[op](run, v)
                acc.append(run)
            if not inclusive:
                acc = [ident] + acc[:-1]
        if direction == "down":
            acc = acc[::-1]
        out[sl] = acc
    return out.tolist()


int_vectors = st.lists(st.integers(-50, 50), min_size=1, max_size=40)


@st.composite
def segmented_vector(draw):
    data = draw(int_vectors)
    flags = [True] + [draw(st.booleans()) for _ in range(len(data) - 1)]
    return np.array(data), Segments.from_flags(np.array(flags))


@settings(max_examples=120, deadline=None)
@given(segmented_vector(),
       st.sampled_from(["+", "max", "min", "or", "and"]),
       st.sampled_from(["up", "down"]),
       st.booleans())
def test_fast_matches_reference(case, op, direction, inclusive):
    data, seg = case
    use = data if op not in ("or", "and") else data > 0
    got = seg_scan(use, seg, op, direction, inclusive, engine="fast")
    want = _reference_scan(np.asarray(use), seg, op, direction, inclusive)
    assert [bool(x) if op in ("or", "and") else int(x) for x in got] == \
           [bool(x) if op in ("or", "and") else int(x) for x in want]


@settings(max_examples=80, deadline=None)
@given(segmented_vector(),
       st.sampled_from(["+", "max", "min", "copy"]),
       st.sampled_from(["up", "down"]))
def test_engines_agree(case, op, direction):
    data, seg = case
    a = seg_scan(data, seg, op, direction, True, engine="fast")
    b = seg_scan(data, seg, op, direction, True, engine="hillis_steele")
    assert np.array_equal(a, b)


class TestSemantics:
    def test_copy_scan_broadcasts_head(self):
        seg = Segments.from_lengths([3, 2])
        got = seg_scan([7, 1, 2, 9, 4], seg, "copy", "up", True)
        assert list(got) == [7, 7, 7, 9, 9]

    def test_down_copy_broadcasts_tail(self):
        seg = Segments.from_lengths([3, 2])
        got = seg_scan([7, 1, 2, 9, 4], seg, "copy", "down", True)
        assert list(got) == [2, 2, 2, 4, 4]

    def test_exclusive_heads_get_identity(self):
        seg = Segments.from_lengths([2, 2])
        got = seg_scan([5, 5, 5, 5], seg, "max", "up", False)
        assert got[0] == np.iinfo(got.dtype).min
        assert got[2] == np.iinfo(got.dtype).min

    def test_float_min_down_exclusive(self):
        # R-tree suffix boxes: last element must be +inf (empty suffix)
        seg = Segments.from_lengths([3])
        got = seg_scan(np.array([3.0, 1.0, 2.0]), seg, "min", "down", False)
        assert got[2] == np.inf
        assert list(got[:2]) == [1.0, 2.0]

    def test_unsegmented_default(self):
        got = seg_scan([1, 2, 3])
        assert list(got) == [1, 3, 6]

    def test_bool_sum_promotes(self):
        got = seg_scan(np.array([True, True, False, True]))
        assert list(got) == [1, 2, 2, 3]

    def test_empty_vector(self):
        got = seg_scan(np.zeros(0, dtype=np.int64), Segments.single(0))
        assert got.size == 0

    def test_band_overflow_falls_back_exactly(self):
        # huge value range forces the doubling engine for integer min/max
        data = np.array([2**61, -2**61, 5, 2**60])
        seg = Segments.from_lengths([2, 2])
        got = seg_scan(data, seg, "max", "up", True)
        assert list(got) == [2**61, 2**61, 5, 2**60]


class TestErrors:
    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown scan operator"):
            seg_scan([1], op="xor")

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            seg_scan([1], direction="sideways")

    def test_exclusive_copy_undefined(self):
        with pytest.raises(ValueError, match="exclusive copy"):
            seg_scan([1], op="copy", inclusive=False)

    def test_descriptor_length_mismatch(self):
        with pytest.raises(ValueError, match="covers"):
            seg_scan([1, 2, 3], Segments.single(2))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            seg_scan(np.zeros((2, 2)))


def test_scan_records_one_primitive():
    m = Machine()
    seg_scan([1, 2, 3], machine=m)
    assert m.counts == {"scan": 1}
    assert m.steps == 1.0


# -- column-wise scans: k vectors, one pass, k recorded scans ------------------

@pytest.mark.parametrize("engine", ["fast", "hillis_steele"])
@pytest.mark.parametrize("direction", ["up", "down"])
@pytest.mark.parametrize("inclusive", [True, False])
@pytest.mark.parametrize("kind", ["int", "float", "bool"])
@pytest.mark.parametrize("op", SCAN_OPS)
def test_columns_equal_one_scan_per_column(op, kind, inclusive, direction, engine):
    if not inclusive and (op == "copy" or (op in ("min", "max") and kind == "bool")):
        pytest.skip("no identity: the exclusive scan is undefined")
    rng = np.random.default_rng(17)
    seg = Segments.from_lengths([5, 1, 1, 9, 2])
    data = {"int": rng.integers(-30, 30, (seg.n, 3)),
            "float": rng.integers(-99, 99, (seg.n, 3)) / 4.0,
            "bool": rng.random((seg.n, 3)) < 0.4}[kind]
    m = Machine()
    got = seg_scan_columns(data, seg, op, direction, inclusive, machine=m, engine=engine)
    assert m.counts == {"scan": 3}
    assert got.shape == data.shape
    for c in range(3):
        want = seg_scan(data[:, c], seg, op, direction, inclusive, engine=engine)
        assert got[:, c].dtype == want.dtype
        assert np.array_equal(got[:, c], want)


def test_columns_reject_vectors_and_mismatched_descriptors():
    with pytest.raises(ValueError, match=r"shape \(n, k\)"):
        seg_scan_columns(np.zeros(4))
    with pytest.raises(ValueError, match="covers"):
        seg_scan_columns(np.zeros((3, 2)), Segments.single(2))
    assert seg_scan_columns(np.zeros((0, 4))).shape == (0, 4)


def test_doubling_network_stops_at_the_longest_segment():
    """Float min/max take the log-step engine; many short segments are cheap
    and still exact (a head never sees its left neighbour)."""
    seg = Segments.from_lengths([2] * 500)
    data = np.random.default_rng(3).random(seg.n)
    got = seg_scan(data, seg, "min", "up", True)
    assert np.array_equal(got[0::2], data[0::2])
    assert np.array_equal(got[1::2], np.minimum(data[0::2], data[1::2]))
