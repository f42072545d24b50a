"""Segment-descriptor representation tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machine import Segments

lengths_strategy = st.lists(st.integers(1, 9), min_size=0, max_size=12)


class TestConstructors:
    def test_single_spans_vector(self):
        s = Segments.single(5)
        assert s.n == 5
        assert s.nseg == 1
        assert list(s.lengths) == [5]

    def test_single_empty_vector(self):
        s = Segments.single(0)
        assert s.n == 0
        assert s.nseg == 0

    def test_from_flags_paper_example(self):
        # Figure 8's segment flag vector: segments of size 3, 4, 2, 3
        s = Segments.from_flags([1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0])
        assert list(s.lengths) == [3, 4, 2, 3]
        assert list(s.heads) == [0, 3, 7, 9]

    def test_from_lengths_roundtrip(self):
        s = Segments.from_lengths([2, 1, 4])
        assert list(s.flags.astype(int)) == [1, 0, 1, 1, 0, 0, 0]

    def test_from_ids(self):
        s = Segments.from_ids([0, 0, 1, 1, 1, 2])
        assert list(s.lengths) == [2, 3, 1]

    def test_from_ids_requires_nondecreasing(self):
        with pytest.raises(ValueError):
            Segments.from_ids([0, 1, 0])

    def test_first_flag_must_be_set(self):
        with pytest.raises(ValueError):
            Segments.from_heads(4, [1, 2])

    def test_zero_lengths_rejected(self):
        with pytest.raises(ValueError):
            Segments.from_lengths([2, 0, 1])

    def test_head_beyond_end_rejected(self):
        with pytest.raises(ValueError):
            Segments.from_heads(3, [0, 5])


class TestViews:
    def test_ids_match_flags(self):
        s = Segments.from_lengths([3, 1, 2])
        assert list(s.ids) == [0, 0, 0, 1, 2, 2]

    def test_ends_and_tails(self):
        s = Segments.from_lengths([2, 3])
        assert list(s.ends) == [2, 5]
        assert list(s.tails) == [1, 4]

    def test_offsets_within(self):
        s = Segments.from_lengths([2, 3])
        assert list(s.offsets_within()) == [0, 1, 0, 1, 2]

    def test_slices(self):
        s = Segments.from_lengths([1, 2])
        assert [ (sl.start, sl.stop) for sl in s.slices() ] == [(0, 1), (1, 3)]

    def test_equality_and_hash(self):
        a = Segments.from_lengths([2, 2])
        b = Segments.from_flags([1, 0, 1, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Segments.from_lengths([4])


class TestReversed:
    def test_reversed_simple(self):
        s = Segments.from_lengths([1, 3])
        r = s.reversed()
        assert list(r.lengths) == [3, 1]

    def test_reversed_empty(self):
        assert Segments.single(0).reversed().n == 0

    @given(lengths_strategy)
    def test_reversed_is_involution(self, lengths):
        s = Segments.from_lengths(lengths)
        assert s.reversed().reversed() == s

    @given(lengths_strategy)
    def test_reversed_lengths_reverse(self, lengths):
        s = Segments.from_lengths(lengths)
        assert list(s.reversed().lengths) == lengths[::-1]


@given(lengths_strategy)
def test_representation_roundtrips(lengths):
    s = Segments.from_lengths(lengths)
    assert Segments.from_flags(s.flags) == s
    assert Segments.from_ids(s.ids) == s
    assert Segments.from_heads(s.n, s.heads) == s
    assert s.n == sum(lengths)
    assert s.nseg == len(lengths)


class TestCachedViews:
    """The descriptor is immutable, so its derived vectors are computed once
    and handed out read-only."""

    def test_derived_vectors_are_computed_once(self):
        s = Segments.from_flags([1, 0, 1, 0, 0])
        assert s.ids is s.ids
        assert s.ends is s.ends
        assert s.lengths is s.lengths
        assert s.offsets_within() is s.offsets_within()
        assert s.reversed() is s.reversed()

    @pytest.mark.parametrize("view", ["heads", "ends", "ids", "lengths"])
    def test_views_are_read_only(self, view):
        s = Segments.from_lengths([2, 3])
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, view)[0] = 9

    def test_constructors_do_not_freeze_or_alias_the_callers_array(self):
        lengths = np.array([2, 3])
        heads = np.array([0, 2])
        a, b = Segments.from_lengths(lengths), Segments.from_heads(5, heads)
        lengths[0] = 4
        heads[1] = 1
        assert list(a.lengths) == [2, 3] and list(b.heads) == [0, 2]

    def test_single_rejects_negative_length(self):
        with pytest.raises(ValueError):
            Segments.single(-1)

    @given(lengths_strategy)
    def test_trusted_constructors_agree_with_the_validating_one(self, lengths):
        s = Segments.from_lengths(lengths)
        checked = Segments(s.n, s.heads)
        for other in (Segments.from_ids(s.ids), s.reversed().reversed(), s):
            assert other == checked
            assert np.array_equal(other.ids, checked.ids)
            assert np.array_equal(other.lengths, checked.lengths)
            assert np.array_equal(other.ends, checked.ends)
