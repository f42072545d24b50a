"""Rectangle algebra tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    EMPTY_RECT,
    area,
    contains_point,
    contains_point_halfopen,
    contains_rect,
    empty_rects,
    enlargement,
    intersection,
    intersection_area,
    is_empty,
    make_rects,
    overlaps,
    perimeter,
    rects_from_segments,
    union,
    union_area_pairwise,
    validate_rects,
)

coord = st.integers(-50, 50)


@st.composite
def rect_pair(draw):
    def one():
        x0, x1 = sorted((draw(coord), draw(coord)))
        y0, y1 = sorted((draw(coord), draw(coord)))
        return [x0, y0, x1, y1]
    return np.array([one()]), np.array([one()])


class TestBasics:
    def test_make_rects_stacks(self):
        r = make_rects([0, 1], [0, 1], [2, 3], [2, 3])
        assert r.shape == (2, 4)

    def test_area_and_perimeter(self):
        r = np.array([[0, 0, 3, 2]], float)
        assert area(r)[0] == 6
        assert perimeter(r)[0] == 10

    def test_degenerate_rect_zero_area(self):
        r = np.array([[1, 1, 1, 5]], float)
        assert area(r)[0] == 0
        assert perimeter(r)[0] == 8

    def test_empty_rect_is_identity_for_union(self):
        r = np.array([[1, 2, 3, 4]], float)
        assert np.array_equal(union(r, empty_rects(1)), r)
        assert area(empty_rects(3)).sum() == 0
        assert perimeter(empty_rects(1))[0] == 0

    def test_validate_accepts_empty_encoding(self):
        validate_rects(EMPTY_RECT[None, :])

    def test_validate_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            validate_rects(np.zeros((2, 3)))

    def test_validate_accepts_every_four_column_row(self):
        # min > max on an axis *is* the empty encoding, so no row of the
        # right shape is malformed: shape is all there is to check
        rows = np.array([[0, 0, 1, 1], [5, 0, 1, 9], [0, 7, 3, 2],
                         [np.inf, np.inf, -np.inf, -np.inf],
                         [np.nan, 0, 1, 1]], float)
        out = validate_rects(rows)
        assert out is rows                      # no copy, no per-row pass
        assert validate_rects([1, 2, 3, 4]).shape == (1, 4)
        assert validate_rects(np.zeros((0, 4))).shape == (0, 4)
        for bad in (np.zeros(3), np.zeros((2, 5)), np.zeros((2, 2, 4))):
            with pytest.raises(ValueError):
                validate_rects(bad)


class TestSetOperations:
    def test_union_encloses_both(self):
        a = np.array([[0, 0, 1, 1]], float)
        b = np.array([[2, 2, 3, 3]], float)
        assert list(union(a, b)[0]) == [0, 0, 3, 3]

    def test_intersection_of_disjoint_is_empty(self):
        a = np.array([[0, 0, 1, 1]], float)
        b = np.array([[2, 2, 3, 3]], float)
        assert is_empty(intersection(a, b))[0]
        assert intersection_area(a, b)[0] == 0

    def test_intersection_area_overlapping(self):
        a = np.array([[0, 0, 4, 4]], float)
        b = np.array([[2, 2, 6, 6]], float)
        assert intersection_area(a, b)[0] == 4

    def test_boundary_touch_counts_as_overlap(self):
        a = np.array([[0, 0, 2, 2]], float)
        b = np.array([[2, 0, 4, 2]], float)
        assert overlaps(a, b)[0]
        assert intersection_area(a, b)[0] == 0

    def test_empty_never_overlaps(self):
        a = np.array([[0, 0, 2, 2]], float)
        assert not overlaps(a, empty_rects(1))[0]

    @given(rect_pair())
    def test_union_contains_both_inputs(self, pair):
        a, b = pair
        u = union(a, b)
        assert contains_rect(u, a)[0] and contains_rect(u, b)[0]

    @given(rect_pair())
    def test_intersection_contained_in_both(self, pair):
        a, b = pair
        i = intersection(a, b)
        assert contains_rect(a, i)[0] and contains_rect(b, i)[0]

    @given(rect_pair())
    def test_inclusion_exclusion_bound(self, pair):
        a, b = pair
        assert union_area_pairwise(a, b)[0] >= area(a)[0] + area(b)[0] - intersection_area(a, b)[0] - 1e-9


class TestContainment:
    def test_closed_membership_includes_border(self):
        r = np.array([[0, 0, 2, 2]], float)
        assert contains_point(r, 2, 2)[0]
        assert contains_point(r, 0, 1)[0]
        assert not contains_point(r, 2.5, 1)[0]

    def test_halfopen_excludes_top_right(self):
        r = np.array([[0, 0, 2, 2]], float)
        assert contains_point_halfopen(r, 0, 0)[0]
        assert not contains_point_halfopen(r, 2, 1)[0]
        assert not contains_point_halfopen(r, 1, 2)[0]

    def test_halfopen_domain_boundary_closed(self):
        r = np.array([[4, 4, 8, 8]], float)
        assert contains_point_halfopen(r, 8, 8, domain=8)[0]
        assert contains_point_halfopen(r, 8, 5, domain=8)[0]
        assert not contains_point_halfopen(r, 8, 8, domain=16)[0]

    def test_halfopen_partitions_quadrants(self):
        quads = np.array([[0, 0, 4, 4], [4, 0, 8, 4], [0, 4, 4, 8], [4, 4, 8, 8]], float)
        for px, py in [(0, 0), (4, 4), (3.5, 4), (4, 0), (8, 8), (8, 0), (0, 8)]:
            hits = contains_point_halfopen(quads, px, py, domain=8)
            assert hits.sum() == 1, (px, py, hits)


class TestEnlargement:
    def test_no_growth_when_contained(self):
        node = np.array([[0, 0, 10, 10]], float)
        entry = np.array([[2, 2, 3, 3]], float)
        assert enlargement(node, entry)[0] == 0

    def test_growth_measured(self):
        node = np.array([[0, 0, 2, 2]], float)
        entry = np.array([[3, 0, 4, 2]], float)
        assert enlargement(node, entry)[0] == 8 - 4


def test_rects_from_segments_orders_corners():
    segs = np.array([[5, 7, 1, 2]], float)
    assert list(rects_from_segments(segs)[0]) == [1, 2, 5, 7]
