"""The array-native build gives the very trees the per-node build gave.

Every :class:`~repro.structures.Quadtree` field is compared array-equal
(values *and* dtype) against ``reference_build``, the node-at-a-time
table and driver the scan-allocated :class:`NodeTable` replaced: node
numbering, boxes, levels, parent/children links and the CSR line
assignment may not move, because fingerprints, saved indexes and the
differential suites all stand on them.
"""

import dataclasses

import numpy as np
import pytest

from repro.geometry import clustered_map, random_segments
from repro.machine.broadcast import seg_broadcast
from repro.primitives.capacity import overflowing_nodes
from repro.primitives.pm1_split import pm1_should_split
from repro.structures import build_bucket_pmr, build_pm1, child_box, child_boxes

from .reference_build import reference_build_quadtree, reference_child_box


def pmr_rule(capacity):
    return lambda segs, seg, boxes, levels, m: overflowing_nodes(seg, capacity, machine=m)


def pm1_rule(domain):
    def rule(segs, seg, boxes, levels, m):
        line_boxes = seg_broadcast(boxes, seg, machine=m)
        return pm1_should_split(segs, line_boxes, seg, domain=float(domain),
                                machine=m).must_split
    return rule


def collinear(n=40, domain=256):
    """A horizontal chain on one grid line: every split axis is touched."""
    x = np.linspace(0, domain, n + 1)
    y = np.full(n, domain / 2)
    return np.column_stack([x[:-1], y, x[1:], y])


def pm1_sparse(seed=5):
    return np.unique(random_segments(150, domain=4096, max_len=64, seed=seed), axis=0)


PMR_CASES = {
    "uniform": (random_segments(600, domain=1024, max_len=48, seed=3), 1024, 4, None),
    "clustered": (clustered_map(600, clusters=5, spread=40, domain=1024, seed=4),
                  1024, 4, None),
    "collinear": (collinear(), 256, 2, None),
    "depth_capped": (random_segments(400, domain=256, max_len=32, seed=6), 256, 1, 3),
    "single_line": (np.array([[1.0, 1.0, 5.0, 7.0]]), 8, 1, None),
    "empty": (np.zeros((0, 4)), 8, 1, None),
}


def assert_same_tree(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("case", sorted(PMR_CASES))
def test_bucket_pmr_matches_per_node_reference(case):
    lines, domain, capacity, max_depth = PMR_CASES[case]
    tree, _ = build_bucket_pmr(lines, domain, capacity, max_depth=max_depth)
    want = reference_build_quadtree(lines, domain, pmr_rule(capacity), max_depth)
    assert_same_tree(tree, want)
    tree.check(full=True)
    if max_depth is not None:
        assert tree.height == max_depth     # the cap was actually reached


@pytest.mark.parametrize("lines,domain", [
    (pm1_sparse(), 4096),
    (collinear(12, 64), 64),
], ids=["sparse", "collinear"])
def test_pm1_matches_per_node_reference(lines, domain):
    tree, _ = build_pm1(lines, domain)
    assert_same_tree(tree, reference_build_quadtree(lines, domain, pm1_rule(domain)))
    tree.check(full=True)


def test_child_boxes_is_the_scalar_rule_vectorised():
    boxes = np.array([[0.0, 0.0, 8.0, 8.0], [3.0, 1.0, 4.0, 2.0], [0.5, 0.25, 0.75, 0.5]])
    kids = child_boxes(boxes)
    assert kids.shape == (3, 4, 4)
    for b, box in enumerate(boxes):
        assert child_boxes(box).shape == (4, 4)
        for code in range(4):
            want = reference_child_box(box, code)
            assert np.array_equal(kids[b, code], want)
            assert np.array_equal(child_box(box, code), want)
