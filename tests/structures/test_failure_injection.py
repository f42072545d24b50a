"""Failure injection: the validators must catch corrupted structures.

``check()`` methods are only trustworthy if they actually fail on bad
trees; each test here corrupts one invariant of a valid structure and
asserts the validator notices.
"""

import dataclasses

import numpy as np
import pytest

from repro.geometry import paper_dataset, random_segments
from repro.structures import build_bucket_pmr, build_rtree, to_linear
from repro.structures.quadblock import NodeTable
from repro.structures.region import build_region_quadtree


@pytest.fixture()
def quadtree():
    tree, _ = build_bucket_pmr(random_segments(60, 128, 24, seed=1), 128, 4)
    return tree


@pytest.fixture()
def rtree():
    tree, _ = build_rtree(random_segments(60, 128, 24, seed=2), 2, 4)
    return tree


class TestQuadtreeValidator:
    def test_valid_tree_passes(self, quadtree):
        quadtree.check(full=True)

    def test_misplaced_line_detected(self, quadtree):
        bad = dataclasses.replace(quadtree, node_lines=quadtree.node_lines.copy())
        leaves = np.flatnonzero(bad.is_leaf & (np.diff(bad.node_ptr) > 0))
        slot = bad.node_ptr[leaves[0]]
        bad.node_lines[slot] = (bad.node_lines[slot] + 1) % bad.lines.shape[0]
        with pytest.raises(AssertionError):
            bad.check(full=True)

    def test_broken_child_box_detected(self, quadtree):
        bad = dataclasses.replace(quadtree, boxes=quadtree.boxes.copy())
        internal = np.flatnonzero(~bad.is_leaf)[0]
        child = bad.children[internal][0]
        bad.boxes[child, 2] += 1.0
        with pytest.raises(AssertionError):
            bad.check()

    def test_broken_parent_pointer_detected(self, quadtree):
        bad = dataclasses.replace(quadtree, parent=quadtree.parent.copy())
        internal = np.flatnonzero(~bad.is_leaf)[0]
        child = bad.children[internal][1]
        bad.parent[child] = 0 if internal != 0 else 1
        with pytest.raises(AssertionError):
            bad.check()

    def test_csr_corruption_detected(self, quadtree):
        bad = dataclasses.replace(quadtree, node_ptr=quadtree.node_ptr.copy())
        bad.node_ptr[-1] += 1
        with pytest.raises(AssertionError):
            bad.check()

    def test_level_beyond_cap_detected(self, quadtree):
        bad = dataclasses.replace(quadtree, level=quadtree.level.copy())
        bad.level[-1] = bad.max_depth + 3
        with pytest.raises(AssertionError):
            bad.check()


class TestRTreeValidator:
    def test_valid_tree_passes(self, rtree):
        rtree.check()

    def test_overfull_leaf_detected(self, rtree):
        bad = dataclasses.replace(rtree, line_leaf=rtree.line_leaf.copy())
        bad.line_leaf[:] = 0  # pile everything into leaf 0
        with pytest.raises(AssertionError):
            bad.check()

    def test_loose_mbr_detected(self, rtree):
        mbrs = [m.copy() for m in rtree.level_mbr]
        mbrs[0][0, 2] += 5.0
        bad = dataclasses.replace(rtree, level_mbr=mbrs)
        with pytest.raises(AssertionError):
            bad.check()

    def test_multi_node_root_level_detected(self, rtree):
        mbrs = [m.copy() for m in rtree.level_mbr]
        mbrs[-1] = np.vstack([mbrs[-1], mbrs[-1]])
        bad = dataclasses.replace(rtree, level_mbr=mbrs)
        with pytest.raises(AssertionError):
            bad.check()


class TestLinearValidator:
    def test_valid_passes(self, quadtree):
        to_linear(quadtree).check()

    def test_unsorted_codes_detected(self, quadtree):
        lin = to_linear(quadtree)
        lin.codes = lin.codes[::-1].copy()
        with pytest.raises(AssertionError):
            lin.check()

    def test_coverage_gap_detected(self, quadtree):
        lin = to_linear(quadtree)
        lin.levels = lin.levels.copy()
        lin.levels[0] += 1  # shrink one block: cells go missing
        with pytest.raises(AssertionError):
            lin.check()


class TestRegionValidator:
    def test_valid_passes(self):
        rng = np.random.default_rng(3)
        t = build_region_quadtree(rng.random((16, 16)) < 0.5)
        t.check()

    def test_pyramid_inconsistency_detected(self):
        rng = np.random.default_rng(4)
        t = build_region_quadtree(rng.random((16, 16)) < 0.5)
        t.levels[0] = np.array([[1]], dtype=np.int8)  # claim "all black"
        if (t.levels[-1] == 1).all():
            pytest.skip("raster happened to be all black")
        with pytest.raises(AssertionError):
            t.check()


class TestNodeTable:
    def test_double_split_rejected(self):
        table = NodeTable(8)
        table.split_many([0])
        with pytest.raises(ValueError, match="node 0 already split"):
            table.split_many([0])

    def test_repeat_within_one_call_rejected(self):
        table = NodeTable(8)
        kids = table.split_many([0])
        with pytest.raises(ValueError, match="node 2 already split"):
            table.split_many([kids[0, 0], 2, 2])
        assert len(table) == 5              # the failed call added nothing

    def test_split_produces_quadrant_boxes(self):
        table = NodeTable(8)
        ids = table.split_many([0])
        assert ids.shape == (1, 4)
        assert np.allclose(table.boxes[ids[0, 0]], [0, 0, 4, 4])
        assert np.allclose(table.boxes[ids[0, 3]], [4, 4, 8, 8])

    def test_children_are_allocated_by_rank(self):
        """ids = len + 4 * rank + code, rank in the order the nodes are given."""
        table = NodeTable(8)
        table.split_many([0])
        ids = table.split_many([3, 1])
        assert ids.tolist() == [[5, 6, 7, 8], [9, 10, 11, 12]]
        assert table.parent[5:].tolist() == [3] * 4 + [1] * 4
        assert table.level[5:].tolist() == [2] * 8
        assert np.allclose(table.boxes[9], [0, 0, 2, 2])     # SW of SW

    def test_splitting_nothing_is_a_no_op(self):
        table = NodeTable(8)
        assert table.split_many(np.zeros(0, dtype=np.int64)).shape == (0, 4)
        assert len(table) == 1

    def test_freeze_shapes(self):
        table = NodeTable(8)
        table.split_many([0])
        boxes, level, parent, children = table.freeze()
        assert boxes.shape == (5, 4)
        assert list(level) == [0, 1, 1, 1, 1]
        assert list(parent) == [-1, 0, 0, 0, 0]
        assert children[0].tolist() == [1, 2, 3, 4]
        assert (children[1:] == -1).all()
