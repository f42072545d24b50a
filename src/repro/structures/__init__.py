"""Spatial data structures built with the data-parallel primitives (Section 5)."""

from .bucket_pmr import BucketPMRQuadtree, build_bucket_pmr, occupancy_bound_ok
from .build import BuildTrace, RoundStats, build_quadtree
from .dynamic import delete_lines, insert_lines, pm1_delete_lines
from .kdtree import KDTree, build_kdtree
from .io import (IntegrityError, inspect_structure, load_structure,
                 payload_checksum, save_structure)
from .join import brute_join, index_join, overlay_points
from .linear import LinearQuadtree, to_linear
from .pm1 import PM1Quadtree, build_pm1
from .pr_quadtree import PRQuadtree, build_pr_quadtree
from .quadblock import CHILD_NAMES, NodeTable, Quadtree, child_box, child_boxes
from .region import RegionQuadtree, build_region_quadtree
from .rtree import RTree, build_rtree
from .sharded import (Shard, ShardedIndex, build_sharded, repair_index,
                      repair_sharded, shard_keys)

__all__ = [
    "Quadtree",
    "NodeTable",
    "child_box",
    "child_boxes",
    "CHILD_NAMES",
    "BuildTrace",
    "RoundStats",
    "build_quadtree",
    "build_pm1",
    "PM1Quadtree",
    "build_bucket_pmr",
    "BucketPMRQuadtree",
    "occupancy_bound_ok",
    "build_rtree",
    "RTree",
    "brute_join",
    "index_join",
    "overlay_points",
    "delete_lines",
    "insert_lines",
    "pm1_delete_lines",
    "LinearQuadtree",
    "to_linear",
    "build_kdtree",
    "KDTree",
    "build_pr_quadtree",
    "PRQuadtree",
    "build_region_quadtree",
    "RegionQuadtree",
    "save_structure",
    "load_structure",
    "inspect_structure",
    "payload_checksum",
    "IntegrityError",
    "Shard",
    "ShardedIndex",
    "build_sharded",
    "repair_index",
    "repair_sharded",
    "shard_keys",
]
