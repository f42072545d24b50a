"""Sequential baselines and oracles the parallel builds are checked against."""

from .brute import (brute_bbox_query, brute_nearest, brute_point_query,
                    brute_window_query)
from .seq_pm1 import pm1_node_must_split, seq_pm1_decomposition
from .seq_pmr import PMRQuadtree, seq_bucket_pmr_decomposition
from .seq_rtree import SeqRTree

__all__ = [
    "seq_pm1_decomposition",
    "pm1_node_must_split",
    "PMRQuadtree",
    "seq_bucket_pmr_decomposition",
    "SeqRTree",
    "brute_window_query",
    "brute_point_query",
    "brute_bbox_query",
    "brute_nearest",
]
