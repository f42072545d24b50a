"""repro -- Data-Parallel Primitives for Spatial Operations.

A scan-model reproduction of Hoel & Samet, *Data-Parallel Primitives
for Spatial Operations* (ICPP 1995): the segmented-scan virtual vector
machine, the Section 4 spatial primitives (cloning, unshuffling,
duplicate deletion, capacity checks, node-split selection), and the
Section 5 data-parallel builds of the PM1 quadtree, bucket PMR
quadtree, and R-tree, with sequential baselines and query support.

Quick start::

    import numpy as np
    from repro import build_bucket_pmr, random_segments

    lines = random_segments(10_000, domain=4096, seed=0)
    tree, trace = build_bucket_pmr(lines, domain=4096, capacity=8)
    hits = tree.window_query([100, 100, 400, 300])

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .analysis import (
    average_query_visits,
    fit_growth,
    format_table,
    measure_build,
    print_table,
    quadtree_stats,
    rtree_stats,
)
from .baselines import (
    PMRQuadtree,
    SeqRTree,
    brute_point_query,
    brute_window_query,
    pm1_node_must_split,
    seq_bucket_pmr_decomposition,
    seq_pm1_decomposition,
)
from .engine import EngineConfig, SpatialQueryEngine
from .store import IndexStore
from .geometry import (
    clustered_map,
    paper_dataset,
    paper_labels,
    pathological_pair,
    random_segments,
    road_map,
    star_map,
)
from .machine import (
    Machine,
    Segments,
    down_scan,
    ew,
    get_machine,
    permute,
    reset_machine,
    seg_scan,
    up_scan,
    use_machine,
)
from .primitives import (
    clone,
    delete_duplicates,
    mark_duplicates,
    mean_split,
    node_counts,
    pm1_should_split,
    split_quad_nodes,
    sweep_split,
    unshuffle,
)
from .structures import (
    BucketPMRQuadtree,
    batch_nearest_quadtree,
    batch_nearest_rtree,
    batch_point_query_quadtree,
    batch_point_query_rtree,
    batch_window_query_quadtree,
    batch_window_query_rtree,
    BuildTrace,
    KDTree,
    LinearQuadtree,
    PM1Quadtree,
    Quadtree,
    RTree,
    brute_join,
    brute_nearest,
    build_bucket_pmr,
    build_kdtree,
    build_pm1,
    build_pr_quadtree,
    build_region_quadtree,
    build_rtree,
    delete_lines,
    index_join,
    insert_lines,
    load_structure,
    overlay_points,
    pm1_delete_lines,
    quadtree_nearest,
    rtree_nearest,
    save_structure,
    to_linear,
)

__version__ = "1.11.0"

__all__ = [
    # machine
    "Machine", "Segments", "seg_scan", "up_scan", "down_scan", "ew",
    "permute", "get_machine", "use_machine", "reset_machine",
    # primitives
    "clone", "unshuffle", "mark_duplicates", "delete_duplicates",
    "node_counts", "pm1_should_split", "split_quad_nodes",
    "mean_split", "sweep_split",
    # structures
    "Quadtree", "PM1Quadtree", "BucketPMRQuadtree", "RTree", "BuildTrace",
    "build_pm1", "build_bucket_pmr", "build_rtree",
    "index_join", "brute_join", "overlay_points",
    "LinearQuadtree", "to_linear",
    "delete_lines", "insert_lines", "pm1_delete_lines",
    "save_structure", "load_structure",
    "brute_nearest", "quadtree_nearest", "rtree_nearest",
    "build_kdtree", "KDTree", "build_pr_quadtree", "build_region_quadtree",
    "batch_window_query_quadtree", "batch_window_query_rtree",
    "batch_point_query_quadtree", "batch_point_query_rtree",
    "batch_nearest_quadtree", "batch_nearest_rtree",
    # engine / store
    "SpatialQueryEngine", "EngineConfig", "IndexStore",
    # baselines
    "seq_pm1_decomposition", "pm1_node_must_split", "PMRQuadtree",
    "seq_bucket_pmr_decomposition", "SeqRTree",
    "brute_window_query", "brute_point_query",
    # geometry / data
    "paper_dataset", "paper_labels", "pathological_pair",
    "random_segments", "road_map", "clustered_map", "star_map",
    # analysis
    "measure_build", "fit_growth", "quadtree_stats", "rtree_stats",
    "average_query_visits", "format_table", "print_table",
    "__version__",
]
