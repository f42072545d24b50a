"""Extension benches: linear quadtree, dynamic updates, nearest-line.

These go beyond the paper's figures but support its Section 3.3 linear-
ordering discussion (the linear quadtree is the SAM-friendly layout) and
the Section 2.2 deletion/merging rule, plus a nearest-line workload on
all structures.
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.baselines import brute_nearest
from repro.structures import build_bucket_pmr, build_rtree, delete_lines, to_linear

from conftest import print_experiment

DOMAIN = 4096


@pytest.fixture(scope="module")
def built(uniform_map):
    quad, _ = build_bucket_pmr(uniform_map, DOMAIN, 8)
    rtree, _ = build_rtree(uniform_map, 2, 8)
    return uniform_map, quad, rtree


def test_linear_conversion(built, benchmark):
    _, quad, _ = built
    lin = benchmark(to_linear, quad)
    lin.check()


def test_report_linear_point_queries(built, benchmark):
    segs, quad, _ = built
    lin = to_linear(quad)
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, DOMAIN, size=(200, 2))
    for px, py in pts[:20]:
        assert set(lin.point_query(px, py).tolist()) == \
            set(quad.point_query(px, py).tolist())
    rows = [["pointered tree", quad.num_nodes, "tree walk"],
            ["linear (Morton) tree", lin.num_leaves, "binary search"]]
    table = format_table(["representation", "records", "point-query method"], rows)
    print_experiment("ext: linear quadtree (Section 3.3 ordering)", table)
    benchmark(lambda: [lin.point_query(px, py) for px, py in pts])


def test_report_deletion_merging(built, benchmark):
    segs, quad, _ = built
    rng = np.random.default_rng(10)
    rows = []
    for frac in (0.25, 0.5, 0.9):
        drop = rng.choice(segs.shape[0], size=int(frac * segs.shape[0]),
                          replace=False)
        new_tree, survivors = delete_lines(quad, drop, 8)
        fresh, _ = build_bucket_pmr(segs[survivors], DOMAIN, 8)
        assert new_tree.decomposition_key() == fresh.decomposition_key()
        rows.append([f"{int(frac * 100)}%", quad.num_nodes, new_tree.num_nodes])
    table = format_table(["deleted", "nodes before", "nodes after merge"], rows)
    print_experiment("ext: Section 2.2 deletion with sibling merging", table)
    drop = rng.choice(segs.shape[0], size=segs.shape[0] // 2, replace=False)
    benchmark(delete_lines, quad, drop, 8)


def test_report_nearest_line(built, benchmark):
    segs, quad, rtree = built
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, DOMAIN, size=(100, 2))
    for px, py in pts[:25]:
        want = brute_nearest(segs, px, py)
        assert quad.nearest(px, py) == want
        assert rtree.nearest(px, py) == want
    rows = [["brute force", segs.shape[0], "per query"],
            ["bucket PMR one-probe wave", "pruned", "square shrunk per round"],
            ["R-tree one-probe wave", "pruned", "square at the cell bound"]]
    table = format_table(["method", "candidates", "pruning"], rows)
    print_experiment("ext: nearest-line queries (all agree with brute force)", table)
    benchmark(lambda: [quad.nearest(px, py) for px, py in pts[:25]])


def test_rtree_nearest_wallclock(built, benchmark):
    segs, _, rtree = built
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, DOMAIN, size=(25, 2))
    benchmark(lambda: [rtree.nearest(px, py) for px, py in pts])


def test_brute_nearest_wallclock(built, benchmark):
    segs, _, _ = built
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, DOMAIN, size=(25, 2))
    benchmark(lambda: [brute_nearest(segs, px, py) for px, py in pts])
