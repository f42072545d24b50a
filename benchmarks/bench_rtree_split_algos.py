"""Experiment C7: R-tree split algorithm 1 vs algorithm 2 (paper Section 4.7).

Claim: the O(1) mean split is cheaper per stage, while the O(log n)
sorted sweep "minimizes the amount of area common to the two resulting
nodes".  We build the same maps with both algorithms and compare build
steps, leaf overlap, and query visit counts.
"""

import numpy as np
import pytest

from repro.analysis import average_query_visits, format_table, rtree_stats
from repro.machine import Machine, use_machine
from repro.extras import build_rtree_str
from repro.structures import build_rtree

from conftest import print_experiment


def test_report_algo_comparison(uniform_map, city_map, query_windows, benchmark):
    rows = []
    overlaps = {}
    for map_name, segs in (("uniform", uniform_map), ("clustered", city_map)):
        for algo in ("mean", "sweep"):
            m = Machine()
            with use_machine(m):
                tree, trace = build_rtree(segs, 2, 8, algo=algo)
            s = rtree_stats(tree)
            visits = average_query_visits(tree, query_windows)
            rows.append([map_name, algo, trace.num_rounds, m.steps,
                         round(s.overlap / 1e6, 3), round(s.coverage / 1e6, 3),
                         round(visits, 1)])
            overlaps[(map_name, algo)] = s.overlap
        m = Machine()
        with use_machine(m):
            packed = build_rtree_str(segs, 2, 8)
        s = rtree_stats(packed)
        visits = average_query_visits(packed, query_windows)
        rows.append([map_name, "STR pack", packed.height - 1, m.steps,
                     round(s.overlap / 1e6, 3), round(s.coverage / 1e6, 3),
                     round(visits, 1)])
    table = format_table(
        ["map", "algorithm", "rounds", "build steps",
         "leaf overlap (Mu^2)", "coverage (Mu^2)", "visits/query"], rows)
    print_experiment("C7: mean split (algo 1) vs sorted sweep (algo 2)", table)

    # the sweep's whole purpose: less overlap between resulting nodes
    for map_name in ("uniform", "clustered"):
        assert overlaps[(map_name, "sweep")] <= overlaps[(map_name, "mean")]

    benchmark(build_rtree, uniform_map, 2, 8, "sweep", Machine())


def test_mean_build_wallclock(uniform_map, benchmark):
    benchmark(build_rtree, uniform_map, 2, 8, "mean", Machine())


def test_sweep_build_wallclock(uniform_map, benchmark):
    benchmark(build_rtree, uniform_map, 2, 8, "sweep", Machine())
