"""Application benches: polygonization [Hoel93] and the k-d tree [Blel89b].

Both are cited by the paper (conclusion and related work respectively)
as products of the same primitive repertoire; these benches measure them
on realistic maps and verify their structural claims (log-round
convergence, balanced median splits).
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.geometry import midpoints
from repro.machine import Machine, use_machine
from repro.extras import connected_components, polygonize
from repro.structures import build_kdtree

from conftest import print_experiment


def test_report_connected_components(street_map, benchmark):
    m = Machine()
    with use_machine(m):
        topo = connected_components(street_map)
    logv = int(np.log2(max(topo.vertices.shape[0], 2))) + 1
    rows = [[street_map.shape[0], topo.vertices.shape[0], topo.num_components,
             topo.rounds, logv]]
    table = format_table(
        ["segments", "vertices", "components", "jump rounds", "log2(v)+1"], rows)
    print_experiment("A2: connected components on the street map", table)
    # O(log v) rounds with a small constant (the hooking variant is not
    # a strict Shiloach-Vishkin, so allow 2x)
    assert topo.rounds <= 2 * logv
    benchmark(connected_components, street_map, Machine())


def test_report_polygonize(street_map, benchmark):
    chains = polygonize(street_map)
    closed = sum(c.closed for c in chains)
    rows = [[len(chains), closed, len(chains) - closed,
             max(len(c.segments) for c in chains)]]
    table = format_table(["chains", "closed", "open", "longest"], rows)
    print_experiment("A2b: polygonization of the street map", table)
    covered = sorted(s for c in chains for s in c.segments)
    assert covered == list(range(street_map.shape[0]))
    benchmark(polygonize, street_map)


def test_report_kdtree_scaling(benchmark):
    rows = []
    rng = np.random.default_rng(30)
    for n in (1000, 4000, 16000):
        pts = rng.uniform(0, 10000, size=(n, 2))
        m = Machine()
        with use_machine(m):
            tree, trace = build_kdtree(pts, leaf_size=8)
        rows.append([n, trace.num_rounds, tree.height, m.counts.get("sort", 0),
                     m.steps])
    table = format_table(["n", "rounds", "height", "sorts", "steps"], rows)
    print_experiment("A3: k-d tree build scaling ([Blel89b])", table)
    # one sort per level, O(log n) levels
    assert rows[-1][1] - rows[0][1] == int(np.log2(16000 // 1000))

    pts = rng.uniform(0, 10000, size=(2000, 2))
    benchmark(build_kdtree, pts, 8, Machine())


def test_kdtree_nearest_wallclock(uniform_map, benchmark):
    pts = midpoints(uniform_map)
    tree, _ = build_kdtree(pts, leaf_size=8)
    rng = np.random.default_rng(31)
    qs = rng.uniform(0, 4096, size=(100, 2))
    benchmark(lambda: [tree.nearest(qx, qy) for qx, qy in qs])
