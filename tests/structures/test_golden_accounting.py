"""Golden scan-model accounting: the numbers a perf refactor may not move.

Step counts are the paper's result (O(log n) quadtree builds,
O(log**2 n) R-tree build), so each build on a fixed map pins
``Machine.steps``, the whole ``counts`` dict, the round count and the
longest vector.  The values were recorded from the per-node builders
that preceded the array-native ones; a host-side speed-up that changes
any of them has changed what is charged to the machine, not how fast
the host computes it.
"""

import numpy as np
import pytest

from repro.geometry import random_segments
from repro.machine import Machine, use_machine
from repro.structures import build_bucket_pmr, build_pm1, build_rtree
from repro.structures.kdtree import build_kdtree
from repro.structures.pr_quadtree import build_pr_quadtree

LINES = random_segments(500, domain=1024, max_len=48, seed=11)
SPARSE = np.unique(random_segments(120, domain=4096, max_len=64, seed=12), axis=0)
POINTS = np.random.default_rng(13).integers(0, 256, (300, 2)).astype(float)

# name: (build, steps, counts, rounds, longest vector)
GOLDEN = {
    "pmr": (lambda: build_bucket_pmr(LINES, 1024, 4), 318.0,
            {"elementwise": 148, "permute": 85, "scan": 85}, 7, 1101),
    "pm1": (lambda: build_pm1(SPARSE, 4096), 881.0,
            {"elementwise": 331, "permute": 275, "scan": 275}, 12, 294),
    "rtree": (lambda: build_rtree(LINES, 2, 6), 2457.0,
              {"elementwise": 308, "permute": 630, "scan": 872, "sort": 111}, 9, 500),
    "rtree_mean": (lambda: build_rtree(LINES, 2, 6, algo="mean"), 1642.0,
                   {"elementwise": 204, "permute": 558, "scan": 541, "sort": 62}, 8, 500),
    "pr": (lambda: build_pr_quadtree(POINTS, 256, 2), 159.0,
           {"elementwise": 49, "permute": 49, "scan": 61}, 6, 300),
    "kd": (lambda: build_kdtree(POINTS, 4), 133.0,
           {"elementwise": 21, "permute": 21, "scan": 28, "sort": 7}, 7, 300),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_build_accounting_is_pinned(name):
    build, steps, counts, rounds, longest = GOLDEN[name]
    machine = Machine()
    with use_machine(machine):
        _, trace = build()
    assert machine.counts == counts
    assert machine.steps == steps
    assert trace.num_rounds == rounds
    assert machine.max_vector_length == longest


def test_kd_nodes_are_allocated_in_level_then_rank_order():
    """Children of the rank-th node split at a level are ``len + 2 * rank`` and
    ``+ 1`` -- the numbering the node-at-a-time k-d build produced."""
    tree, _ = build_kdtree(POINTS, 4)
    assert tree.num_nodes == 215
    assert tree.node_left[:6].tolist() == [1, 3, 5, 7, 9, 11]
    assert tree.node_right[:6].tolist() == [2, 4, 6, 8, 10, 12]
    assert tree.node_start[-4:].tolist() == [282, 285, 291, 294]
    tree.check()
