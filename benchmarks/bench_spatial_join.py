"""Experiment A1: spatial join through the built structures (Section 6).

The conclusion cites spatial join as the flagship application of the
primitives.  We join a 2000-segment uniform map with a street map by
:func:`~repro.structures.join.index_join` -- window waves of one map's
segment MBRs over the other map's bucket PMR quadtree, or its R-tree --
and by brute force, confirming identical answers and reporting the
waves' scan-model ``Machine`` steps.
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.machine import Machine
from repro.structures import (
    brute_join,
    build_bucket_pmr,
    build_rtree,
    index_join,
)
from repro.structures.join import WAVE

from conftest import print_experiment

DOMAIN = 4096


@pytest.fixture(scope="module")
def joined(uniform_map, street_map):
    a = uniform_map
    b = street_map
    qa, _ = build_bucket_pmr(a, DOMAIN, 8)
    qb, _ = build_bucket_pmr(b, DOMAIN, 8)
    ra, _ = build_rtree(a, 2, 8)
    rb, _ = build_rtree(b, 2, 8)
    return a, b, qa, qb, ra, rb


def test_report_join_agreement(joined, benchmark):
    a, b, qa, qb, ra, rb = joined
    want = brute_join(a, b)
    waves = -(-min(a.shape[0], b.shape[0]) // WAVE)
    rows = [["brute force", a.shape[0] * b.shape[0], "-", want.shape[0]]]
    for name, ta, tb in (("bucket PMR wave join", qa, qb),
                         ("R-tree wave join", ra, rb)):
        m = Machine()
        got = index_join(ta, tb, machine=m)
        assert np.array_equal(want, got)
        rows.append([name, f"{waves} wave(s)", m.steps, got.shape[0]])
    table = format_table(["method", "pairs examined / waves",
                          "Machine steps", "intersecting pairs"], rows)
    print_experiment("A1: spatial join (uniform map x street map)", table)

    benchmark(index_join, qa, qb)


def test_quadtree_join_wallclock(joined, benchmark):
    _, _, qa, qb, _, _ = joined
    benchmark(index_join, qa, qb)


def test_rtree_join_wallclock(joined, benchmark):
    _, _, _, _, ra, rb = joined
    benchmark(index_join, ra, rb)


def test_brute_join_wallclock(joined, benchmark):
    a, b, *_ = joined
    benchmark(brute_join, a[:500], b[:500])
