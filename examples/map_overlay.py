#!/usr/bin/env python3
"""Map overlay: spatial join of two line maps (the Section 6 application).

Joins a utility map against a street map -- every (street, utility-line)
crossing -- three ways: brute force, and ``index_join`` (window waves of
one map's segment MBRs over the other map's index) on two bucket PMR
quadtrees and on two data-parallel R-trees, verifying agreement.

Run:  python examples/map_overlay.py
"""

import time

import numpy as np

from repro import (
    brute_join,
    build_bucket_pmr,
    build_rtree,
    clustered_map,
    index_join,
    print_table,
    road_map,
)

DOMAIN = 2048


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main() -> None:
    streets = road_map(rows=14, cols=14, domain=DOMAIN, jitter=10, seed=21)
    utility = clustered_map(800, clusters=10, spread=90, domain=DOMAIN,
                            max_len=48, seed=22)
    print(f"street map: {streets.shape[0]} segments; "
          f"utility map: {utility.shape[0]} segments\n")

    qa, _ = build_bucket_pmr(streets, DOMAIN, 8)
    qb, _ = build_bucket_pmr(utility, DOMAIN, 8)
    ra, _ = build_rtree(streets, 2, 8)
    rb, _ = build_rtree(utility, 2, 8)

    truth, t_brute = timed(brute_join, streets, utility)
    got_q, t_quad = timed(index_join, qa, qb)
    got_r, t_rtree = timed(index_join, ra, rb)

    assert np.array_equal(truth, got_q)
    assert np.array_equal(truth, got_r)

    print_table(
        ["method", "pairs found", "seconds"],
        [
            ["brute force", truth.shape[0], round(t_brute, 3)],
            ["bucket PMR x bucket PMR", got_q.shape[0], round(t_quad, 3)],
            ["R-tree x R-tree", got_r.shape[0], round(t_rtree, 3)],
        ],
        title="spatial join: streets x utility lines (all methods agree)")

    # which streets carry the most utility crossings?
    if truth.shape[0]:
        street_ids, counts = np.unique(truth[:, 0], return_counts=True)
        busiest = street_ids[np.argsort(counts)[::-1][:5]]
        print("\nbusiest street segments (most utility crossings):")
        for sid in busiest:
            k = counts[street_ids == sid][0]
            print(f"  street #{sid}: {k} crossings at {streets[sid].tolist()}")


if __name__ == "__main__":
    main()
