#!/usr/bin/env python3
"""Polygonization: extracting chains and polygons from a line map.

The paper's conclusion cites polygonization [Hoel93] as an application
of the same data-parallel primitives.  This example runs the pipeline:
duplicate deletion collapses shared endpoints into vertices, log-round
pointer jumping labels connected components, and chain traversal
extracts closed polygons and open polylines.

Run:  python examples/polygonize_map.py
"""

import numpy as np

from repro import Machine, build_kdtree, print_table, use_machine
from repro.extras import connected_components, polygonize
from repro.geometry import midpoints, road_map


def make_parcel_map(seed=41):
    """A few closed parcels plus dangling service lines."""
    rng = np.random.default_rng(seed)
    segs = []
    for _ in range(6):  # closed rectangular parcels
        x, y = rng.integers(0, 900, 2)
        w, h = rng.integers(20, 120, 2)
        segs += [(x, y, x + w, y), (x + w, y, x + w, y + h),
                 (x + w, y + h, x, y + h), (x, y + h, x, y)]
    for _ in range(8):  # open service lines
        x, y = rng.integers(0, 980, 2)
        segs.append((x, y, x + rng.integers(5, 40), y + rng.integers(5, 40)))
    return np.asarray(segs, dtype=float)


def main() -> None:
    parcels = make_parcel_map()
    m = Machine()
    with use_machine(m):
        topo = connected_components(parcels)
        chains = polygonize(parcels)

    closed = [c for c in chains if c.closed]
    open_chains = [c for c in chains if not c.closed]
    print_table(
        ["metric", "value"],
        [
            ["segments", parcels.shape[0]],
            ["distinct vertices", topo.vertices.shape[0]],
            ["components", topo.num_components],
            ["pointer-jump rounds", topo.rounds],
            ["closed polygons", len(closed)],
            ["open chains", len(open_chains)],
            ["machine steps", int(m.steps)],
        ],
        title="parcel map polygonization")

    print("\npolygons found:")
    for c in closed:
        corners = topo.vertices[c.vertices[:-1]]
        print(f"  {len(c.segments)}-gon through "
              + " -> ".join(f"({x:g},{y:g})" for x, y in corners[:4])
              + (" ..." if len(corners) > 4 else ""))

    # bonus: index the street map's segment midpoints with the k-d tree
    streets = road_map(10, 10, domain=1024, jitter=6, seed=42)
    mids = midpoints(streets)
    tree, trace = build_kdtree(mids, leaf_size=8)
    qx, qy = 512.0, 512.0
    nid, dist = tree.nearest(qx, qy)
    print(f"\nk-d tree over {mids.shape[0]} street midpoints "
          f"({trace.num_rounds} rounds, height {tree.height}); "
          f"nearest midpoint to the map center: segment #{nid} at {dist:.1f} units")


if __name__ == "__main__":
    main()
