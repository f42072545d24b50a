"""A retired version's index is freed when it leaves the window.

The registry drops a version once it falls out of the retention window
and no read pins it.  Nothing else may keep its index alive: in
particular not a settled sharded fan-out (a merge object that held a
bound method of itself was a reference cycle, so every version a read
had touched waited for a full cyclic collection).  Run with the cyclic
collector off, so only reference counting can free it.
"""

import gc
import weakref

import numpy as np

from repro.engine import SpatialQueryEngine
from repro.geometry import random_segments

DOMAIN = 1024


def test_retired_sharded_index_dies_without_the_cyclic_collector():
    lines = np.unique(random_segments(400, DOMAIN, 64, seed=7), axis=0)
    rng = np.random.default_rng(5)
    gc.collect()
    gc.disable()
    try:
        with SpatialQueryEngine(structure="pmr", shards=4, workers=2,
                                max_batch=16, max_wait=0.0,
                                versions_retained=2) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            (key,) = [k for k in eng.registry.cached_keys()
                      if k.fingerprint == fp]
            first = weakref.ref(eng.registry.peek(key).tree)
            n = lines.shape[0]
            for _ in range(30):
                reads = [eng.submit_window(fp, [x, y, x + 200, y + 200])
                         for x, y in rng.uniform(0, DOMAIN - 200, (4, 2))]
                reads += [eng.submit_nearest(fp, (x, y))
                          for x, y in rng.uniform(0, DOMAIN, (2, 2))]
                eng.flush()
                for fut in reads:
                    fut.result(60)
                p = rng.uniform(0, DOMAIN - 80, (2, 2))
                eng.delete_lines(fp, rng.choice(n, 2, replace=False))
                eng.insert_lines(fp, np.hstack([p, p + 40.0]))
            assert eng.snapshot()["failed"] == 0
            assert first() is None, "version 0's index outlived its window"
    finally:
        gc.enable()
