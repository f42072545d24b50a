"""The shared probe mix, its brute-force oracle, and the layer ladder."""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import (Machine, brute_nearest, brute_point_query,
                   brute_window_query, random_segments)
from repro.engine.worker import batch_kernel

from .spec import MAP, MIX

WINDOW, POINT, NEAREST = 0, 1, 2
KIND_NAMES = ("window", "point", "nearest")


def serve_map(seed: int) -> np.ndarray:
    """What ``repro serve --map uniform --n N --domain D --seed S`` builds."""
    return random_segments(MAP["n"], domain=MAP["domain"],
                           max_len=MAP["max_len"], seed=seed)


@dataclass
class Pool:
    """``n`` probes of the frozen mix: windows with log-uniform side,
    stabbing points at segment midpoints (so answers are non-empty),
    nearest probes anywhere."""

    kind: np.ndarray    # (n,)  WINDOW | POINT | NEAREST
    rect: np.ndarray    # (n, 4) used by WINDOW
    pt: np.ndarray      # (n, 2) used by POINT and NEAREST

    def __len__(self) -> int:
        return self.kind.shape[0]


def make_pool(lines: np.ndarray, n: int, seed: int) -> Pool:
    rng = np.random.default_rng([seed, 0x5917E])
    domain = float(MAP["domain"])
    u = rng.random(n)
    kind = np.where(u < MIX["window"], WINDOW,
                    np.where(u < MIX["window"] + MIX["point"],
                             POINT, NEAREST))
    side = np.exp(rng.uniform(math.log(MIX["side_lo"]),
                              math.log(MIX["side_hi"]), n))
    corner = rng.random((n, 2)) * (domain - side)[:, None]
    rect = np.column_stack([corner, corner + side[:, None]])
    row = lines[rng.integers(0, lines.shape[0], n)]
    mid = (row[:, :2] + row[:, 2:]) / 2.0
    anywhere = rng.random((n, 2)) * domain
    pt = np.where((kind == POINT)[:, None], mid, anywhere)
    return Pool(kind, rect, pt)


def answer_ok(lines: np.ndarray, kind: int, rect, pt, answer) -> bool:
    """One engine/wire answer against the brute oracle, bit for bit."""
    if kind == NEAREST:
        best, dist = brute_nearest(lines, float(pt[0]), float(pt[1]))
        return (len(answer) == 2 and int(answer[0]) == best
                and float(answer[1]) == dist)
    want = (brute_window_query(lines, rect) if kind == WINDOW
            else brute_point_query(lines, float(pt[0]), float(pt[1])))
    return np.array_equal(np.asarray(answer, dtype=np.int64), want)


def index_params(config, structure: str) -> dict:
    """Build parameters the engine keys an unsharded index by, so that
    ``registry.get`` returns the index it serves from."""
    if structure == "rtree":
        return {"min_fill": config.min_fill, "capacity": config.capacity}
    return {"capacity": config.capacity} if structure == "pmr" else {}


# -- engine waves ----------------------------------------------------------------

def _call(_name: str, fn: Callable, *args):
    return fn(*args)


def _submit_all(eng, fp: str, pool: Pool, idx: Sequence[int],
                structure) -> list:
    futs = []
    for i in idx:
        k = pool.kind[i]
        if k == WINDOW:
            futs.append(eng.submit_window(fp, pool.rect[i],
                                          structure=structure))
        elif k == POINT:
            futs.append(eng.submit_point(fp, pool.pt[i],
                                         structure=structure))
        else:
            futs.append(eng.submit_nearest(fp, pool.pt[i],
                                           structure=structure))
    return futs


def _await_all(futs: list) -> list:
    return [f.result() for f in futs]


def run_wave(eng, fp: str, pool: Pool, idx: Sequence[int], structure,
             span: Callable = _call) -> list:
    """Submit one wave from this thread, then await every future.

    ``span(name, fn, *args)`` records the two halves in a traced run.
    """
    futs = span("engine.submit", _submit_all, eng, fp, pool, idx, structure)
    return span("engine.await", _await_all, futs)


# -- the layer ladder: kernel only -> engine in-process -----------------------------

def kernel_ladder(trees: Dict[str, object], pool: Pool,
                  waves: List[Sequence[int]]) -> Dict[str, float]:
    """``batch_*`` kernels called directly on each wave's inputs.

    Returns per-probe microseconds over all kinds (the base of
    ``engine.tax_ratio``) and per kind, and the exactly repeating mean
    result size of window + point probes.
    """
    spent = [0.0, 0.0, 0.0]
    count = [0, 0, 0]
    ids = 0
    structures = list(trees)
    for w, idx in enumerate(waves):
        structure = structures[w % len(structures)]
        idx = np.asarray(idx)
        for k in (WINDOW, POINT, NEAREST):
            sel = idx[pool.kind[idx] == k]
            if not sel.size:
                continue
            payload = pool.rect[sel] if k == WINDOW else pool.pt[sel]
            kernel = batch_kernel(structure, KIND_NAMES[k], True)
            t0 = perf_counter()
            out = kernel(trees[structure], payload, Machine())
            spent[k] += perf_counter() - t0
            count[k] += sel.size
            if k != NEAREST:
                ids += sum(len(r) for r in out)
    return {
        "structures.kernel_us": 1e6 * sum(spent) / sum(count),
        "structures.kernel_window_us": 1e6 * spent[WINDOW] / count[WINDOW],
        "structures.kernel_point_us": 1e6 * spent[POINT] / count[POINT],
        "structures.kernel_nearest_us": 1e6 * spent[NEAREST] / count[NEAREST],
        "structures.results_per_probe":
            ids / (count[WINDOW] + count[POINT]),
    }


def engine_ladder(eng, fp: str, pool: Pool, waves: List[Sequence[int]],
                  structures: Sequence) -> Dict[str, float]:
    """The same waves through ``submit_*`` on an in-process engine."""
    submit = 0.0
    probes = 0
    t_start = perf_counter()
    for w, idx in enumerate(waves):
        t0 = perf_counter()
        futs = _submit_all(eng, fp, pool, idx,
                           structures[w % len(structures)])
        submit += perf_counter() - t0
        _await_all(futs)
        probes += len(idx)
    total = perf_counter() - t_start
    return {"engine.us_per_probe": 1e6 * total / probes,
            "engine.submit_us": 1e6 * submit / probes}
