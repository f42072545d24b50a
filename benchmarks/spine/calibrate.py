"""``--calibrate``: measure run-to-run spread, derive the bounds from it.

Runs the untraced suite ``RUNS`` times, each with another seed and in
fresh processes (which is what the driver's acceptance check does), and
the traced suite three times (twice with the same seed, once with the
next) to learn which per-layer counts repeat exactly.  Every run is kept
in ``baseline/`` as evidence; :func:`derive` turns those files into
``baseline/spread.json`` and the bounds of ``BENCHMARK.json``.

A bound is ``max(floor, 3 x spread)`` of the worst workload, where spread
is the interquartile range of the runs over their median, cut off at
the driver's hard cap.  Where it exceeds the cap the issue hoped for, or
where the spread itself is more than a third of the bound,
``spread.json`` says so.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from . import measure
from .driver import report, run_workload
from .spec import END_TO_END, HARD_CAP, PER_LAYER, WORKLOADS

RUNS = 10
TRACED_SEEDS = (0, 0, 1)       # offsets: same seed twice, then the next
BASELINE = measure.HERE / "baseline"


def _share(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    return {"values": values, "median": med,
            "iqr_share": measure.iqr(values) / med,
            "max_dev_share": max(abs(v - med) for v in values) / med}


def _dump(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _load(name: str) -> dict:
    with open(BASELINE / name) as fh:
        return json.load(fh)


def derive(seconds: float) -> Dict[str, float]:
    """``baseline/run-*.json`` + ``trace-*.json`` -> spread.json, bounds."""
    runs = [_load(f"run-{i}.json") for i in range(RUNS)]
    traced = [_load(f"trace-{i}.json") for i in range(len(TRACED_SEEDS))]

    def value(suite: dict, workload: str, metric: str) -> float:
        return suite[workload]["metrics"][metric]["value"]

    spread: Dict[str, dict] = {"runs": RUNS, "seconds": seconds,
                               "metrics": {}}
    bounds = {}
    for metric, (_, _, floor, cap) in END_TO_END.items():
        per_workload = {w: _share([value(suite, w, metric) for suite in runs])
                        for w in WORKLOADS}
        worst = max(s["iqr_share"] for s in per_workload.values())
        bound = round(min(HARD_CAP, max(floor, 3 * worst)), 3)
        bounds[metric] = bound
        spread["metrics"][metric] = {
            "per_workload": per_workload, "worst_iqr_share": worst,
            "floor": floor, "issue_cap": cap, "hard_cap": HARD_CAP,
            "bound": bound, "over_issue_cap": bound > cap,
            "spread_within_third_of_bound": worst <= bound / 3}
    spread["per_layer_repeats"] = {
        w: {m: {"same_seed_identical":
                value(traced[0], w, m) == value(traced[1], w, m),
                "other_seed_identical":
                value(traced[0], w, m) == value(traced[2], w, m)}
            for m in PER_LAYER if value(traced[0], w, m) != 0.0}
        for w in WORKLOADS}
    _dump(BASELINE / "spread.json", spread)
    _dump(measure.ROOT / "BENCHMARK.json", {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": int(seconds),
        "workloads": [{"name": w, "why": why}
                      for w, why in WORKLOADS.items()],
        "end_to_end": [{"name": m, "unit": unit, "better": better,
                        "bound": bounds[m]}
                       for m, (unit, better, _, _) in END_TO_END.items()],
        "per_layer": [{"name": m, "unit": unit, "better": better}
                      for m, (unit, better) in PER_LAYER.items()],
    })
    for metric, bound in bounds.items():
        print(f"bound {metric:<12} {bound:.3f}  (worst spread "
              f"{spread['metrics'][metric]['worst_iqr_share']:.3f})")
    return bounds


def calibrate(seed: int, seconds: float) -> int:
    BASELINE.mkdir(exist_ok=True)
    ok = True
    plan = [(f"run-{i}.json", seed + i, False) for i in range(RUNS)]
    plan += [(f"trace-{i}.json", seed + off, True)
             for i, off in enumerate(TRACED_SEEDS)]
    for name, run_seed, trace in plan:
        suite = {w: run_workload(w, run_seed, seconds, trace)
                 for w in WORKLOADS}
        for result in suite.values():
            report(result)
            ok &= result["correct"]
        _dump(BASELINE / name, suite)
    derive(seconds)
    return 0 if ok else 1
