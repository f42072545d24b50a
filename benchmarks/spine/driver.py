"""Command line of the bench spine.

``python -m benchmarks.spine --seed S [--workload W] [--trace]`` runs the
named workload (or all four), prints every metric by name with its unit,
checks answers against the brute oracles and exits non-zero on a wrong
answer.  The last line of standard output is one JSON object: the result
of the workload, or of the whole suite keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Dict

from . import measure
from .spec import (BATCH_QUERY, BUILD_SCAN, END_TO_END, MAP, MIX, PER_LAYER,
                   SERVE_MIXED, SERVE_READ, WORKLOADS)

PARAMS = {"build_scan": BUILD_SCAN,
          "batch_query": {**BATCH_QUERY, "map": MAP, "mix": MIX},
          "serve_read": {**SERVE_READ, "map": MAP, "mix": MIX},
          "serve_mixed": {**SERVE_MIXED, "map": MAP, "mix": MIX}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 corrupt: bool = False) -> dict:
    """One run: the end-to-end metrics (or, traced, the per-layer ones)."""
    if name in ("build_scan", "batch_query"):
        from . import inproc as module
    else:
        from . import serve as module
    raw = module.run(name, seed, seconds, trace, corrupt)
    rounds = raw["rounds"]
    if trace:
        measured = raw["layers"]
        metrics = {m: {"value": float(measured.get(m, 0.0)), "unit": unit}
                   for m, (unit, _) in PER_LAYER.items()}
        unknown = set(measured) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"layer metrics not in spec: {sorted(unknown)}")
    else:
        values = {"setup_s": raw["setup_s"], "peak_rss_mb":
                  {"value": raw["peak_rss_mb"], "round_iqr": 0.0,
                   "rounds": []},
                  **{m: rounds[m] for m in
                     ("work_per_s", "op_p50_ms", "op_p95_ms")}}
        metrics = {m: {"unit": unit, **values[m]}
                   for m, (unit, *_rest) in END_TO_END.items()}
    return {
        "workload": name, "trace": trace,
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"], "failed": raw["failed"],
        "metrics": metrics,
        "op": raw["op"], "units_per_op": raw["units_per_op"],
        "samples": rounds["samples"],
        "oracle_checked": raw["oracle_checked"],
        "info": raw.get("info", {}),
        "provenance": measure.provenance(seed, PARAMS[name]),
    }


def report(result: dict) -> None:
    print(f"== {result['workload']} "
          f"({'traced' if result['trace'] else 'untraced'}): "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"{result['oracle_checked']} oracle checks; "
          f"op = one {result['op']}, {result['samples']} latency samples")
    for name, m in result["metrics"].items():
        spread = ""
        if m.get("rounds"):
            spread = (f"  (of {len(m['rounds'])}: median "
                      f"{m.get('round_median', m['value']):.6g}, "
                      f"IQR {m['round_iqr']:.4g})")
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}{spread}")


def contract_line(result: dict) -> str:
    """The driver's contract: exactly these keys, value + unit per metric."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()}})


def _terminate(signum, frame) -> None:
    sys.exit(128 + signum)


def main(argv=None) -> int:
    # a terminated benchmark unwinds, so that its ``finally`` blocks stop
    # the server or worker it started
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(prog="python -m benchmarks.spine",
                                 description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer run instead of the "
                                         "end-to-end one")
    ap.add_argument("--calibrate", action="store_true",
                    help="measure run-to-run spread and set the bounds in "
                         "BENCHMARK.json from it")
    ap.add_argument("--self-test-corrupt", action="store_true",
                    help="corrupt one answer before the oracle check; the "
                         "command must then exit non-zero")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(measure.ROOT / "BENCHMARK.json") as fh:
            seconds = float(json.load(fh)["run_seconds"])

    if args.child:
        from .inproc import child_main
        return child_main(args.workload, args.seed, seconds,
                          bool(args.trace), args.setup_only,
                          args.self_test_corrupt)
    if args.calibrate:
        from .calibrate import calibrate
        return calibrate(args.seed, seconds)

    if args.workload:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.self_test_corrupt)
        report(result)
        # the whole result (rounds, provenance), beside the spans
        with open(measure.out_path(f"result-{args.workload}-"
                                   f"{int(args.trace)}.json"), "w") as fh:
            json.dump(result, fh)
        print(contract_line(result))
        return 0 if result["correct"] else 1

    suite: Dict[str, dict] = {}
    for name in WORKLOADS:
        suite[name] = run_workload(name, args.seed, seconds,
                                   bool(args.trace), args.self_test_corrupt)
        report(suite[name])
    print(json.dumps(suite))
    return 0 if all(r["correct"] for r in suite.values()) else 1
