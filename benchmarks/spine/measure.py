"""Measurement helpers shared by the workloads: rounds, summaries, hygiene."""

from __future__ import annotations

import gc
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .spec import CALM_SHARE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"            # spans, result files, temp dirs (git-ignored)


def child_env() -> Dict[str, str]:
    """Environment for a program subprocess: ``repro`` importable from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def out_path(name: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / name


def make_tmp(tag: str) -> str:
    return tempfile.mkdtemp(prefix=f"tmp-{tag}-", dir=out_path(""))


def drop_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """utime + stime of a live process from ``/proc/PID/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def provenance(seed: int, params: dict) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {"git_sha": sha, "seed": seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "params": params}


# -- rounds -------------------------------------------------------------------

def iqr(values: Sequence[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def median_iqr(values: Sequence[float]) -> Dict[str, float]:
    return {"value": statistics.median(values),
            "round_iqr": iqr(values) if len(values) > 1 else 0.0,
            "rounds": list(values)}


def calm(values: Sequence[float], better: str) -> Dict[str, float]:
    """The mean of the calmest quarter of the rounds is the value; the
    median and IQR of all rounds ride along.

    This host's noise is one-sided and comes in bursts (a neighbour slows
    every op of a stretch: the same numpy sort takes 1.8 ms at its best
    in every 2 s window, but its median wanders between 1.9 and 2.6 ms),
    so what the calm rounds say repeats from run to run and the median
    round does not.  A mean of several rounds rather than the single best
    one, so that one lucky round cannot set the value.  README, "Noise
    discipline", has the measurements behind the choice.
    """
    ranked = sorted(values, reverse=better == "higher")
    keep = ranked[:max(1, round(CALM_SHARE * len(ranked)))]
    return {"value": statistics.fmean(keep),
            "round_median": statistics.median(values),
            "round_iqr": iqr(values) if len(values) > 1 else 0.0,
            "rounds": list(values)}


def summarize_rounds(rounds: List[dict], units_per_op: float) -> dict:
    """Each round's rate, p50 and p95, reduced by :func:`calm`.

    A round is ``{"lat": [seconds per successful op], "elapsed": s}``.
    """
    live = [r for r in rounds if r["lat"]]
    if not live:
        raise RuntimeError("no successful op in any round")
    return {
        "work_per_s": calm(
            [units_per_op * len(r["lat"]) / r["elapsed"] for r in live],
            "higher"),
        "op_p50_ms": calm(
            [float(np.percentile(r["lat"], 50)) * 1e3 for r in live],
            "lower"),
        "op_p95_ms": calm(
            [float(np.percentile(r["lat"], 95)) * 1e3 for r in live],
            "lower"),
        "samples": sum(len(r["lat"]) for r in live),
    }


def count_ops(rounds: List[dict]) -> Tuple[int, int]:
    """(attempted, failed) timed ops over ``rounds``."""
    failed = sum(r["failed"] for r in rounds)
    return sum(len(r["lat"]) for r in rounds) + failed, failed


def timed_rounds(seconds: float, one_round: Callable[[int], dict]) -> List[dict]:
    """Rounds of a fixed op count, back to back, until ``seconds`` are up.

    ``one_round(r)`` runs round ``r`` and returns ``{"lat", "elapsed",
    "failed"}``.  A round that has started is finished, so the phase
    overruns by at most one round; garbage is collected between rounds,
    outside their clocks.
    """
    rounds: List[dict] = []
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        gc.collect()
        rounds.append(one_round(len(rounds)))
    return rounds


def sequential_round(round_ops: int, do_op: Callable[[int], bool],
                     first_op: int) -> dict:
    """``round_ops`` ops one after another, numbered from ``first_op``.

    ``do_op(i)`` returns False (or raises) when op ``i`` failed; a failed
    op contributes neither work nor a latency sample.
    """
    lat: List[float] = []
    failed = 0
    start = t1 = perf_counter()
    for i in range(first_op, first_op + round_ops):
        t0 = perf_counter()
        try:
            ok = do_op(i)
        except Exception as exc:       # an op failure is a counted outcome
            print(f"op {i} raised {exc!r}", file=sys.stderr)
            ok = False
        t1 = perf_counter()
        if ok:
            lat.append(t1 - t0)
        else:
            failed += 1
    return {"lat": lat, "elapsed": t1 - start, "failed": failed}
