"""Entry point named by BENCHMARK.json: ``python3 benchmarks/spine/run.py``.

Runs from any checkout of the repository without installation: the
repository root (for the ``benchmarks.spine`` package) and ``src`` (for
``repro``) are put on ``sys.path`` here and nowhere else.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}/src/repro is missing: nothing to benchmark")
    from benchmarks.spine.driver import main
    sys.exit(main())
