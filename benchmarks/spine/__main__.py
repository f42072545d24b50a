"""``python -m benchmarks.spine`` from the repository root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from .driver import main  # noqa: E402

sys.exit(main())
