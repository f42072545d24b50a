"""Packaging metadata has one source of truth."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_version_is_single_sourced_from_the_package():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = {attr = "repro.__version__"}' in pyproject
    for path in ("pyproject.toml", "setup.py"):     # no literal left to drift
        assert not re.search(r"version\s*=\s*[\"']", (ROOT / path).read_text())
