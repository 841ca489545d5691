"""Shared fixtures for the benchmark/experiment suite.

Every bench reproduces one table or figure of the paper, prints the
reproduction next to the paper's reference values, and saves the
rendered text under ``benchmarks/results/`` (the source material for
EXPERIMENTS.md).  Benches that also pass a ``data`` mapping get a
machine-readable ``<name>.json`` alongside the text, which CI uploads
as artifacts.  Wall-clock numbers emitted here are report-only; the
perf trajectory is tracked by ``python3 -m bench`` (see ``bench/``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def emit():
    """Print a rendered experiment block and persist it to results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str,
              data: Optional[Dict[str, Any]] = None) -> None:
        print(f"\n=== {name} ===\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            (RESULTS_DIR / f"{name}.json").write_text(
                json.dumps(data, indent=2, sort_keys=True) + "\n")

    return _emit
