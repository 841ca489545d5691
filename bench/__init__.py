"""Wall-clock benchmark of the serving stack (see ``bench/README.md``).

``benchmarks/`` stays the tier-1 paper-figure pytest suite; this package
is the instrument ``BENCHMARK.json`` names.  It always measures the
checkout it lives in, so the repo's ``src/`` goes first on ``sys.path``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Traces, child result files and CI output (gitignored) plus the two
#: committed baselines.
RESULTS = ROOT / "bench" / "results"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds are written down."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
