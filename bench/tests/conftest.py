"""Put the repo root on ``sys.path`` so ``import bench`` works however
pytest was started (``bench/`` is outside the tier-1 ``testpaths``)."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parent.parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
