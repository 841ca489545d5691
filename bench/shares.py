"""``python -m bench.shares``: where the time went, from span files alone.

Reads the ``bench/results/trace_<workload>.jsonl`` files the last traced
pass wrote and prints the two tables of ``bench/README.md`` as markdown:
each layer's share of the serial replay's work, and the share of the
in-situ run the dispatcher spent inside the backend adapter.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Dict, List

from bench import RESULTS, load_spec
from bench.tracing import layer_of

SPEC = load_spec()
LAYERS = ("net.protocol", "net.buffer", "service.queue", "service.windows",
          "service.balancer", "control", "runtime.session",
          "service.metrics")


def load(workload: str) -> List[dict]:
    path = RESULTS / f"trace_{workload}.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def main() -> int:
    replay_rows, backend_rows = [], []
    for workload in (w["name"] for w in SPEC["workloads"]):
        spans = load(workload)
        layers: Dict[str, float] = defaultdict(float)
        live: Dict[str, float] = defaultdict(float)
        for span in spans:
            if span["view"] == "replay":
                layers[layer_of(span["name"])] += span["self_s"]
            elif span["name"] == "service.backend.collect":
                live["busy"] += span["self_s"]
            elif span["name"] == "service.backend.dispatch":
                live["busy"] += span["end"] - span["start"]
            elif span["name"] in ("service.backend.drain",
                                  "service.server.run"):
                live[span["name"]] += span["end"] - span["start"]
        total = sum(layers.values())
        if total:
            shares = " | ".join(f"{100 * layers[layer] / total:.1f}"
                                for layer in LAYERS)
            replay_rows.append(f"| `{workload}` | {total:.3f} | {shares} |")
        wall = live["service.server.run"]
        if wall:
            backend_rows.append(
                f"| `{workload}` | {wall:.3f} "
                f"| {100 * live['busy'] / wall:.1f} "
                f"| {100 * live['service.backend.drain'] / wall:.1f} |")
    if not replay_rows:
        print("bench.shares: no trace files; run `python3 -m bench` first")
        return 1
    print("| workload | serial_sum_s | "
          + " | ".join(f"`{layer}` %" for layer in LAYERS) + " |")
    print("|---|---|" + "---|" * len(LAYERS))
    print("\n".join(replay_rows))
    print()
    print("| workload | `run()` wall s | dispatch+collect % | drain % |")
    print("|---|---|---|---|")
    print("\n".join(backend_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
