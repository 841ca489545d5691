"""``python -m bench.setup_probe WORKLOAD``: one ``setup_s`` sample.

Run in a fresh interpreter: the clock starts before the first ``import
repro...`` and stops when the workload's service is constructed and its
backend started (on ``wire_histo``: the gateway child listening and the
client's ``hello`` welcomed; on ``cycle_sim_paper``: the architectures
built).  Prints the seconds and tears everything down again.
"""

import sys
import time

_START = time.perf_counter()


def main() -> int:
    from bench.harness import reap_descendants
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    try:
        handle = workload.open()
        elapsed = time.perf_counter() - _START
        workload.close(handle)
    finally:
        reap_descendants()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
