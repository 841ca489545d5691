"""Multi-core fleet scaling: process backend wall-time vs K workers.

The ROADMAP's "escape the GIL" item, measured.  The inline backend runs
every worker's shards on the dispatcher thread, so no matter how large
K grows, wall time stays flat.  The process backend forks K warm worker
subprocesses — the fleet's simulated-cycle parallelism finally becomes
wall-time parallelism, one core per worker.

The sweep serves the same Zipf stream on both backends for K in
{1, 2, 4} using the per-cycle simulator (the compute-bound engine where
the GIL actually binds; the vectorised fast path mostly releases it
inside NumPy) and reports wall time and speedup per K.

Asserted headline: results are bit-identical between backends at every
K.  The wall times and speedups are reported, not asserted — wall time
is ``python3 -m bench``'s to measure.
"""

import os
import pickle
import time

import numpy as np

from repro.analysis.tables import Table
from repro.service import StreamService
from repro.workloads.streams import chunk_stream
from repro.workloads.zipf import ZipfGenerator

FLEET_SIZES = [1, 2, 4]
TUPLES = 12_000
CHUNK = 1_500
WINDOW_SECONDS = 2.56e-6
ALPHA = 1.5
SEED = 11


def serve_once(backend: str, workers: int, batch) -> tuple:
    """Wall time and result bytes for one cycle-engine histo job."""
    service = StreamService(workers=workers, balancer="skew",
                            engine="cycle", backend=backend)
    started = time.perf_counter()
    job_id = service.submit("histo", chunk_stream(batch, CHUNK),
                            window_seconds=WINDOW_SECONDS,
                            job_id=f"scale-{backend}-{workers}")
    service.run()
    elapsed = time.perf_counter() - started
    result = service.result(job_id)
    service.shutdown()
    return elapsed, pickle.dumps(result.result), result.tuples


def test_fleet_scaling_curve(emit):
    batch = ZipfGenerator(alpha=ALPHA, seed=SEED).generate(TUPLES)
    cores = os.cpu_count() or 1
    table = Table(
        ["K", "inline s", "process s", "speedup"],
        title=(f"Fleet wall-time scaling, cycle engine, {TUPLES} tuples "
               f"({cores} cores)"),
    )
    data = {"tuples": TUPLES, "alpha": ALPHA, "engine": "cycle",
            "cores": cores, "sweep": []}
    for workers in FLEET_SIZES:
        inline_s, inline_bits, tuples = serve_once("inline", workers,
                                                   batch)
        process_s, process_bits, _ = serve_once("process", workers,
                                                batch)
        # The backend promise, asserted at every K on every host.
        assert inline_bits == process_bits, \
            f"backend results diverged at K={workers}"
        assert tuples == TUPLES
        speedup = inline_s / process_s if process_s else 0.0
        table.add_row([workers, inline_s, process_s, speedup])
        data["sweep"].append({
            "workers": workers,
            "inline_seconds": inline_s,
            "process_seconds": process_s,
            "speedup": speedup,
        })
    emit("fleet_scaling", table.render(), data)


def test_all_kernels_identical_across_backends():
    """The full app matrix stays bit-identical (fast engine, K=4)."""
    zipf = ZipfGenerator(alpha=ALPHA, seed=SEED).generate(6_000)
    rng = np.random.default_rng(SEED)
    pagerank = type(zipf)(
        keys=rng.integers(0, 256, 4_000).astype(np.uint64),
        values=rng.integers(0, 256, 4_000, dtype=np.int64),
    )
    workloads = {
        "histo": (zipf, {}),
        "dp": (zipf, {}),
        "hll": (zipf, {}),
        "hhd": (zipf, {}),
        "pagerank": (pagerank, {"num_vertices": 256}),
    }

    def run(backend):
        service = StreamService(workers=4, balancer="skew",
                                backend=backend)
        bits = {}
        for app, (batch, params) in workloads.items():
            job_id = service.submit(app, chunk_stream(batch, 2_000),
                                    window_seconds=WINDOW_SECONDS,
                                    params=params, job_id=f"mx-{app}")
            service.run()
            bits[app] = pickle.dumps(service.result(job_id).result)
        service.shutdown()
        return bits

    inline = run("inline")
    process = run("process")
    for app in workloads:
        assert inline[app] == process[app], f"{app} diverged"

