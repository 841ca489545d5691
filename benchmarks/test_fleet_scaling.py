"""Multi-core fleet: the process backend is bit-identical to inline.

The inline backend runs every worker's shards on the dispatcher thread;
the process backend hosts the K logical workers on at most cores − 1
warm children (worker ``w`` in child ``w % spare``, whole windows that
the child splits, several per block), so K is a simulation parameter and the process count
follows the host.  The sweep serves the same Zipf stream on both
backends for K in {1, 2, 4} and asserts the results are bit-identical
at every K: inline windows run as one fast-engine pass each, while the
children split them and run one shard at a time.  Wall time per
backend is ``python3 -m bench``'s to measure (``procshm_histo`` against
``histo_zipf_inline``).
"""

import pickle

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
    """Result bytes and tuple count of one histo job."""
    service = StreamService(workers=workers, balancer="skew",
                            backend=backend)
    job_id = service.submit("histo", chunk_stream(batch, CHUNK),
                            window_seconds=WINDOW_SECONDS,
                            job_id=f"scale-{backend}-{workers}")
    service.run()
    result = service.result(job_id)
    service.shutdown()
    return pickle.dumps(result.result), result.tuples


def test_fleet_scaling_curve(emit):
    batch = ZipfGenerator(alpha=ALPHA, seed=SEED).generate(TUPLES)
    table = Table(["K", "tuples", "inline == process"],
                  title=f"Backend equivalence, {TUPLES} tuples")
    data = {"tuples": TUPLES, "alpha": ALPHA, "sweep": []}
    for workers in FLEET_SIZES:
        inline_bits, tuples = serve_once("inline", workers, batch)
        process_bits, _ = serve_once("process", workers, batch)
        # The backend promise, asserted at every K on every host.
        assert inline_bits == process_bits, \
            f"backend results diverged at K={workers}"
        assert tuples == TUPLES
        table.add_row([workers, tuples, True])
        data["sweep"].append({"workers": workers, "tuples": tuples,
                              "identical": True})
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

