"""Direct micro-measurements on slices of the workload's own data.

These call one public function in a loop, outside any service, and
report the median of a few timings.  They give the per-key / per-tuple /
per-call constants that the span views cannot separate (a span per
murmur3 call would cost more than the call).
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Callable, Dict

from bench.workloads import SMALL_CHUNK, Inputs
from repro.core.fastpath import run_fast
from repro.hashing.murmur3 import murmur3_32_array
from repro.net import protocol
from repro.net.buffer import IngestBuffer
from repro.service import StreamService
from repro.service.balancer import FLEET_SHARD_SEED
from repro.service.jobs import kernel_for
from repro.service.metrics import ServiceMetrics
from repro.workloads.streams import TimestampedBatch

REPEATS = 5


def _median_seconds(fn: Callable[[], Any], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def measure(inputs: Inputs) -> Dict[str, float]:
    job = inputs.jobs[0]
    config = StreamService(workers=1).config  # the serving default shape
    small = job.batch.slice(0, min(1_000, len(job.batch)))
    big = job.batch.slice(0, min(62_500, len(job.batch)))
    out: Dict[str, float] = {}

    out["hashing.murmur3.ns_per_key"] = _median_seconds(
        lambda: murmur3_32_array(big.keys, seed=FLEET_SHARD_SEED)
    ) / len(big) * 1e9

    # run_fast cost = fixed + slope * tuples, from two batch sizes.
    kernel = kernel_for(job.app, config.pripes)
    t_small = _median_seconds(lambda: run_fast(config, kernel, small))
    t_big = _median_seconds(lambda: run_fast(config, kernel, big))
    if len(big) > len(small):
        slope = (t_big - t_small) / (len(big) - len(small))
    else:
        slope = t_big / len(big)
    out["core.fastpath.ns_per_tuple"] = slope * 1e9
    out["core.fastpath.fixed_us_per_call"] = max(
        0.0, t_small - slope * len(small)) * 1e6

    sample = job.batch.slice(0, min(8_000, len(job.batch)))
    for app in ("histo", "hll", "dp", "hhd"):
        app_kernel = kernel_for(app, config.pripes)
        out[f"apps.{app}.ns_per_tuple"] = _median_seconds(
            lambda: run_fast(config, app_kernel, sample), repeats=3
        ) / len(sample) * 1e9

    # One 4 000-tuple wire batch, whatever the workload's chunk size.
    head = job.chunks[0]
    chunk = TimestampedBatch(head.timestamps[:SMALL_CHUNK],
                             head.batch.slice(0, SMALL_CHUNK))
    message = {"type": "batch", "job_id": job.job_id}
    line = protocol.encode({**message, **protocol.batch_payload(chunk)})
    out["net.protocol.encode_us_per_tuple"] = _median_seconds(
        lambda: protocol.encode(
            {**message, **protocol.batch_payload(chunk)})
    ) / len(chunk) * 1e6
    out["net.protocol.decode_us_per_tuple"] = _median_seconds(
        lambda: protocol.decode_batch(protocol.decode(line))
    ) / len(chunk) * 1e6
    out["net.protocol.wire_bytes_per_tuple"] = len(line) / len(chunk)
    out["net.protocol.result_roundtrip_ms"] = _median_seconds(
        lambda: protocol.from_wire(protocol.decode(protocol.encode(
            {"type": "result",
             "result": protocol.to_wire(job.expected)}))["result"])
    ) * 1e3

    def put_get(count: int = 1_000) -> None:
        buffer = IngestBuffer()
        for _ in range(count):
            buffer.put(chunk)
            next(buffer)

    out["net.buffer.put_get_us"] = _median_seconds(put_get) / 1_000 * 1e6

    metrics = ServiceMetrics()
    calls = 2_000

    def record() -> None:
        for index in range(calls):
            metrics.record_segment(index & 3, 1_000, 250)

    out["service.metrics.record_segment_us"] = \
        _median_seconds(record) / calls * 1e6
    out["service.metrics.snapshot_ms"] = \
        _median_seconds(metrics.snapshot) * 1e3
    out["service.metrics.prometheus_ms"] = \
        _median_seconds(metrics.to_prometheus) * 1e3
    return out
