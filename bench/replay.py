"""Serial replay: the workload's input through each layer on one thread.

The in-situ trace shows where time went in the real, threaded run, GIL
waits included.  This view pushes the same input through the same
public calls in pipeline order with no worker threads, so each layer's
self time is its contention-free cost; ``service.server.serial_sum_s``
and the per-layer shares come from here, and
``service.server.contention_ratio`` is what the threads add on top.

The loop below mirrors what the dispatcher and a worker do per window
(observe, profile or consult the controller, split, process, record,
merge) using only public names; its results are checked against the
same references as the service's, so a drift between the two shows as
a failed check, not as a silently wrong budget.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Tuple

from bench.tracing import SpanRecorder
from bench.workloads import WORKERS, Inputs, Workload
from repro.net import protocol
from repro.net.buffer import IngestBuffer
from repro.service import StreamService
from repro.service.executor import SessionSpec
from repro.service.jobs import DEFAULT_TENANT, Job, kernel_class_for
from repro.service.queue import JobQueue
from repro.service.windows import WindowManager


def _through_the_wire(job, job_id: str) -> IngestBuffer:
    """Client encode, gateway decode and the ingest buffer, per batch."""
    buffer = IngestBuffer()
    for chunk in job.chunks:
        line = protocol.encode({"type": "batch", "job_id": job_id,
                                **protocol.batch_payload(chunk)})
        buffer.put(protocol.decode_batch(protocol.decode(line)))
        protocol.decode(protocol.encode(
            {"type": "ack", "job_id": job_id, "credits": 1}))
    buffer.close()
    return buffer


def replay(workload: Workload, inputs: Inputs,
           recorder: SpanRecorder, wire: bool) -> Tuple[float, List[Any]]:
    """Run every job serially; returns (wall seconds, results).

    Call with ``recorder`` installed.  The never-started service only
    lends its public wiring (config, balancer, controller, metrics);
    no backend thread or process exists at any point.
    """
    kwargs = {key: value for key, value in workload.service_kwargs.items()
              if key not in ("backend", "transport")}
    service = StreamService(workers=WORKERS, **kwargs)
    queue = JobQueue()
    for spec in workload.tenants:
        service.register_tenant(spec)
        queue.register_tenant(spec)
    balancer, controller = service.balancer, service.controller
    metrics = service.metrics
    results: Dict[str, Any] = {}

    start = perf_counter()
    for job in inputs.jobs:
        recorder.set_job(job.job_id)
        source = _through_the_wire(job, job.job_id) if wire \
            else iter(job.chunks)
        queue.submit(Job(
            app=job.app, source=source, job_id=job.job_id,
            window_seconds=job.window_seconds,
            tenant_id=job.tenant or DEFAULT_TENANT))
    while True:
        admitted = queue.pop()
        if admitted is None:
            break
        recorder.set_job(admitted.job_id)
        spec = SessionSpec(
            app=admitted.app, config=service.config,
            max_cycles_per_segment=service.max_cycles_per_segment,
            engine=service.engine, params=admitted.params)
        by_key = not kernel_class_for(admitted.app).splittable
        if by_key:
            balancer.reset_key_ownership()
        if controller is not None:
            controller.unfreeze()
        windows = WindowManager(admitted.window_seconds)
        sessions: Dict[int, Any] = {}

        def dispatch(closed) -> None:
            for window in closed:
                batch = window.to_batch()
                if len(batch) == 0:
                    continue
                metrics.record_window(len(batch))
                if controller is not None:
                    controller.on_window(batch.keys, len(batch),
                                         tenant_id=admitted.tenant_id)
                else:
                    balancer.observe(batch.keys)
                shards = balancer.split(batch, by_key=by_key)
                for worker, shard in shards.items():
                    session = sessions.get(worker)
                    if session is None:
                        session = sessions[worker] = spec.build()
                    outcome = session.process(shard)
                    metrics.record_segment(
                        worker, outcome.tuples, outcome.cycles,
                        tenant=admitted.tenant_id)

        for events in admitted.source:
            dispatch(windows.observe(events))
        dispatch(windows.flush())
        merged = spec.build()
        for worker in sorted(sessions):
            merged.merge_from(sessions[worker])
        result = merged.result
        if wire:
            reply = protocol.decode(protocol.encode(
                {"type": "result", "result": protocol.to_wire(result)}))
            result = protocol.from_wire(reply["result"])
        results[admitted.job_id] = result
    wall = perf_counter() - start
    return wall, [results.get(job.job_id) for job in inputs.jobs]
