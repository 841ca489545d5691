"""The traced pass: per-layer metrics from three views of one workload.

* *in situ* — one more repetition with the span wrappers installed:
  where the real, threaded run spent its time, GIL waits included
  (``service.server.*``, ``service.backend.*``, worker busy time);
* *serial replay* — the same input through the same public calls on one
  thread (:mod:`bench.replay`): contention-free cost per layer
  (``service.queue/windows/balancer``, ``control``, ``runtime.session``
  per-shard figures, ``service.server.serial_sum_s``);
* *direct* — :mod:`bench.micro` loops over single functions.

Counts come from the program's own ``snapshot()`` of the in-situ
repetition.  A metric that does not apply to a workload (no gateway, no
controller, workers out of process) is reported as 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

import numpy as np

from bench import RESULTS, micro
from bench.replay import replay
from bench.tracing import (
    SpanRecorder,
    busy_by_thread,
    totals,
    write_jsonl,
)
from bench.workloads import (
    Inputs,
    Rep,
    ServiceWorkload,
    WireWorkload,
    Workload,
    matches,
    run_rep,
)
from repro.obs.collector import TraceCollector

NO_SPANS = {"count": 0, "total_s": 0.0, "self_s": 0.0}


def _counter(rep: Rep, *path: str) -> float:
    """A counter of the repetition's ``snapshot()`` (0 where the
    workload has none); on the long-lived gateway service, its growth
    over the repetition."""
    def dig(tree: Any) -> float:
        for key in path:
            tree = tree.get(key, {})
        return tree or 0

    return dig(rep.detail["snapshot"]) \
        - dig(rep.detail.get("snapshot_before", {}))


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def traced_pass(workload: Workload, inputs: Inputs, shared: Any,
                warm: Rep, timed: List[Rep],
                generate_s: float) -> Tuple[Dict[str, float], int]:
    """Returns the per-layer metrics and how many reference checks the
    pass's own repetitions (replay, tracer-enabled) failed."""
    wall = statistics.median(rep.wall_s for rep in timed)
    tuples = inputs.tuples
    is_wire = isinstance(workload, WireWorkload)

    # -- in situ ---------------------------------------------------------
    insitu = SpanRecorder("insitu")
    with insitu.installed():
        traced = run_rep(workload, inputs, shared, recorder=insitu)
    live = totals(insitu)

    # -- serial replay ---------------------------------------------------
    serial = SpanRecorder("replay")
    replay_wall = 0.0
    replay_failed = 0
    if workload.replayable:
        with serial.installed():
            replay_wall, results = replay(workload, inputs, serial,
                                          wire=is_wire)
        replay_failed = sum(
            not matches(job.app, result, job.expected)
            for job, result in zip(inputs.jobs, results))
    flat = totals(serial)
    serial_sum = sum(row["self_s"] for row in flat.values())

    if insitu.dropped or serial.dropped:
        raise RuntimeError("span recorder overflowed; raise its capacity")
    RESULTS.mkdir(parents=True, exist_ok=True)
    write_jsonl(RESULTS / f"trace_{workload.name}.jsonl", [insitu, serial])

    def live_row(name: str) -> Dict[str, float]:
        return live.get(name, NO_SPANS)

    def flat_row(name: str) -> Dict[str, float]:
        return flat.get(name, NO_SPANS)

    failed = replay_failed + traced.failed
    out: Dict[str, float] = {}
    out["harness.host_slowdown"] = statistics.median(
        rep.slowdown for rep in timed)
    out["harness.generate_s"] = generate_s
    out["harness.source_next_s"] = traced.detail.get("source_next_s", 0.0)
    out["harness.first_rep_ratio"] = warm.wall_s / wall
    out["harness.trace_overhead_ratio"] = traced.wall_s / wall
    out["harness.replay_attributed_share"] = _per(serial_sum, replay_wall)

    run = live_row("service.server.run")
    drain = live_row("service.backend.drain")
    out["service.server.serial_sum_s"] = serial_sum
    out["service.server.contention_ratio"] = _per(wall, serial_sum)
    out["service.server.dispatcher_busy_share"] = _per(
        run["total_s"] - drain["total_s"], run["total_s"])
    submit = live_row("service.server.submit")
    out["service.server.submit_us"] = _per(
        submit["total_s"], submit["count"], 1e6)

    for op in ("submit", "pop"):
        row = flat_row(f"service.queue.{op}")
        out[f"service.queue.{op}_us"] = _per(
            row["total_s"], row["count"], 1e6)

    observe_s = flat_row("service.windows.observe")["self_s"] \
        + flat_row("service.windows.flush")["self_s"]
    out["service.windows.observe_s"] = observe_s
    out["service.windows.observe_ns_per_tuple"] = _per(
        observe_s, tuples, 1e9)
    out["service.windows.to_batch_s"] = \
        flat_row("service.windows.to_batch")["self_s"]
    split_s = flat_row("service.balancer.split")["self_s"]
    out["service.balancer.observe_s"] = \
        flat_row("service.balancer.observe")["self_s"]
    out["service.balancer.split_s"] = split_s
    out["service.balancer.split_ns_per_tuple"] = _per(split_s, tuples, 1e9)
    out["hashing.murmur3.keys_hashed_per_tuple"] = _per(
        serial.hashed_keys, tuples)

    dispatch = live_row("service.backend.dispatch")
    out["service.backend.start_s"] = \
        live_row("service.backend.start")["total_s"]
    out["service.backend.dispatch_s"] = dispatch["total_s"]
    out["service.backend.dispatch_us_per_shard"] = _per(
        dispatch["total_s"], dispatch["count"], 1e6)
    out["service.backend.drain_s"] = drain["total_s"]
    out["service.backend.collect_s"] = \
        live_row("service.backend.collect")["self_s"]
    out["service.backend.stop_s"] = \
        live_row("service.backend.stop")["total_s"]
    out["service.backend.shards"] = dispatch["count"]

    process = flat_row("runtime.session.process")
    busy = busy_by_thread(insitu, "runtime.session.process")
    out["runtime.session.process_s"] = sum(busy.values())
    out["runtime.session.worker_busy_max_s"] = max(busy.values(),
                                                   default=0.0)
    out["runtime.session.us_per_shard"] = _per(
        process["total_s"], process["count"], 1e6)
    out["runtime.session.ns_per_tuple"] = _per(
        process["total_s"], tuples, 1e9)
    out["runtime.session.merge_s"] = \
        flat_row("runtime.session.merge")["self_s"]

    on_window = flat_row("control.on_window")
    out["control.on_window_s"] = on_window["self_s"]
    out["control.on_window_us_per_window"] = _per(
        on_window["total_s"], on_window["count"], 1e6)

    # -- the program's own counters --------------------------------------
    snapshot = traced.detail["snapshot"]
    out["service.windows.closed"] = _counter(traced, "windows_closed")
    out["service.windows.late_tuples"] = _counter(traced, "late_tuples")
    out["service.balancer.rebalances"] = _counter(traced, "rebalances")
    loads = [worker["tuples"]
             for worker in snapshot.get("workers", {}).values()]
    out["service.balancer.shard_skew"] = _per(
        max(loads, default=0), statistics.fmean(loads) if loads else 0)
    out["service.shm.bytes_copied"] = _counter(
        traced, "transport", "shard_bytes_copied")
    out["service.shm.bytes_shared"] = _counter(
        traced, "transport", "shard_bytes_shared")
    out["service.shm.slab_fallbacks"] = _counter(
        traced, "transport", "slab_fallbacks")
    out["control.replans"] = _counter(traced, "control", "replans_applied")
    out["control.decisions"] = out["control.replans"] + _counter(
        traced, "control", "replans_suppressed")
    out["control.plan_cache_hit_rate"] = snapshot.get("control", {}).get(
        "plan_cache_hit_rate", 0.0)
    out["sim_tuples_per_cycle"] = statistics.median(
        rep.sim_tuples_per_cycle for rep in timed)
    gold = snapshot.get("tenants", {}).get("gold")
    out["queue_delay_tuples_p95"] = \
        gold["queue_delay"]["p95"] if gold else 0.0

    # -- wire, client side -----------------------------------------------
    send_ms = [ms / rep.slowdown for rep in timed
               for ms in rep.detail.get("send_ms", ())]
    out["batch_send_ms_p50"], out["batch_send_ms_p99"] = \
        np.percentile(send_ms, (50, 99)).tolist() if send_ms else (0.0, 0.0)
    out["net.client.credit_stalls"] = sum(
        rep.detail.get("credit_stalls", 0) for rep in timed)
    out["net.client.result_wait_ms"] = statistics.median(
        rep.detail.get("result_wait_ms", 0.0) for rep in timed)
    out["net.gateway.spawn_s"] = traced.detail.get("spawn_s", 0.0)
    out["net.gateway.batches"] = _counter(
        traced, "gateway", "batches_ingested")
    out["net.gateway.sheds"] = _counter(traced, "gateway", "batches_shed")
    out["net.gateway.ingest_depth_p95"] = snapshot.get("gateway", {}).get(
        "ingest_depth", {}).get("p95", 0.0)

    # -- cycle simulator -------------------------------------------------
    out["cycle_model_error_max"] = \
        traced.detail.get("cycle_model_error_max", 0.0)
    out["sim.cycles"] = traced.detail.get("sim_cycles", 0)
    out["core.profiler.plans"] = traced.detail.get("plans", 0)
    out["sim.host_us_per_cycle"] = statistics.median(
        _per(rep.detail.get("cycle_engine_s", 0.0),
             rep.detail.get("sim_cycles", 0), 1e6) for rep in timed)

    # -- the program's tracer, enabled -----------------------------------
    out["obs.enabled_wall_ratio"] = out["obs.events_per_mtuple"] = 0.0
    if isinstance(workload, ServiceWorkload):
        tracer = TraceCollector(enabled=True)
        observed = run_rep(workload, inputs, tracer=tracer)
        out["obs.enabled_wall_ratio"] = observed.wall_s / wall
        out["obs.events_per_mtuple"] = tracer.emitted / (tuples / 1e6)
        failed += observed.failed

    out.update(micro.measure(inputs))
    return out, failed
