"""Stream-serving demo: a multi-tenant fleet with skew-aware balancing.

Spins up a 4-worker pipeline fleet, submits a mix of jobs (different
applications, priorities and deadlines), serves them, verifies the
histogram job against its golden reference, and then re-runs the same
skewed stream under naive round-robin sharding to show the fleet-level
speedup of the paper's greedy plan applied across workers.

Act three turns on the adaptive control plane: the hot keys move
every window (the paper's Fig. 9 thrashing regime) and rescheduling
carries a realistic stall, so the reflexive per-window replanner
collapses while `StreamService(adaptive=True)` detects the thrash and
holds its plan.

Act four is multi-tenant fairness: a batch flood reaches the queue
ahead of some interactive jobs.  Submitted under one tenant id (no
tenant isolation: plain strict-priority order) the interactive jobs
wait behind the whole flood; as two tenants under weighted-fair
queueing (interactive weight 3, batch weight 1) they are interleaved
from the start and their queue delay collapses.

Act five puts a wire in front of the fleet: the same skewed histogram
stream arrives over TCP through the `repro.net` gateway under
credit-based backpressure, and the result is bit-identical to the
in-process submission.

Act six swaps the execution backend: the same fleet runs once inline
on the dispatcher thread and once on warm pre-forked worker subprocesses
(`backend="process"`), producing the golden histogram bit for bit both
times — the process fleet is the multi-core wall-time path.

Act seven turns the lights on: an adaptive multi-tenant burst runs
with structured tracing enabled (`repro.obs`), the captured trace is
tailed, and the per-tenant stage-latency breakdown (queue / dispatch /
execute / merge) plus the control plane's decision audit log are
rendered straight from the events — the same analysis `repro trace`
runs on a JSONL capture.

Run:  python examples/service_demo.py
"""

import numpy as np

from repro.service import StreamService, TenantSpec
from repro.service.jobs import kernel_for
from repro.workloads.evolving import EvolvingZipfStream
from repro.workloads.streams import arrival_stream, chunk_stream
from repro.workloads.zipf import ZipfGenerator

WORKERS = 4
WINDOW = 2.56e-6  # 2.56 us of event time per window (4k tuples @100Gbps)


def zipf_source(alpha: float, tuples: int, seed: int):
    return chunk_stream(ZipfGenerator(alpha=alpha, seed=seed)
                        .generate(tuples), 4_000)


def main() -> None:
    service = StreamService(workers=WORKERS, balancer="skew")

    # A paying tenant's cardinality feed (high priority), a skewed
    # histogram feed with a deadline, and a batch partitioning job.
    hll = service.submit("hll", zipf_source(0.8, 12_000, seed=1),
                         priority=5, window_seconds=WINDOW)
    histo = service.submit("histo", zipf_source(1.8, 12_000, seed=2),
                           priority=1, deadline=2e-3,
                           window_seconds=WINDOW)
    dp = service.submit("dp", zipf_source(1.2, 8_000, seed=3),
                        window_seconds=WINDOW)

    served = service.run()
    print(f"served {served} jobs on {WORKERS} workers "
          f"[{service.balancer.describe()}]\n")
    for job_id in (hll, histo, dp):
        status = service.poll(job_id)
        result = service.result(job_id)
        print(f"  {job_id}: {status['app']:<6} {status['status']}  "
              f"{result.tuples:,} tuples in {result.segments} segments")

    # The running histogram equals the golden reference of the whole
    # stream, despite sharding across workers and windows.
    batch = ZipfGenerator(alpha=1.8, seed=2).generate(12_000)
    golden = kernel_for("histo", 16).golden(batch.keys, batch.values)
    assert np.array_equal(service.result(histo).result, golden)
    print("\nhistogram matches the golden reference across "
          "windows x workers")

    print()
    print(service.metrics.render())
    service.shutdown()

    # Same skewed stream, one job per fresh fleet, both balancers.
    rates = {}
    for balancer in ("roundrobin", "skew"):
        fleet = StreamService(workers=WORKERS, balancer=balancer)
        fleet.submit("histo", zipf_source(1.8, 12_000, seed=2),
                     window_seconds=WINDOW)
        fleet.run()
        rates[balancer] = fleet.metrics.fleet_throughput()
        fleet.shutdown()

    print(f"\nfleet throughput on the skewed histogram stream:")
    print(f"  round-robin sharding : {rates['roundrobin']:.3f} "
          f"tuples/cycle")
    print(f"  skew-aware balancer  : {rates['skew']:.3f} tuples/cycle "
          f"({rates['skew'] / rates['roundrobin']:.2f}x)")

    # Act three: the hot keys now MOVE every window, and each plan
    # change stalls the fleet (detection + drain + re-enqueue).  The
    # reflexive balancer replans itself into the ground; the adaptive
    # controller recognises the thrashing regime and holds the plan.
    cost = 20_000  # cycles per applied plan
    evolving = lambda: EvolvingZipfStream(  # noqa: E731
        alpha=2.0, interval_tuples=4_000, total_tuples=40_000, base_seed=3)
    adaptive_rates = {}
    for label, kwargs in (
        ("reflexive", dict()),
        ("adaptive", dict(adaptive=True)),
    ):
        fleet = StreamService(workers=WORKERS, balancer="skew",
                              reschedule_cost_cycles=cost, **kwargs)
        fleet.submit("histo", arrival_stream(evolving()),
                     window_seconds=WINDOW)
        fleet.run()
        adaptive_rates[label] = fleet.metrics.fleet_throughput()
        summary = fleet.metrics.snapshot()
        print(f"\n{fleet.controller.describe()} under evolving skew: "
              f"{summary['rebalances']} plan changes, "
              f"{summary['control']['drift_events']} drift events, "
              f"{summary['control']['replans_suppressed']} replans "
              f"suppressed")
        fleet.shutdown()

    print(f"evolving hot keys ({cost:,}-cycle reschedule stall):")
    print(f"  reflexive replanning : "
          f"{adaptive_rates['reflexive']:.3f} tuples/cycle")
    print(f"  adaptive control     : "
          f"{adaptive_rates['adaptive']:.3f} tuples/cycle "
          f"({adaptive_rates['adaptive'] / adaptive_rates['reflexive']:.2f}x)")

    # Act four: a batch flood is queued before the interactive jobs.
    # Under one tenant id the queue's strict priority serves the whole
    # flood first; as two tenants, weighted-fair queueing interleaves
    # them 3:1.
    delays = {}
    for label, batch, interactive in (
            ("one tenant", "shared", "shared"),
            ("fair", "batch", "interactive")):
        fleet = StreamService(workers=WORKERS, balancer="skew")
        fleet.register_tenant(TenantSpec("interactive", weight=3.0,
                                         slo_delay_tuples=30_000))
        fleet.register_tenant(TenantSpec("batch", weight=1.0))
        for seed in range(8):
            fleet.submit("histo", zipf_source(1.5, 8_000, seed=seed),
                         priority=5, window_seconds=WINDOW,
                         tenant_id=batch)
        jobs = [
            fleet.submit("hll", zipf_source(0.8, 8_000, seed=100 + seed),
                         window_seconds=WINDOW, tenant_id=interactive)
            for seed in range(3)
        ]
        fleet.run()
        delays[label] = float(np.percentile(
            [fleet.result(job).queue_delay for job in jobs], 95))
        fleet.shutdown()

    print(f"\ninteractive p95 queue delay under a batch flood "
          f"(dispatch-clock tuples):")
    print(f"  one tenant (strict)  : {delays['one tenant']:,.0f}")
    print(f"  weighted-fair (3:1)  : {delays['fair']:,.0f} "
          f"({delays['one tenant'] / max(delays['fair'], 1):.1f}x better)")

    # Act five: the histogram stream now arrives over a real TCP
    # socket.  A small high-water mark forces the client through the
    # credit protocol, and the merged result still matches the golden
    # reference bit for bit.
    from repro.net import StreamClient, StreamGateway

    fleet = StreamService(workers=WORKERS, balancer="skew",
                          retained_jobs=64)
    gateway = StreamGateway(fleet, high_water=2)
    gateway.start()
    with StreamClient(gateway.host, gateway.port) as client:
        job = client.submit_stream("histo", zipf_source(1.8, 12_000,
                                                        seed=2),
                                   window_seconds=WINDOW)
        wire_result = client.result(job)
    gateway.stop()
    snap = fleet.metrics.snapshot()["gateway"]
    fleet.shutdown()
    assert np.array_equal(wire_result.result, golden)
    print(f"\nnetwork front-end ({gateway.describe()}):")
    print(f"  {snap['batches_ingested']} batches "
          f"({snap['tuples_ingested']:,} tuples) over TCP, "
          f"{snap['credit_stalls']} credit stalls, "
          f"{snap['batches_shed']} shed")
    print("  wire result matches the in-process golden reference "
          "bit for bit")

    # Act six: the same fleet, but the workers are warm pre-forked
    # subprocesses (backend="process") instead of running inline on
    # the dispatcher thread.  Shards travel as raw NumPy buffers over
    # pipes and partial sessions merge from compact snapshots — yet the
    # merged histogram is bit-identical to the inline run.  On a
    # multi-core host this is the configuration where K workers finally
    # mean K cores (see benchmarks/test_fleet_scaling.py for the
    # wall-time curve).
    import time

    times = {}
    for backend in ("inline", "process"):
        fleet = StreamService(workers=WORKERS, balancer="skew",
                              backend=backend)
        started = time.perf_counter()
        job = fleet.submit("histo", zipf_source(1.8, 12_000, seed=2),
                           window_seconds=WINDOW)
        fleet.run()
        times[backend] = time.perf_counter() - started
        backend_result = fleet.result(job).result
        fleet.shutdown()
        assert np.array_equal(backend_result, golden)
    print(f"\nexecution backends ({WORKERS} workers):")
    print(f"  inline (dispatcher)  : {times['inline']:.2f}s wall")
    print(f"  warm subprocesses    : {times['process']:.2f}s wall "
          f"({times['inline'] / times['process']:.2f}x)")
    print("  both backends produce the golden histogram bit for bit")

    # Act seven: the same adaptive multi-tenant burst, but traced.
    # Every layer emits structured events into one collector — job
    # lifecycle spans stamped with the deterministic dispatch clock,
    # the controller's drift/replan verdicts with their regime inputs,
    # and backend fork/drain — and the analysis below is exactly what
    # `repro trace capture.jsonl --decisions` prints offline.
    from repro.obs import (
        TraceCollector,
        decision_log,
        render_breakdown,
        stage_breakdown,
    )

    tracer = TraceCollector(enabled=True)
    fleet = StreamService(workers=WORKERS, balancer="skew",
                          adaptive=True, slo=2.0,
                          reschedule_cost_cycles=cost, tracer=tracer)
    fleet.register_tenant(TenantSpec("interactive", weight=3.0,
                                     slo_delay_tuples=30_000))
    fleet.register_tenant(TenantSpec("batch", weight=1.0))
    for seed in range(4):
        fleet.submit("histo", zipf_source(1.5, 8_000, seed=seed),
                     priority=5, window_seconds=WINDOW,
                     tenant_id="batch")
    fleet.submit("histo", arrival_stream(evolving()),
                 window_seconds=WINDOW, tenant_id="batch")
    for seed in range(3):
        fleet.submit("hll", zipf_source(0.8, 8_000, seed=100 + seed),
                     window_seconds=WINDOW, tenant_id="interactive")
    fleet.run()
    fleet.shutdown()

    events = tracer.events()
    print(f"\ntraced burst: {tracer.describe()}")
    print("  last events in the capture:")
    for event in events[-3:]:
        print(f"    {event.to_json()}")
    print("\nper-tenant stage latency (queue/dispatch in clock tuples, "
          "execute in cycles, merge in ms):")
    print(render_breakdown(stage_breakdown(events)))
    decisions = decision_log(events)
    print(f"\ncontrol decision audit log ({len(decisions)} entries, "
          "first 6):")
    for entry in decisions[:6]:
        detail = " ".join(f"{k}={v}" for k, v in entry.items()
                          if k not in ("kind", "clock", "tenant_id")
                          and v is not None)
        print(f"  @{entry['clock']:<8} {entry['kind']:<16} {detail}")


if __name__ == "__main__":
    main()
