"""Multi-tenant fairness headlines: weighted shares and flood isolation.

The serving fleet now schedules *tenants*, not just jobs: the admission
queue runs virtual-time weighted-fair queueing across per-tenant
sub-queues and the dispatcher interleaves in-flight jobs' sources in
weight proportion.  Two asserted headlines, both under Zipf 1.5
contention on a 4-worker fleet:

* **weighted shares**: with a 3:1 weight split and both tenants
  backlogged, the tuples served per tenant over a fixed admission
  horizon land within 10% of the configured 3:1 split;
* **flood isolation**: a "batch" tenant flooding high-priority jobs no
  longer starves an "interactive" tenant — the interactive p95 queue
  delay (measured on the deterministic dispatch clock) improves >= 2x
  over the same flood submitted under one tenant id, where the queue's
  strict-priority order serves the entire flood first.
"""

import numpy as np

from repro.service import StreamService, TenantSpec
from repro.workloads.streams import chunk_stream
from repro.workloads.zipf import ZipfGenerator

WORKERS = 4
ALPHA = 1.5
#: One job's stream: JOB_TUPLES tuples in CHUNK-sized source batches.
JOB_TUPLES = 8_000
CHUNK = 4_000
#: Event-time window sized to one chunk at 100 Gbps line rate.
WINDOW_SECONDS = 2.56e-6
#: The interactive tenant's queue-delay SLO, in dispatch-clock tuples.
SLO_DELAY_TUPLES = 30_000


def job_source(seed: int):
    return chunk_stream(
        ZipfGenerator(alpha=ALPHA, seed=seed).generate(JOB_TUPLES), CHUNK)


def test_weighted_throughput_shares_follow_weights(emit):
    """Gold (weight 3) and bronze (weight 1), both with deep backlogs:
    over a 16-job admission horizon the served tuples split ~3:1."""
    service = StreamService(workers=WORKERS, balancer="skew")
    service.register_tenant(TenantSpec("gold", weight=3.0))
    service.register_tenant(TenantSpec("bronze", weight=1.0))
    for index in range(18):
        service.submit("histo", job_source(seed=index),
                       window_seconds=WINDOW_SECONDS, tenant_id="gold")
        service.submit("histo", job_source(seed=100 + index),
                       window_seconds=WINDOW_SECONDS, tenant_id="bronze")
    served = service.run(max_jobs=16)
    snap = service.metrics.snapshot()["tenants"]
    service.shutdown()

    gold, bronze = snap["gold"], snap["bronze"]
    total = gold["tuples"] + bronze["tuples"]
    share = gold["tuples"] / total
    target = 3.0 / 4.0
    error = abs(share - target) / target

    emit("tenant_weighted_shares",
         f"2 tenants, weights 3:1, Zipf {ALPHA}, {served} jobs served:\n"
         f"  gold   : {gold['jobs']['completed']} jobs, "
         f"{gold['tuples']:,} tuples\n"
         f"  bronze : {bronze['jobs']['completed']} jobs, "
         f"{bronze['tuples']:,} tuples\n"
         f"  gold share {share:.3f} vs configured {target:.3f} "
         f"({error:.1%} off)",
         data={
             "weights": {"gold": 3.0, "bronze": 1.0},
             "jobs_completed": {"gold": gold["jobs"]["completed"],
                                "bronze": bronze["jobs"]["completed"]},
             "tuples": {"gold": gold["tuples"],
                        "bronze": bronze["tuples"]},
             "gold_share": share,
             "configured_share": target,
             "relative_error": error,
         })

    assert served == 16
    assert gold["jobs"]["completed"] + bronze["jobs"]["completed"] == 16
    assert error <= 0.10, (
        f"gold's throughput share {share:.3f} is {error:.1%} off the "
        f"configured {target:.3f}")


def serve_flood(isolated: bool):
    """A batch flood (10 high-priority jobs) ahead of 4 interactive
    jobs.  ``isolated`` submits them as two tenants weighted 1:3; the
    baseline submits the same jobs under one tenant id — no tenant
    isolation, so the queue pops in plain strict-priority order and the
    dispatcher runs one job at a time.  Returns the interactive jobs'
    queue delays and the per-tenant metrics snapshot."""
    service = StreamService(workers=WORKERS, balancer="skew")
    service.register_tenant(TenantSpec(
        "interactive", weight=3.0, slo_delay_tuples=SLO_DELAY_TUPLES))
    service.register_tenant(TenantSpec("batch", weight=1.0))
    for index in range(10):
        service.submit("histo", job_source(seed=index), priority=5,
                       window_seconds=WINDOW_SECONDS,
                       tenant_id="batch" if isolated else "shared")
    interactive = [
        service.submit("hll", job_source(seed=200 + index),
                       window_seconds=WINDOW_SECONDS,
                       tenant_id="interactive" if isolated else "shared")
        for index in range(4)
    ]
    served = service.run()
    snapshot = service.metrics.snapshot()
    delays = [service.result(job_id).queue_delay
              for job_id in interactive]
    service.shutdown()
    assert served == 14
    assert snapshot["jobs"]["completed"] == 14
    return delays, snapshot["tenants"]


def p95(delays) -> float:
    return float(np.percentile(delays, 95))


def slo_attainment(delays) -> float:
    return sum(delay <= SLO_DELAY_TUPLES for delay in delays) / len(delays)


def test_batch_flood_no_longer_starves_interactive_tenant(emit):
    """The same flood with and without tenant isolation: weighted-fair
    queueing cuts the interactive jobs' p95 queue delay >= 2x vs the
    single-tenant strict-priority order."""
    shared_delays, _ = serve_flood(isolated=False)
    fair_delays, fair = serve_flood(isolated=True)
    shared_p95, fair_p95 = p95(shared_delays), p95(fair_delays)
    improvement = shared_p95 / max(fair_p95, 1.0)
    # The per-job delays are the service's own accounting, read per job
    # because the baseline has no "interactive" tenant to break out.
    assert fair["interactive"]["queue_delay"]["p95"] == fair_p95
    assert fair["interactive"]["slo_attainment"] \
        == slo_attainment(fair_delays)

    emit("tenant_flood_isolation",
         "interactive p95 queue delay under a 10-job batch flood "
         "(dispatch-clock tuples):\n"
         f"  one tenant (strict) : {shared_p95:,.0f} "
         f"(SLO attainment {slo_attainment(shared_delays):.0%})\n"
         f"  weighted-fair (3:1) : {fair_p95:,.0f} "
         f"(SLO attainment {slo_attainment(fair_delays):.0%})\n"
         f"  improvement         : {improvement:.1f}x",
         data={
             "single_tenant_p95_delay": shared_p95,
             "fair_p95_delay": fair_p95,
             "improvement": improvement,
             "single_tenant_slo_attainment":
                 slo_attainment(shared_delays),
             "fair_slo_attainment": slo_attainment(fair_delays),
             "batch_tuples_fair": fair["batch"]["tuples"],
             "interactive_tuples_fair": fair["interactive"]["tuples"],
         })

    # Without isolation the whole 80 000-tuple flood is served first,
    # then the interactive jobs one behind the other.
    assert shared_delays == [80_000, 88_000, 96_000, 104_000]
    assert shared_p95 == 102_800
    assert improvement >= 2.0, (
        "fair queueing only improved interactive p95 queue delay "
        f"{improvement:.1f}x over the single-tenant strict order")
    # The SLO story matches: without isolation the interactive jobs
    # miss their SLO, with it they meet it.
    assert slo_attainment(fair_delays) > slo_attainment(shared_delays)
