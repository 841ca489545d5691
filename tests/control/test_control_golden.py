"""Every control decision, pinned scenario by scenario.

``golden_control.json`` holds :func:`fingerprint` of every scenario in
:data:`SCENARIOS`, as the commit before the control plane's tunables
moved into one declaration computed it: the snapshot's ``control``
section, ``rebalances`` and ``makespan_cycles``, each tenant's
``stall_cycles``, the final fleet size, and the audit log
(:func:`repro.obs.decision_log` over a :class:`~repro.obs.MemorySink`
capture; its entries carry no wall stamps).  The scenarios cover the
three Fig. 9 regimes adaptive and reflexive, a burst freeze, autoscale
growth and shrinkage, a slipping tenant queue-delay SLO, concurrent
tenants adaptive and reflexive, a reflexive round-robin fleet, and the
reschedule cost's resolution in both modes.  The two scenarios added
last (``two-tenants/reflexive`` and ``reflexive/roundrobin``) were
written by the commit before reflexive replanning moved into the
controller.  Never regenerate the file to make a change pass.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs import MemorySink, TraceCollector, decision_log
from repro.service import StreamService, TenantSpec
from repro.workloads.evolving import EvolvingZipfStream
from repro.workloads.streams import NetworkModel, arrival_stream

GOLDEN = Path(__file__).with_name("golden_control.json")

#: 2 000 tuples of event time per window at line rate.
WINDOW_TUPLES = 2_000
WINDOW = WINDOW_TUPLES / NetworkModel().tuples_per_second


def _job(interval, total, seed, alpha=2.0, seed_cycle=None):
    return dict(interval=interval, total=total, seed=seed, alpha=alpha,
                seed_cycle=seed_cycle)


def _scenario(jobs, *, workers=4, balancer="skew", adaptive=True,
              slo=None, cost=None, policy=None, tenants=None):
    """``jobs`` maps a tenant id to its jobs' streams; ``tenants`` to
    its :class:`TenantSpec` keywords; ``policy`` overrides tunables."""
    return dict(jobs=jobs, workers=workers, balancer=balancer,
                adaptive=adaptive, slo=slo, cost=cost, policy=policy or {},
                tenants=tenants or {})


THRASH = _job(WINDOW_TUPLES, 40_000, 3)
STATIONARY = _job(40_000, 40_000, 5)
RECURRING = _job(8_000, 96_000, 11, seed_cycle=3)
FLAT = _job(40_000, 40_000, 7, alpha=0.0)

SCENARIOS = {
    "thrash/adaptive": _scenario({"default": [THRASH]}, cost=20_000),
    "thrash/reflexive": _scenario({"default": [THRASH]}, adaptive=False,
                                  cost=20_000),
    "stationary/adaptive": _scenario({"default": [STATIONARY]},
                                     cost=20_000),
    "stationary/reflexive": _scenario({"default": [STATIONARY]},
                                      adaptive=False, cost=20_000),
    "recurring/adaptive": _scenario({"default": [RECURRING]}, cost=500),
    "recurring/reflexive": _scenario({"default": [RECURRING]},
                                     adaptive=False, cost=500),
    "burst-freeze": _scenario(
        {"default": [_job(WINDOW_TUPLES, 10_000, 1, alpha=2.5)] * 2},
        cost=100, policy=dict(burst_tuples=WINDOW_TUPLES * 10)),
    "autoscale-grow": _scenario(
        {"default": [FLAT]}, workers=2, slo=0.04, cost=1_000,
        policy=dict(autoscale_every=2, scale_cooldown=0, max_workers=6)),
    "autoscale-shrink": _scenario(
        {"default": [_job(40_000, 40_000, 9, alpha=0.0)]}, slo=10.0,
        cost=1_000,
        policy=dict(autoscale_every=2, scale_cooldown=0, min_workers=2,
                    shrink_margin=0.9)),
    "tenant-slo-slip": _scenario(
        {"late": [_job(WINDOW_TUPLES * 4, 12_000, seed)
                  for seed in (2, 4, 6)]},
        workers=2, slo=100.0, cost=1_000,
        policy=dict(autoscale_every=2, max_workers=5),
        tenants={"late": dict(slo_delay_tuples=1_000)}),
    "two-tenants": _scenario(
        {"alpha": [_job(WINDOW_TUPLES * 3, 24_000, 1, alpha=1.8)],
         "beta": [_job(WINDOW_TUPLES * 5, 24_000, 2, alpha=2.5)]},
        cost=5_000, tenants={"alpha": dict(weight=2.0), "beta": {}}),
    "two-tenants/reflexive": _scenario(
        {"alpha": [_job(WINDOW_TUPLES * 3, 24_000, 1, alpha=1.8)],
         "beta": [_job(WINDOW_TUPLES * 5, 24_000, 2, alpha=2.5)]},
        adaptive=False, cost=5_000,
        tenants={"alpha": dict(weight=2.0), "beta": {}}),
    "reflexive/roundrobin": _scenario(
        {"default": [_job(6_000, 30_000, 4)]}, balancer="roundrobin",
        adaptive=False, cost=7_000),
    "reflexive/cost": _scenario({"default": [_job(6_000, 30_000, 4)]},
                                adaptive=False, cost=7_000),
    "reflexive/default-cost": _scenario(
        {"default": [_job(6_000, 30_000, 4)]}, adaptive=False),
    "adaptive/zero-cost": _scenario({"default": [_job(6_000, 30_000, 4)]},
                                    cost=0),
    "adaptive/default-cost": _scenario(
        {"default": [_job(6_000, 30_000, 4)]}),
}


def _stream(job):
    return EvolvingZipfStream(alpha=job["alpha"],
                              interval_tuples=job["interval"],
                              total_tuples=job["total"],
                              base_seed=job["seed"],
                              seed_cycle=job["seed_cycle"])


def _service(scenario, tracer):
    service = StreamService(
        workers=scenario["workers"], balancer=scenario["balancer"],
        adaptive=scenario["adaptive"], slo=scenario["slo"],
        reschedule_cost_cycles=scenario["cost"], tracer=tracer)
    if scenario["policy"]:
        service.controller.policy = replace(service.controller.policy,
                                            **scenario["policy"])
    return service


def fingerprint(name):
    """The control plane's outputs and audit log for one scenario."""
    scenario = SCENARIOS[name]
    tracer = TraceCollector(enabled=True)
    sink = tracer.add_sink(MemorySink())
    service = _service(scenario, tracer)
    try:
        for tenant, spec in scenario["tenants"].items():
            service.register_tenant(TenantSpec(tenant, **spec))
        for tenant, jobs in scenario["jobs"].items():
            for index, job in enumerate(jobs):
                service.submit("histo", arrival_stream(_stream(job)),
                               window_seconds=WINDOW, tenant_id=tenant,
                               job_id=f"{tenant}-{index}")
        service.run()
        snapshot = service.metrics.snapshot()
        workers = service.balancer.workers
    finally:
        service.shutdown()
    observed = {
        "control": snapshot["control"],
        "rebalances": snapshot["rebalances"],
        "makespan_cycles": snapshot["makespan_cycles"],
        "stall_cycles": {tenant: record["stall_cycles"]
                         for tenant, record in snapshot["tenants"].items()},
        "workers": workers,
        "decisions": decision_log(sink.events),
    }
    # Through JSON, as the golden was written.
    return json.loads(json.dumps(observed))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


def test_golden_exercises_every_decision(golden):
    """The scenarios reach each verdict the loop can take, or the file
    pins nothing that a tunable read in the wrong place could change."""
    verdicts = {entry.get("decision") for scenario in golden.values()
                for entry in scenario["decisions"]}
    assert {"replan", "hold", "freeze"} <= verdicts
    reasons = {entry.get("reason") for scenario in golden.values()
               for entry in scenario["decisions"]}
    assert {"grow", "shrink"} <= reasons


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_control_matches_golden(golden, name):
    assert fingerprint(name) == golden[name]
