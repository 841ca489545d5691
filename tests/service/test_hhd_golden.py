"""Heavy-hitter answers through the service, pinned scenario by scenario.

``golden_hhd_results.json`` holds :func:`fingerprint` of every scenario
in :data:`SCENARIOS`, as the commit before by-key routing dropped its
sticky key table computed it: per job, the tuple count and the sorted
``(key, estimate)`` items of the merged answer.  HHD's answer is
collected per segment, and the fleet sends each window whole to one
worker (``window_index % K``), so a window is one segment whatever the
fleet: every scenario must also equal the same jobs served by one
worker.  The streams shift their hot keys every few windows, so the
plan changes under the jobs, and the answer must not follow it.
Cycles are not pinned; never regenerate the file to make a change
pass.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.service import StreamService, TenantSpec
from repro.workloads.evolving import EvolvingZipfStream
from repro.workloads.streams import chunk_stream

GOLDEN = Path(__file__).with_name("golden_hhd_results.json")

#: 1.5625 tuples/ns at line rate: 3 125-tuple windows.
WINDOW = 2e-6
#: Per-segment detection threshold (about 1 % of a window).
THRESHOLD = 32
#: Tuples per job: eight 12 000-tuple intervals, a hot-key set each.
TUPLES = 96_000


def _scenario(workers, control=None, backend="inline", tenants=1):
    """``tenants`` HHD jobs, one per tenant, served concurrently."""
    return dict(workers=workers, control=control, backend=backend,
                tenants=tenants)


SCENARIOS = {
    "w4/reflexive": _scenario(4),
    "w6/reflexive": _scenario(6),
    "w8/reflexive": _scenario(8),
    "w4/adaptive": _scenario(4, "adaptive"),
    "w6/adaptive": _scenario(6, "adaptive"),
    "w8/adaptive": _scenario(8, "adaptive"),
    "w6/adaptive+slo": _scenario(6, "slo"),
    "w8/adaptive+slo": _scenario(8, "slo"),
    "w6/reflexive/two-tenants": _scenario(6, tenants=2),
    "w8/adaptive+slo/two-tenants": _scenario(8, "slo", tenants=2),
    "w4/reflexive/process": _scenario(4, backend="process"),
    "w6/adaptive/process": _scenario(6, "adaptive", backend="process"),
}


def _stream(seed):
    """Zipf 2 tuples whose hot keys move every four windows."""
    return EvolvingZipfStream(alpha=2.0, interval_tuples=12_000,
                              total_tuples=TUPLES,
                              base_seed=seed).materialize()


def fingerprint(scenario):
    """Each job's tuples and answer, and the plan changes served."""
    control = scenario["control"]
    service = StreamService(workers=scenario["workers"], balancer="skew",
                            backend=scenario["backend"],
                            adaptive=control is not None,
                            slo=2.0 if control == "slo" else None)
    jobs = {}
    try:
        for index in range(scenario["tenants"]):
            tenant = f"t{index}"
            service.register_tenant(TenantSpec(tenant))
            jobs[tenant] = service.submit(
                "hhd", chunk_stream(_stream(7 + index), 2_000),
                window_seconds=WINDOW, params={"threshold": THRESHOLD},
                tenant_id=tenant, job_id=f"hhd-{tenant}")
        service.run()
        results = {tenant: service.result(job_id)
                   for tenant, job_id in jobs.items()}
        rebalances = service.balancer.rebalances
    finally:
        service.shutdown()
    return {
        "jobs": {tenant: {"tuples": result.tuples,
                          "hitters": sorted(
                              [int(key), int(estimate)]
                              for key, estimate in result.result.items())}
                 for tenant, result in results.items()},
        "rebalances": rebalances,
    }


@lru_cache(maxsize=None)
def one_worker(tenants):
    """The jobs of a ``tenants`` scenario served by one inline worker."""
    return fingerprint(_scenario(1, tenants=tenants))["jobs"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)
    for name, jobs in golden.items():
        assert len(jobs) == SCENARIOS[name]["tenants"]
        for job in jobs.values():
            assert job["tuples"] == TUPLES
            assert job["hitters"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_hhd_answers_match_golden(golden, name):
    observed = fingerprint(SCENARIOS[name])
    # The plan must move under the jobs, or the scenario would not show
    # that an HHD window's worker ignores the plan in force.
    assert observed["rebalances"] > 0
    assert observed["jobs"] == golden[name]
    assert observed["jobs"] == one_worker(SCENARIOS[name]["tenants"])
