"""The seven workloads: inputs, one timed repetition, reference checks.

Every workload exposes the same five calls — ``generate`` (inputs from
a seed, before any clock starts), ``reference`` (expected results,
untimed), ``open`` / ``close`` (what ``setup_s`` times: a fresh service
with its backend started, or the gateway child up and greeted) and
``rep`` (the timed region ``submit() -> run() -> result()``).  Load is
generated by the calling thread alone; on the wire workload it is one
closed-loop TCP connection.

Sizes are the issue's nominal sizes times :data:`SIZE_FACTOR`, the one
common factor that lets at least four timed repetitions of the slowest
workload fit into ``run_seconds`` (see README, "Sizes").
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from bench import RESULTS, SRC
from bench.harness import children_peak_rss_kb, tree_cpu_seconds
from repro.apps.histo import HistogramKernel
from repro.core.architecture import SkewObliviousArchitecture
from repro.core.config import ArchitectureConfig
from repro.net.client import StreamClient
from repro.service import StreamService, TenantSpec
from repro.service.jobs import kernel_for
from repro.workloads.streams import TimestampedBatch, chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator

#: Fleet size of every service workload (the service default).
WORKERS = 4
#: Common factor applied to the issue's nominal tuple counts.
SIZE_FACTOR = 0.4
#: ``--quick``: a further 1/20, for the self-tests.
QUICK_FACTOR = 1 / 20

#: 2.56 us of event time is one 4 000-tuple chunk at the paper's line
#: rate (1.5625 G tuples/s), so every chunk closes exactly one window.
SMALL_WINDOW = 2.56e-6
SMALL_CHUNK = 4_000


@dataclass
class JobPlan:
    app: str
    alpha: float
    tuples: int
    chunk: int = SMALL_CHUNK
    window_seconds: float = SMALL_WINDOW
    tenant: Optional[str] = None


@dataclass
class JobInput:
    job_id: str
    app: str
    tenant: Optional[str]
    window_seconds: float
    batch: TupleBatch
    chunks: List[TimestampedBatch]
    expected: Any = None


@dataclass
class Inputs:
    jobs: List[JobInput]
    tuples: int


@dataclass
class Rep:
    """What one repetition measured (timed region only)."""

    wall_s: float
    cpu_s: float
    tuples: int
    attempted: int
    failed: int
    sim_tuples_per_cycle: float
    children_rss_kb: int = 0
    digest: str = ""
    #: Host slowdown factor while this repetition ran (set by the
    #: measuring loop, see ``harness.host_kernel``).
    slowdown: float = 1.0
    #: Workload-specific observations: the service's ``snapshot()``,
    #: per-batch send times, the cycle model's error, ...
    detail: Dict[str, Any] = field(default_factory=dict)


def scaled(nominal: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(nominal * SIZE_FACTOR * scale)))


def matches(app: str, result: Any, expected: Any) -> bool:
    """The issue's per-application equality: bit-equal (as pickles) for
    histo/hll, sorted multisets per partition for dp, dict-equal for
    hhd."""
    if result is None:
        return False
    if app == "dp":
        return sorted(result) == sorted(expected) and all(
            np.array_equal(np.sort(result[part]), np.sort(expected[part]))
            for part in expected)
    if app == "hhd":
        return result == expected
    return pickle.dumps(result) == pickle.dumps(expected)


def digest(result: Any) -> str:
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


class TracedSource:
    """The load generator's source iterator during the traced pass.

    Tells the span recorder which job the dispatcher is about to work
    on, and accounts the generator's own time (``harness.source_next_s``).
    """

    def __init__(self, job: JobInput, recorder, spent: List[float]) -> None:
        self._chunks = iter(job.chunks)
        self._job_id = job.job_id
        self._recorder = recorder
        self._spent = spent

    def __iter__(self) -> "TracedSource":
        return self

    def __next__(self) -> TimestampedBatch:
        start = perf_counter()
        self._recorder.set_job(self._job_id)
        try:
            return next(self._chunks)
        finally:
            self._spent[0] += perf_counter() - start


class Workload:
    """Shared input generation; subclasses drive the program."""

    #: True when one ``open()`` serves every repetition (the gateway
    #: child); False when each repetition gets a fresh service.
    persistent = False
    #: Whether a serial replay of the service pipeline applies.
    replayable = True

    def __init__(self, name: str, why: str,
                 plans: Callable[[float], List[JobPlan]],
                 service_kwargs: Optional[Dict[str, Any]] = None,
                 tenants: Sequence[TenantSpec] = ()) -> None:
        self.name = name
        self.why = why
        self.plans = plans
        self.service_kwargs = service_kwargs or {}
        self.tenants = tenants

    def generate(self, seed: int, scale: float) -> Inputs:
        """One Zipf dataset per distinct alpha (``seed + i``), cut into
        the planned jobs in order."""
        plans = self.plans(scale)
        need: Dict[float, int] = defaultdict(int)
        for plan in plans:
            need[plan.alpha] += plan.tuples
        datasets = {
            alpha: ZipfGenerator(alpha=alpha, seed=seed + i).generate(count)
            for i, (alpha, count) in enumerate(sorted(need.items()))
        }
        taken: Dict[float, int] = defaultdict(int)
        jobs = []
        for index, plan in enumerate(plans):
            lo = taken[plan.alpha]
            taken[plan.alpha] = lo + plan.tuples
            batch = datasets[plan.alpha].slice(lo, lo + plan.tuples)
            jobs.append(JobInput(
                job_id=f"{self.name}-{index}", app=plan.app,
                tenant=plan.tenant, window_seconds=plan.window_seconds,
                batch=batch, chunks=list(chunk_stream(batch, plan.chunk))))
        return Inputs(jobs, sum(plan.tuples for plan in plans))

    def reference(self, inputs: Inputs) -> None:
        for job in inputs.jobs:
            if job.app == "hhd":
                # Non-splittable: the oracle is the same stream through
                # a one-worker fleet, where no key can be diluted.
                service = StreamService(workers=1)
                job_id = service.submit(
                    job.app, iter(job.chunks),
                    window_seconds=job.window_seconds)
                service.run()
                job.expected = service.result(job_id).result
                service.shutdown()
            else:
                kernel = kernel_for(job.app, 16)
                job.expected = kernel.golden(job.batch.keys,
                                             job.batch.values)


def run_rep(workload: Workload, inputs: Inputs, shared=None,
            recorder=None, tracer=None) -> Rep:
    """One repetition: on ``shared`` (a persistent workload's one open
    handle) or on a fresh ``open()`` that is closed again afterwards."""
    handle = shared if shared is not None else workload.open(tracer)
    try:
        return workload.rep(inputs, handle, recorder)
    finally:
        if shared is None:
            workload.close(handle)


# ----------------------------------------------------------------------
# In-process service workloads
# ----------------------------------------------------------------------
class ServiceWorkload(Workload):
    def open(self, tracer=None) -> StreamService:
        service = StreamService(workers=WORKERS, tracer=tracer,
                                **self.service_kwargs)
        for spec in self.tenants:
            service.register_tenant(spec)
        service.run()  # an empty run starts the backend
        return service

    def close(self, service: StreamService) -> None:
        service.shutdown()

    def rep(self, inputs: Inputs, service: StreamService,
            recorder=None) -> Rep:
        spent = [0.0]
        sources: List[Iterator[TimestampedBatch]] = [
            iter(job.chunks) if recorder is None
            else TracedSource(job, recorder, spent)
            for job in inputs.jobs]
        cpu0 = tree_cpu_seconds()
        start = perf_counter()
        for job, source in zip(inputs.jobs, sources):
            service.submit(job.app, source, job_id=job.job_id,
                           window_seconds=job.window_seconds,
                           tenant_id=job.tenant)
        service.run()
        results = []
        for job in inputs.jobs:
            try:
                results.append(service.result(job.job_id).result)
            except RuntimeError:  # the job did not reach COMPLETED
                results.append(None)
        wall = perf_counter() - start
        cpu = tree_cpu_seconds() - cpu0
        failed = sum(not matches(job.app, result, job.expected)
                     for job, result in zip(inputs.jobs, results))
        return Rep(
            wall_s=wall, cpu_s=cpu, tuples=inputs.tuples,
            attempted=len(inputs.jobs), failed=failed,
            sim_tuples_per_cycle=service.metrics.fleet_throughput(),
            children_rss_kb=children_peak_rss_kb(),
            digest=digest(results[0]),
            detail={"snapshot": service.metrics.snapshot(),
                    "source_next_s": spent[0]})


def _single(app: str, alpha: float, nominal: int, **plan_kwargs):
    def plans(scale: float) -> List[JobPlan]:
        return [JobPlan(app, alpha, scaled(nominal, scale, SMALL_CHUNK),
                        **plan_kwargs)]
    return plans


TENANT_APPS = ("histo", "hll", "dp")
TENANT_ALPHAS = (0.0, 1.2, 1.5, 2.0)
TENANTS = (
    TenantSpec("gold", weight=3.0, max_in_flight=2,
               slo_delay_tuples=100_000),
    TenantSpec("silver", weight=1.0, max_in_flight=2),
    TenantSpec("bronze", weight=1.0),
)


def _tenant_mix(scale: float) -> List[JobPlan]:
    # Tenant and alpha rotate on coprime periods so every tenant sees
    # every skew; the app changes every third job.
    return [
        JobPlan(app=TENANT_APPS[(i // 3) % 3], alpha=TENANT_ALPHAS[i % 4],
                tuples=16_000, tenant=TENANTS[i % 3].tenant_id)
        for i in range(scaled(120, scale, floor=9))
    ]


# ----------------------------------------------------------------------
# Wire workload
# ----------------------------------------------------------------------
@dataclass
class Gateway:
    process: subprocess.Popen
    client: StreamClient
    spawn_s: float
    jobs_sent: int = 0


class WireWorkload(Workload):
    persistent = True

    def open(self, tracer=None) -> Gateway:
        RESULTS.mkdir(parents=True, exist_ok=True)
        handle, ready = tempfile.mkstemp(dir=RESULTS, suffix=".ready")
        os.close(handle)
        os.unlink(ready)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "ingest",
             "--workers", str(WORKERS), "--port", "0",
             "--ready-file", ready],
            env=env, stdout=subprocess.DEVNULL)
        try:
            while not (os.path.exists(ready)
                       and Path(ready).read_text().endswith("\n")):
                if process.poll() is not None:
                    raise RuntimeError("gateway child exited before "
                                       "it was listening")
                time.sleep(0.002)
            spawn_s = perf_counter() - start
            host, port = Path(ready).read_text().split()
            client = StreamClient(host, int(port))
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            if os.path.exists(ready):
                os.unlink(ready)
        return Gateway(process, client, spawn_s)

    def close(self, gateway: Gateway) -> None:
        gateway.client.close()
        # `repro ingest` stops cleanly on Ctrl-C.
        gateway.process.send_signal(signal.SIGINT)
        try:
            gateway.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            gateway.process.kill()
            gateway.process.wait()

    def rep(self, inputs: Inputs, gateway: Gateway, recorder=None) -> Rep:
        job = inputs.jobs[0]
        client = gateway.client
        gateway.jobs_sent += 1
        job_id = f"{job.job_id}-r{gateway.jobs_sent}"
        before = client.stats()
        shed_before = client.shed_batches
        stalls_before = client.credit_stalls
        send_ms: List[float] = []
        cpu0 = tree_cpu_seconds()
        start = perf_counter()
        client.submit(job.app, window_seconds=job.window_seconds,
                      job_id=job_id)
        for chunk in job.chunks:
            sent = perf_counter()
            client.send_batch(job_id, chunk)
            send_ms.append((perf_counter() - sent) * 1e3)
        client.end(job_id)
        ended = perf_counter()
        try:
            result = client.result(job_id).result
        except RuntimeError:  # GatewayError: failed, cancelled, timeout
            result = None
        wall = perf_counter() - start
        cpu = tree_cpu_seconds() - cpu0
        after = client.stats()
        shed = (client.shed_batches - shed_before
                + after["gateway"]["batches_shed"]
                - before["gateway"]["batches_shed"])
        failed = int(not matches(job.app, result, job.expected)) + shed
        cycles = after["makespan_cycles"] - before["makespan_cycles"]
        tuples = after["total_tuples"] - before["total_tuples"]
        return Rep(
            wall_s=wall, cpu_s=cpu, tuples=inputs.tuples,
            attempted=1 + len(job.chunks), failed=failed,
            sim_tuples_per_cycle=tuples / cycles if cycles else 0.0,
            children_rss_kb=children_peak_rss_kb(),
            digest=digest(result),
            detail={
                "snapshot": after, "snapshot_before": before,
                "send_ms": send_ms,
                "result_wait_ms": (start + wall - ended) * 1e3,
                "credit_stalls": client.credit_stalls - stalls_before,
                "spawn_s": gateway.spawn_s,
            })


# ----------------------------------------------------------------------
# Cycle simulator (no service)
# ----------------------------------------------------------------------
SIM_ALPHAS = (0.0, 1.0, 2.0)
SIM_SECPES = (0, 4)


def _sim_grid(scale: float) -> List[JobPlan]:
    return [JobPlan("histo", alpha, scaled(20_000, scale, floor=200))
            for alpha in SIM_ALPHAS]


class SimWorkload(Workload):
    replayable = False

    def open(self, tracer=None) -> List[SkewObliviousArchitecture]:
        return [SkewObliviousArchitecture(
            ArchitectureConfig(lanes=8, pripes=16, secpes=secpes),
            HistogramKernel()) for secpes in SIM_SECPES]

    def close(self, architectures) -> None:
        pass

    def rep(self, inputs: Inputs, architectures, recorder=None) -> Rep:
        engine_s: Dict[str, float] = {}
        cycles: Dict[str, List[int]] = {"cycle": [], "fast": []}
        plans = 0
        failed = 0
        cpu0 = tree_cpu_seconds()
        start = perf_counter()
        for engine in ("cycle", "fast"):
            engine_start = perf_counter()
            for job in inputs.jobs:
                for architecture in architectures:
                    outcome = architecture.run(job.batch, engine=engine)
                    cycles[engine].append(outcome.cycles)
                    plans += len(outcome.plans)
                    failed += not matches(job.app, outcome.result,
                                          job.expected)
            engine_s[engine] = perf_counter() - engine_start
        wall = perf_counter() - start
        cpu = tree_cpu_seconds() - cpu0
        runs = len(cycles["cycle"])
        error = max(abs(fast - exact) / exact
                    for fast, exact in zip(cycles["fast"], cycles["cycle"]))
        simulated = inputs.tuples * len(architectures)
        return Rep(
            wall_s=wall, cpu_s=cpu, tuples=2 * simulated,
            attempted=2 * runs, failed=failed,
            sim_tuples_per_cycle=simulated / sum(cycles["cycle"]),
            detail={"snapshot": {}, "cycle_model_error_max": error,
                    "sim_cycles": sum(cycles["cycle"]),
                    "cycle_engine_s": engine_s["cycle"],
                    "plans": plans})


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    ServiceWorkload(
        "histo_zipf_inline",
        "serving default on the ROADMAP scenario: per-window and "
        "per-shard fixed costs and dispatcher/worker GIL contention "
        "dominate, kernels do little",
        _single("histo", 1.5, 2_000_000)),
    ServiceWorkload(
        "histo_uniform_bigwin",
        "62.5k-tuple windows: per-tuple masks, concatenation, murmur3 "
        "and split do the work, per-call overhead almost none; the "
        "bypass for per-chunk/per-shard optimisations",
        _single("histo", 0.0, 6_000_000, chunk=125_000,
                window_seconds=40e-6)),
    ServiceWorkload(
        "hhd_bykey",
        "non-splittable kernel: by-key split and a session-bound run; "
        "dispatcher-side optimisations must not move it",
        _single("hhd", 1.5, 300_000)),
    WireWorkload(
        "wire_histo",
        "same stream over TCP to a `repro ingest` child: NDJSON "
        "encode/decode bounds it; the only workload where repro.net "
        "does most of the work and load generator and program have "
        "separate GILs",
        _single("histo", 1.5, 1_200_000)),
    ServiceWorkload(
        "procshm_histo",
        "byte-identical input to histo_zipf_inline through the process "
        "backend with shm transport: the same-input inline-vs-process "
        "comparison; transport replaces GIL contention",
        _single("histo", 1.5, 2_000_000),
        service_kwargs={"backend": "process", "transport": "shm"}),
    ServiceWorkload(
        "tenant_mix_small_jobs",
        "many 16k-tuple jobs over three weighted tenants with the "
        "adaptive controller: per-job fixed costs, WFQ, the weighted "
        "step round and the control plane, which no long job exercises",
        _tenant_mix, service_kwargs={"adaptive": True}, tenants=TENANTS),
    SimWorkload(
        "cycle_sim_paper",
        "no service: the cycle-engine oracle and the fast model on the "
        "paper's alpha x SecPE grid; every serving-layer change "
        "predicts no movement here",
        _sim_grid),
)}
