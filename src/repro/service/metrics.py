"""Service-level observability: per-worker throughput, queues, control.

All counters are in *simulated* kernel cycles, not Python wall time:
how the workers share the host is the backend's business, but each
pipeline instance's cycle count is deterministic, so the fleet makespan
— the cycles of the busiest worker, since real workers run in parallel,
plus any fleet-wide rescheduling stalls — is the meaningful (and
reproducible) throughput denominator.

Long-lived services must not grow without bound, so time-series samples
(queue depths, plan ages) live in fixed-size ring buffers: the newest
``QUEUE_DEPTH_WINDOW`` samples answer the p50/p95 questions operators
actually ask, and the oldest fall off the back.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Retained queue-depth samples (ring buffer; ~the recent dispatch past).
QUEUE_DEPTH_WINDOW = 1024

#: Retained plan ages (windows a plan survived before being replaced).
PLAN_AGE_WINDOW = 256

#: Retained per-tenant queue-delay samples (dispatch-clock tuples).
QUEUE_DELAY_WINDOW = 1024

#: Retained gateway ingest-buffer depth samples (one per batch event).
INGEST_DEPTH_WINDOW = 1024


def _percentile(samples: List[int], q: float) -> float:
    """q-th percentile of a sample list (0.0 when empty)."""
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _ring_summary(ring: Deque[int]) -> Dict[str, Any]:
    """p50 / p95 / peak / sample count of one ring buffer."""
    samples = list(ring)
    return {
        "p50": _percentile(samples, 50),
        "p95": _percentile(samples, 95),
        "peak": max(samples, default=0),
        "samples": len(samples),
    }


def _count(section: Dict[str, int], deltas: Dict[str, int]) -> None:
    """Add ``deltas`` to one section's counters (the caller holds its
    lock); an undeclared name raises before anything is counted."""
    if not deltas.keys() <= section.keys():
        undeclared = sorted(deltas.keys() - section.keys())
        raise TypeError(f"undeclared counter(s): {undeclared}")
    for name, delta in deltas.items():
        section[name] += delta


def _tuples_per_cycle(tuples: int, cycles: int) -> float:
    """A worker's, a tenant's or the fleet's rate (0.0 before any cycle)."""
    return tuples / cycles if cycles else 0.0


def _slo_attainment(tenant: Dict[str, Any]) -> float:
    """Started jobs whose queue delay met the SLO (1.0 with no data or
    no SLO — an unmeasured tenant is not a failing tenant)."""
    judged = tenant["slo_met"] + tenant["slo_missed"]
    return tenant["slo_met"] / judged if judged else 1.0


#: The states a job is counted under, declared once: the fleet ``jobs``
#: counters, the snapshot's ``jobs`` dicts and the ``state`` labels of
#: ``repro_jobs_total`` / ``repro_tenant_jobs_total`` derive from these,
#: in this order.
JOB_STATES = ("submitted", "completed", "failed", "cancelled")

#: Per tenant there is one more: admission-control rejections (quota
#: exceeded), which never became a fleet job.
TENANT_JOB_STATES = JOB_STATES + ("rejected",)


#: The flat counters of the ``gateway`` / ``transport`` / ``control``
#: sections, declared once as ``section -> {name: Prometheus help}``.
#: :class:`ServiceMetrics`' zeroed state, the ``record_*`` keywords, the
#: snapshot keys, the ``repro_<section>_<name>_total`` samples and the
#: report's section lines all derive from this table, in this order: a
#: new counter is one line here.
COUNTERS: Dict[str, Dict[str, str]] = {
    # The network front-end (repro.net).  batches_shed counts batches
    # dropped with a ``busy`` reply because the owning tenant was over
    # its high-water mark, credit_stalls the times a well-behaved client
    # blocked on a ``credit`` request instead.
    "gateway": {
        "connections_opened": "Gateway connections accepted",
        "connections_closed": "Gateway connections closed",
        "bytes_received": "Gateway bytes received",
        "bytes_sent": "Gateway bytes sent",
        "batches_ingested": "Batches buffered by the gateway",
        "tuples_ingested": "Tuples ingested over the wire",
        "batches_shed": "Batches dropped with a busy reply",
        "credit_stalls": "Well-behaved client credit stalls",
        "protocol_errors": "Wire protocol errors",
    },
    # The process backend's shard transport, the **only** deliberately
    # backend-variant section of the snapshot: each shard is written
    # once into a shared slab, counted in shard_bytes_shared, and only a
    # descriptor crosses the pipe; the inline backend moves no bytes at
    # all.  Equivalence tests compare snapshots with this section
    # stripped.  Shard and byte counters are deterministic given a
    # dispatch sequence; slabs_allocated and slab_blocks_reused are not
    # — block recycling depends on how fast children consume shards
    # relative to the dispatcher, which is wall-clock scheduling.
    "transport": {
        "shards_shm": "Shards shipped as shared-memory descriptors",
        "shard_bytes_shared": "Shard bytes written once to shared slabs",
        "slabs_allocated": "Shared-memory slabs created",
        "slab_blocks_reused": "Slab allocations served from recycled blocks",
        "slabs_released": "Shared-memory slabs unlinked",
        "shard_retries": "Lost shards replayed after a worker crash",
    },
    # The control plane (repro.control).  reschedule_stall_cycles models
    # the fleet-wide cost of applying a plan (detection + drain +
    # re-enqueue + re-profiling) and extends the makespan, because every
    # worker pauses while kernels re-enqueue.
    "control": {
        "drift_events": "Drift detections",
        "replans_applied": "Replans applied",
        "replans_suppressed": "Replans suppressed (hold/freeze)",
        "scale_up_events": "Autoscaler grow events",
        "scale_down_events": "Autoscaler shrink events",
        "reschedule_stall_cycles": "Fleet-wide rescheduling stalls",
    },
}

#: The per-worker counters, ``name -> Prometheus help``: a worker's
#: record is ``dict.fromkeys(WORKER_COUNTERS, 0)``, and each counter is
#: exported as ``repro_worker_<name>_total{worker=...}``.
WORKER_COUNTERS: Dict[str, str] = {
    "segments": "Segments per worker",
    "tuples": "Tuples per worker",
    "cycles": "Cycles per worker",
}

#: The fleet-level snapshot figures, ``key -> (Prometheus family, type,
#: help)``, in exposition order (after ``repro_jobs_total``, before the
#: queue-depth summary).
FLEET_FIGURES: Dict[str, Tuple[str, str, str]] = {
    "windows_closed": ("windows_closed_total", "counter",
                       "Event-time windows closed"),
    "tuples_windowed": ("tuples_windowed_total", "counter",
                        "Tuples dispatched through closed windows (the "
                        "deterministic dispatch clock)"),
    "late_tuples": ("late_tuples_total", "counter",
                    "Tuples dropped as late"),
    "total_tuples": ("worker_tuples_processed_total", "counter",
                     "Tuples processed across the fleet"),
    "busiest_worker_cycles": ("busiest_worker_cycles", "gauge",
                              "Cycles of the busiest worker"),
    "makespan_cycles": ("makespan_cycles", "gauge",
                        "Fleet completion time in simulated cycles"),
    "fleet_throughput": ("fleet_throughput_tuples_per_cycle", "gauge",
                         "Fleet tuples per cycle"),
    "rebalances": ("rebalances_total", "counter", "Fleet plan changes"),
}

#: The per-tenant snapshot figures, declared as the fleet's and labelled
#: ``tenant=...`` (after ``repro_tenant_jobs_total``, before the
#: queue-delay summary).
TENANT_FIGURES: Dict[str, Tuple[str, str, str]] = {
    "weight": ("tenant_weight", "gauge", "Fair-share weight"),
    "tuples": ("tenant_tuples_total", "counter",
               "Per-tenant tuples processed"),
    "cycles": ("tenant_cycles_total", "counter",
               "Per-tenant cycles consumed"),
    "stall_cycles": ("tenant_stall_cycles_total", "counter",
                     "Rescheduling stalls charged to the tenant"),
    "slo_attainment": ("tenant_slo_attainment", "gauge",
                       "Fraction of started jobs meeting the queue-delay "
                       "SLO"),
}


def _new_tenant() -> Dict[str, Any]:
    """One tenant's record, keyed as its snapshot section.

    ``queue_delay`` samples are in *dispatch-clock* units (cumulative
    tuples the dispatcher had handed to the fleet when the job started,
    minus the reading at submit) — a deterministic stand-in for wall
    time that replays identically.  ``slo_met``/``slo_missed`` classify
    each started job's delay against the tenant's ``slo_delay_tuples``.
    """
    return {"weight": 1.0, "slo_delay_tuples": None,
            "jobs": dict.fromkeys(TENANT_JOB_STATES, 0),
            "tuples": 0, "cycles": 0, "stall_cycles": 0,
            "slo_met": 0, "slo_missed": 0,
            "queue_delay": deque(maxlen=QUEUE_DELAY_WINDOW)}


def _tenant_snapshot(tenant: Dict[str, Any]) -> Dict[str, Any]:
    """The record with its ring summarised and its ratios derived."""
    return {
        **{key: value for key, value in tenant.items()
           if key not in ("slo_met", "slo_missed")},
        "jobs": dict(tenant["jobs"]),
        "queue_delay": _ring_summary(tenant["queue_delay"]),
        "tuples_per_cycle": _tuples_per_cycle(tenant["tuples"],
                                              tenant["cycles"]),
        "slo_attainment": _slo_attainment(tenant),
    }


@dataclass
class ServiceMetrics:
    """Thread-safe counters for one :class:`~repro.service.server.StreamService`."""

    workers: Dict[int, Dict[str, int]] = field(default_factory=dict)  # guarded-by: _lock
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)  # guarded-by: _lock
    windows_closed: int = 0  # guarded-by: _lock
    tuples_windowed: int = 0  # guarded-by: _lock
    late_tuples: int = 0  # guarded-by: _lock
    jobs: Dict[str, int] = field(  # guarded-by: _lock
        default_factory=lambda: dict.fromkeys(JOB_STATES, 0))
    rebalances: int = 0  # guarded-by: _lock
    queue_depth_samples: Deque[int] = field(  # guarded-by: _lock
        default_factory=lambda: deque(maxlen=QUEUE_DEPTH_WINDOW))
    # --- the flat sections of COUNTERS: the state is the snapshot ---
    gateway: Dict[str, int] = field(  # guarded-by: _lock
        default_factory=lambda: dict.fromkeys(COUNTERS["gateway"], 0))
    transport: Dict[str, int] = field(  # guarded-by: _lock
        default_factory=lambda: dict.fromkeys(COUNTERS["transport"], 0))
    control: Dict[str, int] = field(  # guarded-by: _lock
        default_factory=lambda: dict.fromkeys(COUNTERS["control"], 0))
    # Its p95 is the bounded-memory claim the backpressure benchmark checks.
    ingest_depth_samples: Deque[int] = field(  # guarded-by: _lock
        default_factory=lambda: deque(maxlen=INGEST_DEPTH_WINDOW))
    plan_ages: Deque[int] = field(  # guarded-by: _lock
        default_factory=lambda: deque(maxlen=PLAN_AGE_WINDOW))
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    # ------------------------------------------------------------------
    # Tenant registry and per-tenant events
    # ------------------------------------------------------------------
    def _tenant(self, tenant_id: str) -> Dict[str, Any]:  # guarded-by: _lock
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            tenant = self.tenants[tenant_id] = _new_tenant()
        return tenant

    def register_tenant(self, tenant_id: str, weight: float = 1.0,
                        slo_delay_tuples: Optional[int] = None) -> None:
        """Install a tenant's weight and queue-delay SLO for reporting."""
        with self._lock:
            self._tenant(tenant_id).update(
                weight=weight, slo_delay_tuples=slo_delay_tuples)

    def record_job(self, state: str, tenant_id: str) -> None:
        """One job of ``tenant_id`` entered ``state``, one of
        :data:`TENANT_JOB_STATES`; ``rejected`` (an admission-control
        refusal, quota exceeded) never became a fleet job and is counted
        for the tenant alone."""
        with self._lock:
            if state in self.jobs:
                self.jobs[state] += 1
            self._tenant(tenant_id)["jobs"][state] += 1

    def record_queue_delay(self, tenant_id: str, delay: int) -> None:
        """A started job waited ``delay`` dispatch-clock tuples."""
        with self._lock:
            tenant = self._tenant(tenant_id)
            tenant["queue_delay"].append(delay)
            slo = tenant["slo_delay_tuples"]
            if slo is not None:
                tenant["slo_met" if delay <= slo else "slo_missed"] += 1

    def tenant_slo_attainment(self) -> Dict[str, float]:
        """SLO attainment of every tenant with an SLO and started jobs."""
        with self._lock:
            return {
                tenant_id: _slo_attainment(tenant)
                for tenant_id, tenant in self.tenants.items()
                if tenant["slo_delay_tuples"] is not None
                and (tenant["slo_met"] or tenant["slo_missed"])
            }

    def dispatch_clock(self) -> int:
        """Cumulative dispatched tuples — the deterministic queue-delay
        clock (only the dispatcher thread advances it)."""
        with self._lock:
            return self.tuples_windowed

    def record_segment(self, worker: int, tuples: int, cycles: int,
                       tenant: Optional[str] = None) -> None:
        self.record_segments([(worker, tuples, cycles)], tenant)

    def record_segments(self, segments: Sequence[Tuple[int, int, int]],
                        tenant: Optional[str] = None) -> None:
        """Charge ``(worker, tuples, cycles)`` segments — a window's
        shards — to their workers, and their sum to ``tenant``, under
        one lock acquisition."""
        with self._lock:
            total_tuples = total_cycles = 0
            for worker, tuples, cycles in segments:
                record = self.workers.get(worker)
                if record is None:
                    record = self.workers[worker] = dict.fromkeys(
                        WORKER_COUNTERS, 0)
                record["segments"] += 1
                record["tuples"] += tuples
                record["cycles"] += cycles
                total_tuples += tuples
                total_cycles += cycles
            if tenant is not None and segments:
                record = self._tenant(tenant)
                record["tuples"] += total_tuples
                record["cycles"] += total_cycles

    def record_window(self, tuples: int) -> None:
        with self._lock:
            self.windows_closed += 1
            self.tuples_windowed += tuples

    def record_late(self, tuples: int) -> None:
        with self._lock:
            self.late_tuples += tuples

    def set_rebalances(self, count: int) -> None:
        """The balancer's plan-change count, pushed when it moves."""
        with self._lock:
            self.rebalances = count

    def sample_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth_samples.append(depth)

    def record_gateway(self, **deltas: int) -> None:
        """Fold one gateway event into the front-end counters."""
        with self._lock:
            _count(self.gateway, deltas)

    def record_transport(self, **deltas: int) -> None:
        """Fold one shard-transport event into the counters."""
        with self._lock:
            _count(self.transport, deltas)

    def sample_ingest_depth(self, depth: int) -> None:
        """One per-tenant buffered-batch depth reading (ring buffer)."""
        with self._lock:
            self.ingest_depth_samples.append(depth)

    def record_control(self, *, plan_age: Optional[int] = None,
                       tenant: Optional[str] = None, **deltas: int) -> None:
        """Fold one control-plane event into the counters.

        ``plan_age`` is how many windows the retired plan served.
        ``tenant`` attributes a ``reschedule_stall_cycles`` delta to the
        tenant whose window's drift triggered the replan (who pays the
        rescheduling stall).
        """
        with self._lock:
            _count(self.control, deltas)
            stall_cycles = deltas.get("reschedule_stall_cycles", 0)
            if stall_cycles and tenant is not None:
                self._tenant(tenant)["stall_cycles"] += stall_cycles
            if plan_age is not None:
                self.plan_ages.append(plan_age)

    # ------------------------------------------------------------------
    # Fleet-level aggregates
    # ------------------------------------------------------------------
    def _total_tuples_locked(self) -> int:
        return sum(record["tuples"] for record in self.workers.values())

    def total_tuples(self) -> int:
        with self._lock:
            return self._total_tuples_locked()

    def _busiest_locked(self, within: Optional[int] = None) -> int:
        return max([record["cycles"] for worker, record in self.workers.items()
                    if within is None or worker < within], default=0)

    def busiest_worker_cycles(self, within: Optional[int] = None) -> int:
        """Cycles of the busiest worker (excludes rescheduling stalls).

        ``within`` restricts the max to worker IDs below it — the
        autoscaler passes the current pool size so workers removed by an
        earlier scale-down (whose counters are retained for reporting)
        cannot freeze the measurement.
        """
        with self._lock:
            return self._busiest_locked(within)

    def _makespan_locked(self) -> int:
        return self._busiest_locked() + self.control["reschedule_stall_cycles"]

    def makespan_cycles(self) -> int:
        """Fleet completion time: busiest worker plus fleet-wide stalls."""
        with self._lock:
            return self._makespan_locked()

    def fleet_throughput(self) -> float:
        """Fleet tuples per cycle: total work over the busiest worker.

        This is the cluster analogue of the paper's tuples/cycle metric —
        a perfectly balanced fleet of K workers approaches K times one
        pipeline's rate, a skewed one collapses to the hot worker's.

        Numerator and denominator are read under one lock acquisition so
        the ratio is never computed from two different instants.
        """
        with self._lock:
            return _tuples_per_cycle(self._total_tuples_locked(),
                                     self._makespan_locked())

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time machine-readable summary of the whole service.

        The whole dict is built under a **single** lock acquisition, so
        every derived figure (fleet throughput, makespan, imbalance, the
        median plan age, the per-tenant sections) describes the same
        instant — composing the public single-metric accessors would let
        the counters move between reads and tear the snapshot.

        Queue depth is reported as percentiles over the retained ring
        buffer (p50/p95), not the raw series — the series is bounded, the
        percentiles are what SLO dashboards plot.
        """
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, Any]:
        """Build the snapshot dict (caller holds the lock)."""
        cycles = [record["cycles"] for record in self.workers.values()]
        total_tuples = self._total_tuples_locked()
        busiest = max(cycles, default=0)
        makespan = self._makespan_locked()
        mean_cycles = sum(cycles) / len(cycles) if cycles else 0.0
        depths = self.queue_depth_samples
        return {
            "jobs": dict(self.jobs),
            "windows_closed": self.windows_closed,
            "tuples_windowed": self.tuples_windowed,
            "late_tuples": self.late_tuples,
            "total_tuples": total_tuples,
            "busiest_worker_cycles": busiest,
            "makespan_cycles": makespan,
            "fleet_throughput": _tuples_per_cycle(total_tuples, makespan),
            "imbalance": (busiest / mean_cycles if mean_cycles else 1.0),
            "rebalances": self.rebalances,
            "queue_depth": {
                **_ring_summary(depths),
                "last": depths[-1] if depths else 0,
            },
            "workers": {
                worker: {**record, "tuples_per_cycle": _tuples_per_cycle(
                    record["tuples"], record["cycles"])}
                for worker, record in sorted(self.workers.items())
            },
            "gateway": {
                **self.gateway,
                "ingest_depth": _ring_summary(self.ingest_depth_samples),
            },
            "transport": dict(self.transport),
            "control": {
                **self.control,
                "plan_age_p50": _percentile(list(self.plan_ages), 50),
            },
            "tenants": {
                tenant_id: _tenant_snapshot(tenant)
                for tenant_id, tenant in sorted(self.tenants.items())
            },
        }

    def to_prometheus(self) -> str:
        """This service's state in Prometheus text exposition format.

        One consistent snapshot (single lock acquisition) rendered by
        :func:`repro.obs.exposition.to_prometheus`; the gateway's
        ``stats`` verb serves exactly this string.
        """
        from repro.obs.exposition import to_prometheus

        return to_prometheus(self.snapshot())

    def render(self) -> str:
        """Human-readable summary (the CLI's ``serve`` report).

        Rendered from one :meth:`snapshot`, so every figure in the
        report — throughput, makespan, the tenant table — describes the
        same instant even while the service is still dispatching.  Each
        :data:`COUNTERS` section is one line of its non-zero counters.
        """
        from repro.analysis.tables import Table

        snap = self.snapshot()
        table = Table(
            ["worker", "segments", "tuples", "cycles", "tuples/cycle"],
            title="Per-worker load",
        )
        for worker, stats in snap["workers"].items():
            table.add_row([
                worker, stats["segments"], f"{stats['tuples']:,}",
                f"{stats['cycles']:,}",
                f"{stats['tuples_per_cycle']:.3f}",
            ])
        lines = [table.render()]
        lines.append(
            f"fleet throughput : {snap['fleet_throughput']:.3f} "
            "tuples/cycle "
            f"(makespan {snap['makespan_cycles']:,} cycles, "
            f"imbalance {snap['imbalance']:.2f}x)")
        lines.append(
            f"windows closed   : {snap['windows_closed']} "
            f"({snap['tuples_windowed']:,} tuples)  "
            f"late tuples: {snap['late_tuples']}")
        jobs = snap["jobs"]
        lines.append(
            f"jobs             : {jobs['completed']} completed / "
            f"{jobs['failed']} failed / {jobs['cancelled']} cancelled "
            f"of {jobs['submitted']} submitted")
        lines.append(f"rebalances       : {snap['rebalances']}")
        tenants = snap["tenants"]
        named = {tid for tid in tenants
                 if tid != "default" or len(tenants) > 1}
        if named:
            tenant_table = Table(
                ["tenant", "weight", "jobs", "tuples", "t/c",
                 "delay p95", "SLO"],
                title="Per-tenant serving record",
            )
            for tenant_id, stats in tenants.items():
                slo = ("-" if stats["slo_delay_tuples"] is None
                       else f"{stats['slo_attainment']:.0%}")
                tenant_table.add_row([
                    tenant_id, f"{stats['weight']:g}",
                    f"{stats['jobs']['completed']}"
                    f"/{stats['jobs']['submitted']}",
                    f"{stats['tuples']:,}",
                    f"{stats['tuples_per_cycle']:.3f}",
                    f"{stats['queue_delay']['p95']:,.0f}", slo,
                ])
            lines.append(tenant_table.render())
        depth = snap["queue_depth"]
        if depth["samples"]:
            lines.append(
                f"queue depth      : p50 {depth['p50']:.0f}, "
                f"p95 {depth['p95']:.0f}, "
                f"peak {depth['peak']}, last {depth['last']}")
        for section, names in COUNTERS.items():
            counted = [f"{name} {snap[section][name]:,}" for name in names
                       if snap[section][name]]
            if counted:
                lines.append(f"{section:<17}: " + ", ".join(counted))
        return "\n".join(lines)
