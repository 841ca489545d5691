"""The cycle engine as the serving layer's oracle.

The service runs every window as one fast-engine pass
(:meth:`~repro.service.pool.WorkerPool.dispatch_window`).  To hold it
to the paper's cycle-level pipeline, :func:`record_windows` spies that
call and keeps each window the dispatcher hands the inline pool with
the balancer's route for it; :func:`replay` then splits every recorded
window as its route says (``route.split``) and runs each shard through
its own :class:`~repro.core.architecture.SkewObliviousArchitecture` on
the engine asked for.  A worker's shards fold in window order and the
workers merge in ascending order, as the pool's sessions and
``collect`` fold them.  The replay assumes one job of one app and a
fleet that never reissued a worker id (no resize).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.architecture import SkewObliviousArchitecture
from repro.core.config import ArchitectureConfig
from repro.service.jobs import kernel_for
from repro.service.pool import WorkerPool


@dataclass
class Replay:
    """One job's windows replayed shard by shard."""

    #: Per window, its shards' ``(worker, tuples, cycles)`` in split order.
    windows: List[List[Tuple[int, int, int]]]
    #: Each worker's shards folded, the workers merged in ascending order.
    result: Any
    #: Per worker: ``(segments, tuples, cycles)``.
    workers: Dict[int, Tuple[int, int, int]]
    #: Per tenant: ``(tuples, cycles)``.
    tenants: Dict[str, Tuple[int, int]]

    def fleet_throughput(self) -> float:
        """Tuples over the busiest worker's cycles (no reschedule
        stalls: the serving default charges none)."""
        rows = self.workers.values()
        return (sum(tuples for _, tuples, _ in rows)
                / max(cycles for _, _, cycles in rows))


def record_windows(monkeypatch) -> list:
    """Spy ``WorkerPool.dispatch_window``; returns the list it fills
    with each window's ``(job_id, tenant_id, batch, route)``."""
    windows = []
    original = WorkerPool.dispatch_window

    def spy(pool, item, route):
        windows.append((item.job_id, item.tenant_id, item.batch, route))
        return original(pool, item, route)

    monkeypatch.setattr(WorkerPool, "dispatch_window", spy)
    return windows


def replay(windows, app: str, config: ArchitectureConfig,
           params: Optional[Dict[str, Any]] = None,
           engine: str = "cycle") -> Replay:
    """Run every shard of the recorded ``windows`` on ``engine``."""
    combine = kernel_for(app, config.pripes, params).combine_results
    rows: List[List[Tuple[int, int, int]]] = []
    partials: Dict[int, Any] = {}
    workers: Dict[int, Tuple[int, int, int]] = {}
    tenants: Dict[str, Tuple[int, int]] = {}
    for _, tenant, batch, route in windows:
        window = []
        for worker, shard in route.split(batch).items():
            outcome = SkewObliviousArchitecture(
                config, kernel_for(app, config.pripes, params)).run(
                    shard, engine=engine)
            window.append((worker, outcome.tuples, outcome.cycles))
            partials[worker] = (
                outcome.result if worker not in partials
                else combine(partials[worker], outcome.result))
            segments, tuples, cycles = workers.get(worker, (0, 0, 0))
            workers[worker] = (segments + 1, tuples + outcome.tuples,
                               cycles + outcome.cycles)
            tuples, cycles = tenants.get(tenant, (0, 0))
            tenants[tenant] = (tuples + outcome.tuples,
                               cycles + outcome.cycles)
        rows.append(window)
    result = None
    for worker in sorted(partials):
        result = (partials[worker] if result is None
                  else combine(result, partials[worker]))
    return Replay(rows, result, workers, tenants)
