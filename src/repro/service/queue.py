"""In-memory job admission queue with weighted-fair tenant scheduling.

Jobs are grouped into per-tenant sub-queues.  *Within* a tenant the
ordering is strict-priority first, earliest-deadline-first within a
priority level, and FIFO as the final tiebreak — a tenant may still rank
its own traffic however it likes.  *Across* tenants the queue runs
start-time fair queueing (virtual-time WFQ): each pop charges the
serviced tenant ``1 / weight`` of virtual time, and the tenant with the
smallest virtual start tag goes next, so a backlogged tenant receives
``weight / sum(backlogged weights)`` of the admissions and no tenant can
starve another — a batch tenant flooding high-priority jobs only ever
reorders *its own* backlog.

With a single tenant the fair scheduler has nothing to choose between,
so the queue pops in plain ``Job.sort_key()`` order — the "no tenant
isolation" baseline is the same traffic submitted under one tenant id.

One starvation guard is independent of the fair scheduler, **age
promotion**: a PENDING job that has waited ``promote_after`` pops is
served next regardless of priority, so a continuously replenished
higher class cannot hold a lower-class job back forever
(``promote_after=None`` disables this).

The queue is thread-safe so ingest threads can submit while the
dispatcher drains.  Cancellation is lazy, the standard ``heapq`` idiom:
cancelled entries stay in the sub-queues but are skipped at pop time, so
cancel is O(1) and pop stays O(log n + tenants).  ``depth()`` is O(1):
a runnable counter is maintained on submit/cancel/pop instead of
scanning the entries.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from typing import (
    Collection,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.service.jobs import (
    Job,
    JobStatus,
    QuotaExceededError,
    TenantSpec,
)

#: Default age-promotion horizon: a pending job that has watched this
#: many pops go by is served next, whatever its priority.
PROMOTE_AFTER_POPS = 64


class _TenantQueue:
    """One tenant's sub-queue plus its fair-queueing state."""

    __slots__ = ("weight", "heap", "fifo", "finish", "runnable")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.heap: List[Tuple[tuple, Job]] = []
        self.fifo: Deque[Job] = deque()
        self.finish = 0.0   # virtual finish tag of the last pop
        self.runnable = 0   # PENDING jobs still in this sub-queue

    def push(self, job: Job) -> None:
        heapq.heappush(self.heap, (job.sort_key(), job))
        self.fifo.append(job)
        self.runnable += 1


class JobQueue:
    """Thread-safe weighted-fair queue of :class:`~repro.service.jobs.Job`.

    Parameters
    ----------
    promote_after:
        Pops a pending job may wait before being served out of order
        (None disables age promotion).
    """

    def __init__(
            self, promote_after: Optional[int] = PROMOTE_AFTER_POPS) -> None:
        if promote_after is not None and promote_after < 1:
            raise ValueError("promote_after must be at least 1 (or None)")
        self.promote_after = promote_after
        self._tenants: Dict[str, _TenantQueue] = {}  # guarded-by: _lock
        self._specs: Dict[str, TenantSpec] = {}  # guarded-by: _lock
        self._entries: Dict[str, Job] = {}  # guarded-by: _lock
        self._enqueue_pop: Dict[str, int] = {}  # guarded-by: _lock
        self._runnable = 0  # guarded-by: _lock
        self._pops = 0  # guarded-by: _lock
        self._virtual = 0.0  # guarded-by: _lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------
    def register_tenant(self, spec: TenantSpec) -> None:
        """Install (or update) a tenant's scheduling weight."""
        with self._lock:
            self._specs[spec.tenant_id] = spec
            state = self._tenants.get(spec.tenant_id)
            if state is not None:
                state.weight = spec.weight

    def _tenant(self, tenant_id: str) -> _TenantQueue:  # guarded-by: _lock
        state = self._tenants.get(tenant_id)
        if state is None:
            spec = self._specs.get(tenant_id)
            state = _TenantQueue(spec.weight if spec else 1.0)
            self._tenants[tenant_id] = state
        return state

    # ------------------------------------------------------------------
    # Submit / cancel
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Admit a job; it becomes visible to ``pop`` immediately.

        The tenant's ``max_queued`` admission quota is enforced here,
        under the queue lock, so concurrent ingest threads cannot both
        squeeze past the last slot.  Raises
        :class:`~repro.service.jobs.QuotaExceededError` when full.
        """
        with self._lock:
            if job.job_id in self._entries:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            spec = self._specs.get(job.tenant_id)
            state = self._tenant(job.tenant_id)
            if spec is not None and spec.max_queued is not None \
                    and state.runnable >= spec.max_queued:
                raise QuotaExceededError(
                    f"tenant {job.tenant_id!r} already has "
                    f"{state.runnable} queued jobs "
                    f"(quota {spec.max_queued})")
            self._entries[job.job_id] = job
            self._enqueue_pop[job.job_id] = self._pops
            state.push(job)
            self._runnable += 1

    def cancel(self, job_id: str) -> bool:
        """Withdraw a queued job.  Returns False if it already left."""
        with self._lock:
            job = self._entries.get(job_id)
            if job is None or job.status is not JobStatus.PENDING:
                return False
            job.status = JobStatus.CANCELLED
            # The entry copies in the heap/fifo are skipped lazily; the
            # counters must not wait for that.
            del self._entries[job_id]
            self._enqueue_pop.pop(job_id, None)
            self._runnable -= 1
            self._tenants[job.tenant_id].runnable -= 1
            return True

    # ------------------------------------------------------------------
    # Pop
    # ------------------------------------------------------------------
    def pop(self, blocked: Collection[str] = ()) -> Optional[Job]:
        """Next runnable job, or None when none is runnable (never waits).

        ``blocked`` names tenants the caller will not serve right now
        (e.g. at their in-flight cap); their jobs stay queued and their
        virtual time is not charged.
        """
        with self._lock:
            return self._pop_runnable(frozenset(blocked))

    def _live(self, job: Job) -> bool:  # guarded-by: _lock
        return (job.status is JobStatus.PENDING
                and self._entries.get(job.job_id) is job)

    def _prune(self, state: _TenantQueue) -> None:  # guarded-by: _lock
        while state.heap and not self._live(state.heap[0][1]):
            heapq.heappop(state.heap)
        while state.fifo and not self._live(state.fifo[0]):
            state.fifo.popleft()

    def _pop_runnable(self, blocked: frozenset) -> Optional[Job]:  # guarded-by: _lock
        eligible: List[Tuple[str, _TenantQueue]] = []
        for tenant_id, state in self._tenants.items():
            if state.runnable > 0 and tenant_id not in blocked:
                self._prune(state)
                eligible.append((tenant_id, state))
        if not eligible:
            return None
        aged = self._aged_head(eligible)
        if aged is not None:
            # Age promotion: serve the overdue FIFO head out of order;
            # its heap copy goes stale and is pruned lazily.
            state = aged[1]
            job = state.fifo.popleft()
        else:
            # Start-time fair queueing: the smallest virtual start tag
            # wins; an idle tenant re-enters at the current virtual
            # time rather than cashing in saved-up credit.
            state = min(
                eligible,
                key=lambda item: (max(self._virtual, item[1].finish),
                                  item[0]),
            )[1]
            job = heapq.heappop(state.heap)[1]
        return self._take(state, job)

    def _aged_head(  # guarded-by: _lock
        self, eligible: List[Tuple[str, _TenantQueue]]
    ) -> Optional[Tuple[str, _TenantQueue]]:
        """The tenant whose oldest job has outwaited the promotion
        horizon (the globally oldest such job), or None."""
        if self.promote_after is None:
            return None
        oldest: Optional[Tuple[str, _TenantQueue]] = None
        oldest_key = (self._pops - self.promote_after, float("inf"))
        for tenant_id, state in eligible:
            head = state.fifo[0]
            key = (self._enqueue_pop[head.job_id], head.seq)
            if key <= oldest_key:
                oldest_key = key
                oldest = (tenant_id, state)
        return oldest

    def _take(self, state: _TenantQueue, job: Job) -> Job:  # guarded-by: _lock
        """Account one pop: counters and the tenant's virtual time."""
        del self._entries[job.job_id]
        del self._enqueue_pop[job.job_id]
        state.runnable -= 1
        self._runnable -= 1
        self._pops += 1
        start = max(self._virtual, state.finish)
        state.finish = start + 1.0 / state.weight
        self._virtual = start
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Jobs currently waiting — O(1), a maintained counter."""
        with self._lock:
            return self._runnable

    def tenant_depth(self, tenant_id: str) -> int:
        """One tenant's waiting jobs — O(1)."""
        with self._lock:
            state = self._tenants.get(tenant_id)
            return state.runnable if state is not None else 0

    def __len__(self) -> int:
        return self.depth()
