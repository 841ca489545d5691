"""Process execution backend: K warm, pre-forked worker subprocesses.

The ``backend="process"`` adapter of the
:class:`~repro.service.executor.ExecutionBackend` port.  Where the
inline adapter (:mod:`repro.service.pool`) runs every shard on the
dispatcher thread — deterministic, one core — this one forks K worker
subprocesses once and keeps them warm across jobs, the ModelOps
warm-pool shape: no per-job cold start, routing stays the balancer's
problem, and partial results merge on collection.

Each child owns one duplex pipe.  Job descriptions cross it once per
(worker, job) as a picklable
:class:`~repro.service.executor.SessionSpec`; partial results come back
as compact :class:`~repro.runtime.session.SessionSnapshot`s.  Window
shards never cross it as bytes: their key/value arrays are written once
into a shared-memory slab (:class:`~repro.service.shm.SlabArena`) and
the pipe carries only a small
:class:`~repro.service.shm.ShardDescriptor` (which names both dtypes);
the child builds read-only NumPy views straight over the shared mapping.
Blocks recycle through a per-worker consumed-sequence handshake (no
reverse pipe traffic).  When the arena is full, dispatch waits for that
handshake, bounded by ``join_timeout``: a holder found dead meanwhile is
revived and replayed (below), and a wait that times out fails the
shard's job through the error ledger.

Determinism contract: the child records each segment's (job, tenant,
tuples, cycles, dispatch clock) locally and ships the ledger back on
:meth:`ProcessBackend.drain`, where the parent folds it into the shared
:class:`~repro.service.metrics.ServiceMetrics`.  Segment accounting is
commutative per worker, and the dispatch clock is advanced only by the
dispatcher thread, so metrics snapshots after a drain are identical to
the inline backend's (the only backend-variant section of the snapshot
is the dedicated ``transport`` counter block).  Collection merges
partials in ascending (worker_id, generation) order — the same fixed
order the inline adapter uses — which keeps order-sensitive reductions
(partition lists) bit-identical across backends.

Crash recovery replays instead of failing: the parent retains a
reference to every dispatched shard of each live job (the arrays the
balancer already materialized — released when the job collects).  When
a child dies mid-job, its replacement is respawned at the same worker
id and the retained ledger is replayed to it in the original dispatch
order, rebuilding the per-(worker, job) sessions bit-identically.
Shards whose segment records were already folded into the metrics
replay with ``record=False`` (the child reprocesses them for session
state but ships no duplicate record), so crash recovery never
double-counts a segment.  Only a second failure during replay gives up
and fails the job the old way.

Like the inline pool, sessions/snapshots are tagged with a pool
generation (bumped whenever new workers are minted), so a worker id
reissued after shrink-then-grow can never adopt a removed worker's
retained partial.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import wallclock
from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector
from repro.runtime.session import SessionSnapshot, StreamingSession
from repro.service.executor import ExecutionBackend, SessionSpec
from repro.service.pool import WorkItem
from repro.service.shm import (
    CTRL_SLOTS,
    DEFAULT_MAX_SLABS,
    DEFAULT_SLAB_BYTES,
    SlabArena,
    SlabClient,
)
from repro.workloads.tuples import TupleBatch

#: Fork is required: children must inherit the imported code (spawn
#: would re-import, which also works, but fork keeps warm start cheap
#: and matches the pre-forked-pool design).
_CTX = multiprocessing.get_context("fork")

#: Seconds between arena retries while a full arena waits for children
#: to consume their blocks.
_ARENA_POLL = 0.0005


def _child_main(conn, worker_id: int, ctrl_name: str) -> None:  # hot-path
    """One warm worker subprocess: drain the pipe until handoff.

    State lives entirely in this process: job specs, per-job streaming
    sessions, and the segment/error ledgers that ship back on flush.
    ``ctrl_name`` is the arena control block; slabs attach lazily on
    their first descriptor.
    """
    specs: Dict[str, SessionSpec] = {}
    sessions: Dict[str, StreamingSession] = {}
    #: (job_id, tenant, tuples, cycles, dispatch_clock) — the trace
    #: context rides the ledger so the parent can emit segment events
    #: with the clock stamped at dispatch time, not drain time.
    records: List[Tuple[str, str, int, int, int]] = []
    errors: List[Tuple[str, str]] = []        # (job_id, message)
    slabs = SlabClient(ctrl_name)

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; daemon child just exits
            kind = msg[0]
            if kind == "job":
                _, job_id, spec = msg
                specs[job_id] = spec
            elif kind == "shard":
                (_, job_id, tenant_id, tuple_bytes, dispatch_clock,
                 record, desc) = msg
                keys, values = slabs.views(desc)
                try:
                    session = sessions.get(job_id)
                    if session is None:
                        session = specs[job_id].build()
                        sessions[job_id] = session
                    outcome = session.process(
                        TupleBatch(keys, values, tuple_bytes))
                    if record:
                        records.append((job_id, tenant_id, outcome.tuples,
                                        outcome.cycles, dispatch_clock))
                except Exception as exc:  # noqa: BLE001 — shipped to parent
                    errors.append((
                        job_id,
                        "".join(traceback.format_exception_only(
                            type(exc), exc)).strip(),
                    ))
                finally:
                    # Drop the views, then publish the consumed
                    # sequence so the parent can recycle the block.
                    del keys, values
                    slabs.done(worker_id, desc.seq)
            elif kind == "flush":
                conn.send(("flushed", records, errors))
                records, errors = [], []
            elif kind == "collect":
                _, job_id = msg
                session = sessions.pop(job_id, None)
                snap = (session.snapshot()
                        if session is not None and session.segments
                        else None)
                conn.send(("collected", snap))
            elif kind == "handoff":
                snaps = {job_id: session.snapshot()
                         for job_id, session in sessions.items()
                         if session.segments}
                conn.send(("handoff", snaps, records, errors))
                conn.close()
                return
    finally:
        slabs.detach()  # close mappings before interpreter teardown


class _ChildHandle:
    """Parent-side bookkeeping for one warm worker subprocess."""

    def __init__(self, worker_id: int, generation: int,
                 ctrl_name: str) -> None:
        self.worker_id = worker_id
        self.generation = generation
        parent_conn, child_conn = _CTX.Pipe()
        self.conn = parent_conn
        self.process = _CTX.Process(
            target=_child_main,
            args=(child_conn, worker_id, ctrl_name),
            name=f"pipeline-proc-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: Jobs whose SessionSpec this child has received.
        self.jobs: Set[str] = set()


class ProcessBackend(ExecutionBackend):
    """K warm pre-forked pipeline workers fed through a slab arena.

    Parameters
    ----------
    workers:
        Fleet size K, at most :data:`~repro.service.shm.CTRL_SLOTS`.
    spec_factory:
        ``job_id -> SessionSpec``; the spec is shipped to the owning
        child on the job's first shard so the child can build the
        per-(worker, job) session itself.
    metrics:
        Shared :class:`~repro.service.metrics.ServiceMetrics`; child
        segment ledgers are folded in on :meth:`drain`, and shard
        transport events land in its ``transport`` counters.
    join_timeout:
        Seconds to wait for a child to reply, to exit on :meth:`stop` /
        scale-down before it is forcibly terminated, or to free arena
        blocks for a shard before that shard's job fails.
    tracer:
        Optional :class:`~repro.obs.collector.TraceCollector`; a
        disabled collector is installed when omitted.  Children never
        trace — their ledgers carry the context and the parent emits on
        their behalf at drain, keeping the pipe protocol free of trace
        traffic.
    slab_bytes / max_slabs:
        Arena sizing (see :class:`~repro.service.shm.SlabArena`).
    """

    def __init__(
        self,
        workers: int,
        spec_factory: Callable[[str], SessionSpec],
        metrics,
        join_timeout: float = 60.0,
        tracer: Optional[TraceCollector] = None,
        slab_bytes: int = DEFAULT_SLAB_BYTES,
        max_slabs: int = DEFAULT_MAX_SLABS,
    ) -> None:
        if not 0 < workers <= CTRL_SLOTS:
            raise ValueError(f"workers must be in 1..{CTRL_SLOTS}")
        self.size = workers
        self.spec_factory = spec_factory
        self.metrics = metrics
        self.join_timeout = join_timeout
        self.tracer = tracer if tracer is not None else TraceCollector(
            enabled=False)
        self.slab_bytes = slab_bytes
        self.max_slabs = max_slabs
        self._arena: Optional[SlabArena] = None
        self._generation = 0
        self._children: List[_ChildHandle] = []
        #: Partials handed off by removed/stopped workers, awaiting
        #: collection, keyed (worker_id, generation, job_id).
        self._orphans: Dict[Tuple[int, int, str], SessionSnapshot] = {}
        self._errors: Dict[str, List[str]] = {}
        #: Crash-replay ledger: every dispatched shard of every live
        #: job, per worker, in dispatch order.  It holds the dispatched
        #: WorkItems themselves (references to the arrays the balancer
        #: already materialized, no copies); entries drop at collect.
        self._retained: Dict[int, List[WorkItem]] = {}
        #: Segment records already folded into the metrics, per
        #: (worker_id, job_id) — the replay cursor that keeps crash
        #: recovery exactly-once (pipe FIFO order makes the first N
        #: dispatched shards of a job the first N recorded).
        self._recorded: Dict[Tuple[int, str], int] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._arena = SlabArena(self.slab_bytes, self.max_slabs,
                                metrics=self.metrics, tracer=self.tracer)
        self._generation += 1
        self._children = [self._mint(i) for i in range(self.size)]
        self._started = True
        if self.tracer.enabled:
            for child in self._children:
                self.tracer.emit(
                    trace_events.BACKEND_FORK,
                    worker=child.worker_id,
                    generation=child.generation, worker_kind="process",
                    pid=child.process.pid)

    def stop(self) -> None:
        """Hand off every child's state, then stop the fleet.

        Children flush their segment/error ledgers and surrender their
        retained partial sessions as orphan snapshots (so a post-stop
        :meth:`collect` still merges them, matching the inline pool's
        retained ``_sessions``).  The arena is closed and unlinked here,
        whatever else fails: stop leaves no ``/dev/shm`` residue.  The
        pool is marked stopped before any failure is surfaced, so it
        always stays restartable.
        """
        if not self._started:
            return
        children, self._children = self._children, []
        self._started = False
        self._retained.clear()
        self._recorded.clear()
        stuck: List[int] = []
        try:
            for child in children:
                if not self._handoff(child):
                    continue
                child.process.join(timeout=self.join_timeout)
                if child.process.is_alive():
                    child.process.terminate()
                    child.process.join(timeout=5.0)
                    if child.process.is_alive():
                        stuck.append(child.worker_id)
        finally:
            self._arena.close()
            self._arena = None
        if stuck:
            raise RuntimeError(
                f"workers {stuck} did not stop within "
                f"{self.join_timeout:g}s (segment exceeding its cycle "
                "budget?)")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, worker_id: int, item: WorkItem) -> None:  # hot-path
        """Ship one shard to one child; retain it for crash replay.

        A shard the arena could not place within ``join_timeout`` is
        not sent: its job fails through the error ledger.
        """
        if not 0 <= worker_id < self.size:
            raise ValueError(f"no such worker {worker_id}")
        if not self._started:
            raise RuntimeError("pool is not running; call start() first")
        if len(item.batch) == 0:
            return  # parity with the inline worker's empty-shard skip
        retained = self._retained.setdefault(worker_id, [])
        retained.append(item)
        try:
            sent = self._send(self._children[worker_id], item, record=True)
        except (BrokenPipeError, EOFError, OSError):
            self._revive(worker_id, crashed_while=item.job_id)
            return
        if not sent:
            retained.pop()
            self._errors.setdefault(item.job_id, []).append(
                f"RuntimeError: no shared-memory block freed for a shard "
                f"to worker {worker_id} within {self.join_timeout:g}s")

    def drain(self) -> None:
        """Flush every child and fold their ledgers into the metrics.

        The pipe is FIFO, so the flush reply doubles as a completion
        barrier: when it arrives, every previously dispatched shard has
        been processed.  The parent never holds a recv while a child
        waits on it, so the barrier cannot deadlock.  A child found
        dead at the barrier is revived and its retained shards replayed
        (sessions rebuilt, already-folded records suppressed), then
        flushed again; only a second failure gives up on its jobs.
        """
        if not self._started:
            return
        for worker_id in range(self.size):
            for _ in range(2):
                child = self._children[worker_id]
                reply = self._roundtrip(child, ("flush",))
                if reply is not None:
                    _, records, errors = reply
                    self._fold(child.worker_id, child.generation,
                               records, errors)
                    break
                self._revive(worker_id)
            else:
                self._give_up(worker_id)
        if self.tracer.enabled:
            self.tracer.emit(trace_events.BACKEND_DRAIN,
                             backend="process", workers=self.size)

    def resize(self, workers: int) -> None:
        """Grow with fresh warm children or shrink via state handoff.

        New children get a bumped pool generation (worker-id reuse can
        never adopt an old partial); removed children flush, surrender
        their partial sessions as orphan snapshots for :meth:`collect`,
        and exit.  Callers must stop routing to removed worker IDs
        first (the balancer's ``reconfigure`` does this).
        """
        if not 0 < workers <= CTRL_SLOTS:
            raise ValueError(f"workers must be in 1..{CTRL_SLOTS}")
        if workers == self.size:
            return
        if workers > self.size:
            if self._started:
                self._generation += 1
                grown = [self._mint(i)
                         for i in range(self.size, workers)]
                self._children.extend(grown)
                if self.tracer.enabled:
                    for child in grown:
                        self.tracer.emit(
                            trace_events.BACKEND_FORK,
                            worker=child.worker_id,
                            generation=child.generation,
                            worker_kind="process", pid=child.process.pid)
            self.size = workers
            return
        removed = self._children[workers:] if self._started else []
        if self._started:
            self._children = self._children[:workers]
        self.size = workers
        for child in removed:
            # A handed-off worker has processed everything dispatched
            # to it; its snapshots carry the state, so the replay
            # ledger (and any slab blocks) can go.
            self._forget(child.worker_id)
            if self._handoff(child):
                child.process.join(timeout=self.join_timeout)
                if child.process.is_alive():
                    child.process.terminate()

    # ------------------------------------------------------------------
    # Errors and collection
    # ------------------------------------------------------------------
    def errors(self, job_id: str) -> List[str]:
        return list(self._errors.get(job_id, []))

    def clear_errors(self, job_id: str) -> None:
        """Drop one job's error ledger (see the inline pool's docs)."""
        self._errors.pop(job_id, None)

    def collect(self, job_id: str) -> Optional[StreamingSession]:
        """Merge one finished job's partials from children and orphans.

        Call only after :meth:`drain`.  Children surrender their
        snapshot for the job over the pipe; partials from workers
        removed by a scale-down (or a stop) come from the orphan store.
        Merge order is ascending (worker_id, generation), identical to
        the inline pool.  A child found dead here is revived, replayed,
        flushed, and asked again — its partial is reconstructed, not
        lost.  The job's replay ledger is released either way.
        """
        self._errors.pop(job_id, None)
        snaps: List[Tuple[int, int, SessionSnapshot]] = []
        if self._started:
            for worker_id in range(self.size):
                child = self._children[worker_id]
                if job_id not in child.jobs:
                    continue
                child.jobs.discard(job_id)
                reply = self._roundtrip(child, ("collect", job_id))
                if reply is None:
                    reply = self._recollect(worker_id, job_id)
                    if reply is None:
                        self._give_up(worker_id)
                        continue
                    child = self._children[worker_id]
                snap = reply[1]
                if snap is not None:
                    snaps.append((child.worker_id, child.generation, snap))
        self._release_job(job_id)
        orphan_keys = sorted(key for key in self._orphans
                             if key[2] == job_id)
        for key in orphan_keys:
            snaps.append((key[0], key[1], self._orphans.pop(key)))
        if not snaps:
            return None
        snaps.sort(key=lambda entry: (entry[0], entry[1]))
        merged = self.spec_factory(job_id).build()
        for _, _, snap in snaps:
            merged.absorb(snap)
        return merged

    # ------------------------------------------------------------------
    # Shard transport
    # ------------------------------------------------------------------
    def _send(self, child: _ChildHandle, item: WorkItem,  # hot-path
              record: bool) -> bool:
        """Write one shard into the arena and send its descriptor.

        While the arena is full this polls the consumed-sequence
        handshake for at most ``join_timeout``, then returns False
        (nothing sent).  A block holder found dead meanwhile is revived
        and replayed, which frees its blocks; if that holder is
        ``child`` itself, the pipe error is raised for the caller's
        crash path.  Pipe errors propagate to the caller.
        """
        if item.job_id not in child.jobs:
            child.conn.send(
                ("job", item.job_id, self.spec_factory(item.job_id)))
            child.jobs.add(item.job_id)
        keys, values = item.batch.keys, item.batch.values
        deadline = wallclock.monotonic() + self.join_timeout
        while (desc := self._arena.write(child.worker_id, keys,
                                         values)) is None:
            for worker_id in self._arena.holders():
                if self._children[worker_id].process.is_alive():
                    continue
                if worker_id == child.worker_id:
                    raise BrokenPipeError(
                        f"worker {worker_id} died holding arena blocks")
                self._revive(worker_id)
            if wallclock.monotonic() >= deadline:
                return False
            time.sleep(_ARENA_POLL)
        child.conn.send(("shard", item.job_id, item.tenant_id,
                         item.batch.tuple_bytes, item.dispatch_clock,
                         record, desc))
        self.metrics.record_transport(
            shards_shm=1, shard_bytes_shared=keys.nbytes + values.nbytes)
        return True

    # ------------------------------------------------------------------
    # Child plumbing
    # ------------------------------------------------------------------
    def _mint(self, worker_id: int) -> _ChildHandle:
        return _ChildHandle(worker_id, self._generation,
                            self._arena.ctrl_name)

    def _roundtrip(self, child: _ChildHandle, msg) -> Optional[tuple]:
        """Send one request and await its reply; None if the child died."""
        try:
            child.conn.send(msg)
            if not child.conn.poll(self.join_timeout):
                return None
            return child.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            return None

    def _handoff(self, child: _ChildHandle) -> bool:
        """Ask a child to flush, surrender its sessions, and exit."""
        reply = self._roundtrip(child, ("handoff",))
        if reply is None:
            self._abandon(child)
            return False
        _, snapshots, records, errors = reply
        for job_id, snap in snapshots.items():
            self._orphans[(child.worker_id, child.generation, job_id)] = snap
        self._fold(child.worker_id, child.generation, records, errors)
        return True

    def _fold(self, worker_id: int, generation: int,
              records: List[Tuple[str, str, int, int, int]],
              errors: List[Tuple[str, str]]) -> None:
        """Fold a child's shipped ledgers into the parent's state.

        Segment trace events are emitted here (on the parent) with the
        dispatch-time clock the record carried across the pipe — the
        same stamp the inline worker uses, so traces match across
        backends.  Each folded record advances the replay cursor for
        its (worker, job): those shards will never record again.
        """
        trace = self.tracer.enabled
        for job_id, tenant_id, tuples, cycles, clock in records:
            self.metrics.record_segment(worker_id, tuples, cycles,
                                        tenant=tenant_id)
            key = (worker_id, job_id)
            self._recorded[key] = self._recorded.get(key, 0) + 1
            if trace:
                self.tracer.emit(
                    trace_events.JOB_SEGMENT, clock,
                    job_id=job_id, tenant_id=tenant_id,
                    worker=worker_id, generation=generation,
                    tuples=tuples, cycles=cycles)
        for job_id, message in errors:
            self._errors.setdefault(job_id, []).append(message)

    def _abandon(self, child: _ChildHandle) -> None:
        """Write off a dead/unresponsive child and its in-flight jobs.

        Only the stop/shrink handoff path lands here — a crash during
        serving goes through :meth:`_revive` + replay instead.
        """
        for job_id in sorted(child.jobs):
            self._errors.setdefault(job_id, []).append(
                f"RuntimeError: worker {child.worker_id} subprocess "
                "died; its partial results for this job were lost")
        self._terminate(child)

    def _terminate(self, child: _ChildHandle) -> None:
        try:
            child.conn.close()
        except OSError:
            pass
        if child.process.is_alive():
            child.process.terminate()

    def _revive(self, worker_id: int, crashed_while: str = None) -> None:
        """Replace a crashed child and replay its retained shards.

        The replacement keeps the same worker id (merge order is
        per-id, and a replayed shard holds the tuples its window's
        split gave that id, so results stay bit-identical) under a
        fresh generation.  Replay rebuilds every live job's
        session from the retained ledger; records already folded replay
        silently (``record=False``).
        """
        child = self._children[worker_id]
        if crashed_while is not None:
            child.jobs.add(crashed_while)
        retained = self._retained.get(worker_id, [])
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.BACKEND_CRASH,
                job_id=crashed_while,
                worker=child.worker_id, generation=child.generation,
                lost_jobs=len(child.jobs),
                retained_shards=len(retained))
        lost_jobs = set(child.jobs)
        self._terminate(child)
        # The dead child's unconsumed blocks are unreadable now; replay
        # re-places the shards.
        self._arena.release_worker(worker_id)
        self._generation += 1
        replacement = self._mint(worker_id)
        self._children[worker_id] = replacement
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.BACKEND_RESPAWN,
                worker=worker_id, generation=replacement.generation,
                pid=replacement.process.pid)
        self._replay(worker_id, lost_jobs)

    def _replay(self, worker_id: int, lost_jobs: Set[str]) -> None:
        """Resend a revived worker's retained shards in dispatch order."""
        child = self._children[worker_id]
        replayed: Dict[str, int] = {}
        trace = self.tracer.enabled
        try:
            for entry in self._retained.get(worker_id, []):
                index = replayed.get(entry.job_id, 0)
                replayed[entry.job_id] = index + 1
                record = index >= self._recorded.get(
                    (worker_id, entry.job_id), 0)
                if not self._send(child, entry, record=record):
                    self._give_up(worker_id, also=lost_jobs)
                    return
                self.metrics.record_transport(shard_retries=1)
                if trace:
                    self.tracer.emit(
                        trace_events.BACKEND_SHARD_RETRY,
                        entry.dispatch_clock,
                        job_id=entry.job_id, tenant_id=entry.tenant_id,
                        worker=worker_id,
                        generation=child.generation,
                        tuples=len(entry.batch), recorded=record)
        except (BrokenPipeError, EOFError, OSError):
            self._give_up(worker_id, also=lost_jobs)

    def _give_up(self, worker_id: int, also: Set[str] = frozenset()) -> None:
        """A worker died again (or its replay found the arena full
        past the timeout) during recovery: fail its live jobs."""
        child = self._children[worker_id]
        retained = self._retained.get(worker_id, [])
        doomed = ({entry.job_id for entry in retained}
                  | set(child.jobs) | set(also))
        for job_id in sorted(doomed):
            self._errors.setdefault(job_id, []).append(
                f"RuntimeError: worker {worker_id} subprocess died "
                "and its replacement failed during shard replay; "
                "partial results for this job were lost")
        self._terminate(child)
        self._forget(worker_id)

    def _recollect(self, worker_id: int, job_id: str) -> Optional[tuple]:
        """Collect from a worker that died at collection time.

        Revive + replay rebuilt the session; flush the replayed
        segments (folding only not-yet-recorded ones), then ask for
        the snapshot again.
        """
        self._revive(worker_id)
        child = self._children[worker_id]
        reply = self._roundtrip(child, ("flush",))
        if reply is None:
            return None
        self._fold(child.worker_id, child.generation, reply[1], reply[2])
        child.jobs.discard(job_id)
        return self._roundtrip(child, ("collect", job_id))

    def _forget(self, worker_id: int) -> None:
        """Drop a worker's replay ledger and slab blocks."""
        self._retained.pop(worker_id, None)
        for key in [key for key in self._recorded if key[0] == worker_id]:
            del self._recorded[key]
        self._arena.release_worker(worker_id)

    def _release_job(self, job_id: str) -> None:
        """Drop one job's replay ledger across all workers (at collect)."""
        for worker_id, entries in list(self._retained.items()):
            kept = [e for e in entries if e.job_id != job_id]
            if kept:
                self._retained[worker_id] = kept
            else:
                self._retained.pop(worker_id)
        for key in [key for key in self._recorded if key[1] == job_id]:
            del self._recorded[key]
