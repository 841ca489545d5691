"""Process execution backend: K logical workers on at most cores − 1
warm child processes.

The ``backend="process"`` adapter of the
:class:`~repro.service.executor.ExecutionBackend` port.  Where the
inline adapter (:mod:`repro.service.pool`) runs every shard on the
dispatcher thread — deterministic, one core — this one runs them in
child processes forked once and kept warm across jobs (the ModelOps
warm-pool shape: no per-job cold start, routing stays the balancer's
problem, partial results merge on collection).

Hosting rule.  K stays the fleet's *logical* worker count — worker ids,
per-(worker, generation) sessions, segment records and the merge order
are the inline pool's.  The processes that host them are sized to the
host instead: one CPU of the affinity set stays the dispatcher's, and
each spare CPU gets at most one child.  Worker ``w`` lives in child
``w % max(1, spare)``; a child is forked the first time a minted worker
maps to it, so K ≤ spare CPUs keeps one child per worker and a 2-core
host runs one child.  (Pinning each child to its CPU was measured and
did not pay: the kernel already keeps one busy child off the
dispatcher's CPU.)  The map never moves a live
session: a shrink takes the removed workers' sessions back as orphans
and their host keeps serving its other workers.

The child splits.  :meth:`ProcessBackend.dispatch_window` stages a
whole window with its :class:`~repro.service.balancer.WindowRoute` (and
retains it for crash replay) on every host of a worker the route
reaches; ``dispatch(worker, item)`` stages a window routed wholly to
``worker``.  A host's staged windows ship once the next would push the
block past ``slab_bytes // 8`` (a larger window ships alone), before a
window of other dtypes, and at the start of ``drain``, ``collect``,
``resize`` and ``stop``: one
:meth:`~repro.service.shm.SlabArena.write_block` into the shared-memory
arena (:mod:`repro.service.shm`, one consumed-sequence ring per child)
and one ``("window", descriptor, entries)`` pipe message.  The child
splits each window by its route over read-only views — the inline
pool's shard ids, so its shards — and runs its hosted workers' shards
in split order, each under its own ``try``, then publishes the block's
sequence once.  Job specs
(:class:`~repro.service.executor.SessionSpec`) cross the pipe once per
(child, job); partials come back as
:class:`~repro.runtime.session.SessionSnapshot`s.  When the arena is
full, shipping waits for the handshake, bounded by ``join_timeout``: a
holder found dead meanwhile is revived and replayed (below), and a wait
that times out fails the block's jobs through the error ledger.

Determinism contract: a child ledgers each segment's (worker, job,
tenant, tuples, cycles, dispatch clock), the shard list of each window
it reports (when tracing: the lowest host a window reaches) and the
shards it ran; every reply carries the ledgers back, where the parent
folds them into the shared
:class:`~repro.service.metrics.ServiceMetrics` and emits ``job.window``
and ``job.segment`` under the dispatch-time clock.  Segment
accounting is commutative per worker, and the dispatch clock is
advanced only by the dispatcher thread, so metrics snapshots after a
drain are identical to the inline backend's (the only backend-variant
section of the snapshot is the dedicated ``transport`` counter block).
Collection merges partials in ascending (worker_id, generation) order —
the inline adapter's order — which keeps order-sensitive reductions
(partition lists) bit-identical across backends.

Crash recovery replays instead of failing: the parent retains every
window of each live job handed to a host, with its route, in dispatch
order (released when the job collects).  A dead child's replacement
is forked at the same index, sent the replay cursor (the segment
records per (worker, job) already folded, which it suppresses), and
replayed the retained windows in order, rebuilding the sessions
bit-identically; a window report already folded is dropped.  Only a
second failure during replay gives up and fails the host's jobs.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set,
    Tuple,
)

from repro import wallclock
from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector
from repro.runtime.session import SessionSnapshot, StreamingSession
from repro.service.balancer import WindowRoute
from repro.service.executor import ExecutionBackend, SessionSpec
from repro.service.pool import WorkItem, error_text
from repro.service.shm import (
    CTRL_SLOTS,
    DEFAULT_MAX_SLABS,
    DEFAULT_SLAB_BYTES,
    SlabArena,
    SlabClient,
)
from repro.workloads.tuples import TupleBatch

#: Fork is required: children must inherit the imported code (spawn
#: would re-import, which also works, but fork keeps warm start cheap).
_CTX = multiprocessing.get_context("fork")

#: Seconds between arena retries while a full arena waits for children
#: to consume their blocks.
_ARENA_POLL = 0.0005

#: What a pipe to a dead child raises.
_PIPE_ERRORS = (BrokenPipeError, EOFError, OSError)


class _Window(NamedTuple):
    """A window staged on one host, which runs the ``hosted`` workers'
    shards of it and, if ``report``, ledgers its shard list."""

    item: WorkItem
    route: WindowRoute
    report: bool
    hosted: FrozenSet[int]


def _spare_cores() -> int:
    """CPUs left for warm children: the affinity set (or, where the
    platform has none, ``os.cpu_count()``) minus the dispatcher's.  The
    one place the hosting map reads the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _child_main(conn, slot: int, ctrl_name: str) -> None:
    """One warm child: run its workers' window blocks until handoff.

    ``slot`` is this child's consumed-sequence slot in the arena control
    block ``ctrl_name``; slabs attach lazily.
    """
    slabs = SlabClient(ctrl_name)
    try:
        _serve(conn, slot, slabs)
    finally:
        # Close the mappings once _serve's frame — and with it every
        # local still viewing a slab — is gone.
        slabs.detach()


def _serve(conn, slot: int, slabs: SlabClient) -> None:  # hot-path
    """The child's message loop.

    State lives entirely in this process: job specs, the hosted
    workers' per-(worker, job) sessions, the replay cursor, and the
    ledgers every reply ships back.
    """
    specs: Dict[str, SessionSpec] = {}
    sessions: Dict[Tuple[int, str], StreamingSession] = {}
    #: (worker, job_id, tenant, tuples, cycles, dispatch_clock) — the
    #: trace context rides the ledger so the parent can emit segment
    #: events with the clock stamped at dispatch time, not drain time.
    records: List[Tuple[int, str, str, int, int, int]] = []
    errors: List[Tuple[str, str]] = []        # (job_id, message)
    #: (job_id, tenant, clock, window_index, tuples, [[worker, tuples]])
    #: of each reported window.
    windows: List[tuple] = []
    ran = 0                                   # shards run
    #: Records per (worker, job) the parent folded before a crash:
    #: their replays record nothing.
    skip: Dict[Tuple[int, str], int] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent went away; daemon child just exits
        kind = msg[0]
        if kind == "window":
            _, desc, entries = msg
            keys, values = slabs.views(desc)
            try:
                for (job_id, tenant_id, tuple_bytes, clock, route, report,
                     hosted, start, stop) in entries:
                    shards = route.split(TupleBatch(
                        keys[start:stop], values[start:stop], tuple_bytes))
                    if report:
                        windows.append((
                            job_id, tenant_id, clock, route.window_index,
                            stop - start, [[worker_id, len(shard)]
                                           for worker_id, shard
                                           in shards.items()]))
                    for worker_id, shard in shards.items():
                        if worker_id not in hosted:
                            continue
                        ran += 1
                        key = (worker_id, job_id)
                        try:
                            session = sessions.get(key)
                            if session is None:
                                session = sessions[key] = \
                                    specs[job_id].build()
                            outcome = session.process(shard)
                        except Exception as exc:  # noqa: BLE001 — shipped
                            errors.append((job_id, error_text(exc)))
                            continue
                        if skip.get(key):
                            skip[key] -= 1
                        else:
                            records.append((
                                worker_id, job_id, tenant_id,
                                outcome.tuples, outcome.cycles, clock))
            finally:
                # Drop the views, then publish the consumed
                # sequence so the parent can recycle the block.
                del keys, values
                slabs.done(slot, desc.seq)
            continue
        if kind == "job":
            specs[msg[1]] = msg[2]
            continue
        if kind == "cursor":
            skip = msg[1]
            continue
        # A request — flush, collect or handoff: the reply carries
        # the surrendered snapshots and the ledgers.
        if kind == "collect":
            taken = [key for key in sessions if key[1] == msg[1]]
        elif kind == "handoff":
            taken = [key for key in sessions
                     if msg[1] is None or key[0] in msg[1]]
        else:
            taken = []
        snaps = {}
        for key in taken:
            session = sessions.pop(key)
            if session.segments:
                snaps[key] = session.snapshot()
        conn.send((snaps, records, errors, windows, ran))
        records, errors, windows, ran = [], [], [], 0
        if kind == "handoff" and msg[1] is None:
            conn.close()
            return


class _Host:
    """Parent-side bookkeeping for one warm child and its workers."""

    def __init__(self, index: int, ctrl_name: str) -> None:
        self.index = index
        parent_conn, child_conn = _CTX.Pipe()
        self.conn = parent_conn
        self.process = _CTX.Process(
            target=_child_main,
            args=(child_conn, index, ctrl_name),
            name=f"pipeline-proc-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: Jobs whose SessionSpec this child has received.
        self.jobs: Set[str] = set()
        #: Windows waiting for the next block, in dispatch order.
        self.staged: List[_Window] = []
        #: Crash-replay ledger: every window of every live job handed
        #: to this host, in dispatch order — the WorkItems themselves
        #: (no copies); entries drop at collect.
        self.retained: List[_Window] = []

    def fits(self, batch: TupleBatch, budget: int) -> bool:
        """Whether a window joins the staged block: within ``budget``
        bytes, and of the block's dtypes."""
        if not self.staged:
            return True
        first = self.staged[0].item.batch
        return (sum(window.item.batch.keys.nbytes
                    + window.item.batch.values.nbytes
                    for window in self.staged)
                + batch.keys.nbytes + batch.values.nbytes <= budget
                and batch.keys.dtype == first.keys.dtype
                and batch.values.dtype == first.values.dtype)

    def take(self) -> List[_Window]:
        staged, self.staged = self.staged, []
        return staged


class ProcessBackend(ExecutionBackend):
    """K logical workers on at most cores − 1 warm children, fed whole
    windows with their routes, several per slab-arena block.

    Parameters
    ----------
    workers:
        Logical fleet size K, at most
        :data:`~repro.service.shm.CTRL_SLOTS`.  The child count comes
        from the host (see the module docstring), not from K.
    spec_factory:
        ``job_id -> SessionSpec``; the spec is shipped to a child with
        the first block holding the job's windows, so the child can
        build the per-(worker, job) sessions itself.
    metrics:
        Shared :class:`~repro.service.metrics.ServiceMetrics`; child
        segment ledgers are folded in as replies arrive, and shard
        transport events land in its ``transport`` counters.
    join_timeout:
        Seconds to wait for a child to reply, to exit on :meth:`stop`
        before it is forcibly terminated, or to free arena blocks for a
        block before that block's jobs fail.
    tracer:
        Optional :class:`~repro.obs.collector.TraceCollector`; a
        disabled collector is installed when omitted.  Children never
        trace — their ledgers carry the context and the parent emits on
        their behalf, keeping the pipe protocol free of trace traffic.
    slab_bytes / max_slabs:
        Arena sizing (see :class:`~repro.service.shm.SlabArena`); a
        block ships before it outgrows ``slab_bytes // 8``.
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
        #: Child count: worker ``w`` lives in child ``w % _slots``.
        self._slots = 1
        self._hosts: Dict[int, _Host] = {}
        self._generation = 0
        #: The generation each live worker id was minted under.
        self._generations: List[int] = [0] * workers
        #: Partials handed off by removed/stopped workers, awaiting
        #: collection, keyed (worker_id, generation, job_id).
        self._orphans: Dict[Tuple[int, int, str], SessionSnapshot] = {}
        self._errors: Dict[str, List[str]] = {}
        #: Segment records already folded into the metrics, per
        #: (worker_id, job_id) — the replay cursor that keeps crash
        #: recovery exactly-once (pipe FIFO order makes the first N
        #: shards a worker runs of a job the first N recorded).
        self._recorded: Dict[Tuple[int, str], int] = {}
        #: (job_id, window_index) of every window report folded.
        self._reported: Set[Tuple[str, int]] = set()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._arena = SlabArena(self.slab_bytes, self.max_slabs,
                                metrics=self.metrics, tracer=self.tracer)
        self._slots = max(1, _spare_cores())
        self._generation += 1
        self._generations = [self._generation] * self.size
        self._started = True
        self._mint(range(self.size))

    def stop(self) -> None:
        """Hand off every child's state, then stop the fleet.

        Staged windows ship first.  Children then surrender their
        partial sessions as orphan snapshots (so a post-stop
        :meth:`collect` still merges them, matching the inline pool's
        retained sessions) and exit.  The arena is closed and unlinked
        whatever else fails: stop leaves no ``/dev/shm`` residue.  The
        pool is marked stopped before any failure is surfaced, so it
        always stays restartable.
        """
        if not self._started:
            return
        self._started = False
        stuck: List[int] = []
        try:
            self._ship_all()
            for host in list(self._hosts.values()):
                snaps = self._roundtrip(host, ("handoff", None))
                if snaps is None:
                    self._abandon(host)
                    continue
                self._orphan(snaps)
                host.process.join(timeout=self.join_timeout)
                if host.process.is_alive():
                    host.process.terminate()
                    host.process.join(timeout=5.0)
                    if host.process.is_alive():
                        stuck.append(host.index)
        finally:
            self._hosts = {}
            self._recorded.clear()
            self._reported.clear()
            self._arena.close()
            self._arena = None
        if stuck:
            raise RuntimeError(
                f"worker processes {stuck} did not stop within "
                f"{self.join_timeout:g}s (segment exceeding its cycle "
                "budget?)")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, worker_id: int, item: WorkItem) -> None:  # hot-path
        """Hand one shard to one worker: a window routed wholly to it."""
        if not 0 <= worker_id < self.size:
            raise ValueError(f"no such worker {worker_id}")
        self.dispatch_window(item, WindowRoute(((worker_id,),)))

    def dispatch_window(self, item: WorkItem,  # hot-path
                        route: WindowRoute) -> None:
        """Stage and retain a window on every host of a worker the
        route reaches; when tracing, the lowest such host reports the
        shard list of a window of a job's sequence.

        A host's staged block ships first if this window would push it
        past the budget or change its dtypes (see the module docstring).
        """
        if not self._started:
            raise RuntimeError("pool is not running; call start() first")
        if len(item.batch) == 0:
            return  # parity with the inline worker's empty-shard skip
        if route.memo is not None:  # the ids stay out of the ledger
            route = dataclasses.replace(route, memo=None)
        hosted: Dict[int, Set[int]] = {}  # host -> its workers' ids
        for worker_id in {w for team in route.teams for w in team}:
            hosted.setdefault(worker_id % self._slots, set()).add(worker_id)
        report = self.tracer.enabled and route.window_index is not None
        for index in sorted(hosted):
            if not self._hosts[index].fits(item.batch, self.slab_bytes // 8):
                self._flush(index)
            host = self._hosts[index]  # a crash while flushing replaced it
            window = _Window(item, route, report, frozenset(hosted[index]))
            host.staged.append(window)
            host.retained.append(window)
            report = False

    def drain(self) -> None:
        """Ship every staged block, then flush every child's ledgers.

        The pipe is FIFO, so the flush reply doubles as a completion
        barrier: when it arrives, every block shipped before it has
        been processed.  The parent never holds a recv while a child
        waits on it, so the barrier cannot deadlock.  A child found
        dead at the barrier is revived and its retained windows replayed
        (sessions rebuilt, already-folded records suppressed), then
        flushed again; only a second failure gives up on its jobs.
        """
        if not self._started:
            return
        self._ship_all()
        for index in list(self._hosts):
            if self._ask(index, ("flush",)) is None:
                self._give_up(index)
        if self.tracer.enabled:
            self.tracer.emit(trace_events.BACKEND_DRAIN,
                             backend="process", workers=self.size)

    def resize(self, workers: int) -> None:
        """Grow with fresh workers or shrink via state handoff.

        New workers get a bumped pool generation (worker-id reuse can
        never adopt an old partial) and live where the hosting rule puts
        them, forking a child only if theirs is not running yet.
        Removed workers' hosts surrender those workers' partial sessions
        as orphan snapshots for :meth:`collect` and keep serving their
        other workers.  Callers must stop routing to removed worker IDs
        first (the balancer's ``reconfigure`` does this).
        """
        if not 0 < workers <= CTRL_SLOTS:
            raise ValueError(f"workers must be in 1..{CTRL_SLOTS}")
        if workers == self.size:
            return
        if workers > self.size:
            grown = range(self.size, workers)
            self._generation += 1
            self._generations.extend([self._generation] * len(grown))
            self.size = workers
            if self._started:
                self._mint(grown)
            return
        if self._started:
            self._ship_all()
            slots = self._slots
            removed = range(workers, self.size)
            for index in sorted({w % slots for w in removed}):
                snaps = self._ask(index, ("handoff", [
                    w for w in removed if w % slots == index]))
                if snaps is None:
                    self._give_up(index)
                    continue
                self._orphan(snaps)
                host = self._hosts[index]
                kept = frozenset(range(workers))
                host.retained = [
                    window._replace(hosted=window.hosted & kept)
                    for window in host.retained if window.hosted & kept]
            for key in [key for key in self._recorded if key[0] >= workers]:
                del self._recorded[key]
        del self._generations[workers:]
        self.size = workers

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
        workers' snapshots for the job over the pipe; partials from
        workers removed by a scale-down (or a stop) come from the
        orphan store.  Merge order is ascending (worker_id,
        generation), identical to the inline pool.  A child found dead
        here is revived, replayed and asked again — its partials are
        reconstructed, not lost.  The job's replay ledger is released
        either way.
        """
        self._errors.pop(job_id, None)
        snaps: List[Tuple[int, int, SessionSnapshot]] = []
        if self._started:
            self._ship_all()
            for index in list(self._hosts):
                if job_id not in self._hosts[index].jobs:
                    continue
                taken = self._ask(index, ("collect", job_id))
                self._hosts[index].jobs.discard(job_id)
                if taken is None:
                    self._give_up(index)
                    continue
                snaps.extend((worker_id, self._generations[worker_id], snap)
                             for (worker_id, _), snap in taken.items())
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
    def _ship_all(self) -> None:
        for index in list(self._hosts):
            self._flush(index)

    def _flush(self, index: int) -> None:
        """Ship one host's staged block; a dead host is revived instead
        (its replay re-ships the block), and a block the arena could
        not place within ``join_timeout`` fails its jobs unsent."""
        host = self._hosts[index]
        staged = host.take()
        try:
            if self._ship(host, staged):
                return
        except _PIPE_ERRORS:
            self._revive(index)
            return
        del host.retained[-len(staged):]  # staged: the ledger's tail
        for job_id in sorted({window.item.job_id for window in staged}):
            self._errors.setdefault(job_id, []).append(
                f"RuntimeError: no shared-memory block freed for a "
                f"window to worker process {index} within "
                f"{self.join_timeout:g}s")

    def _ship(self, host: _Host, staged: List[_Window]) -> bool:  # hot-path
        """Write staged windows as one block; send one window message.

        While the arena is full this polls the consumed-sequence
        handshake for at most ``join_timeout``, then returns False
        (nothing sent).  A block holder found dead meanwhile is revived
        and replayed, which frees its blocks; if that holder is
        ``host`` itself, the pipe error is raised for the caller's
        crash path.  Pipe errors propagate to the caller.
        """
        if not staged:
            return True
        keys = [window.item.batch.keys for window in staged]
        values = [window.item.batch.values for window in staged]
        deadline = wallclock.monotonic() + self.join_timeout
        while (desc := self._arena.write_block(host.index, keys,
                                               values)) is None:
            for index in self._arena.holders():
                if self._hosts[index].process.is_alive():
                    continue
                if index == host.index:
                    raise BrokenPipeError(
                        f"worker process {index} died holding arena "
                        "blocks")
                self._revive(index)
            if wallclock.monotonic() >= deadline:
                return False
            time.sleep(_ARENA_POLL)
        entries = []
        start = 0
        for item, route, report, hosted in staged:
            if item.job_id not in host.jobs:
                host.conn.send(
                    ("job", item.job_id, self.spec_factory(item.job_id)))
                host.jobs.add(item.job_id)
            stop = start + len(item.batch)
            entries.append((item.job_id, item.tenant_id,
                            item.batch.tuple_bytes, item.dispatch_clock,
                            route, report, hosted, start, stop))
            start = stop
        host.conn.send(("window", desc, entries))
        self.metrics.record_transport(
            shard_bytes_shared=sum(k.nbytes + v.nbytes
                                   for k, v in zip(keys, values)))
        return True

    # ------------------------------------------------------------------
    # Child plumbing
    # ------------------------------------------------------------------
    def _mint(self, worker_ids: Iterable[int]) -> None:
        """Place new workers, forking a host the first time one maps
        to it; ``backend.fork`` is per logical worker, host's pid."""
        for worker_id in worker_ids:
            index = worker_id % self._slots
            host = self._hosts.get(index)
            if host is None:
                host = self._hosts[index] = _Host(index,
                                                  self._arena.ctrl_name)
            if self.tracer.enabled:
                self.tracer.emit(
                    trace_events.BACKEND_FORK, worker=worker_id,
                    generation=self._generations[worker_id],
                    worker_kind="process", pid=host.process.pid)

    def _roundtrip(self, host: _Host, msg) -> Optional[dict]:
        """Send one request and fold the ledgers its reply carries.

        Returns the reply's ``{(worker_id, job_id): snapshot}`` map, or
        None if the child died.
        """
        try:
            host.conn.send(msg)
            if not host.conn.poll(self.join_timeout):
                return None
            snaps, *ledgers = host.conn.recv()
        except _PIPE_ERRORS:
            return None
        self._fold(*ledgers)
        return snaps

    def _ask(self, index: int, msg) -> Optional[dict]:
        """:meth:`_roundtrip`, reviving (and replaying) a dead host and
        asking once more; None if that fails too."""
        snaps = self._roundtrip(self._hosts[index], msg)
        if snaps is None:
            self._revive(index)
            snaps = self._roundtrip(self._hosts[index], msg)
        return snaps

    def _orphan(self, snaps: dict) -> None:
        for (worker_id, job_id), snap in snaps.items():
            self._orphans[
                (worker_id, self._generations[worker_id], job_id)] = snap

    def _fold(self, records: List[Tuple[int, str, str, int, int, int]],
              errors: List[Tuple[str, str]], windows: List[tuple],
              ran: int) -> None:
        """Fold a child's shipped ledgers into the parent's state.

        Window and segment trace events are emitted here (on the
        parent) with the dispatch-time clock the ledger carried across
        the pipe — the same stamp the inline pool uses, so traces match
        across backends.  Each folded record advances the replay cursor
        for its (worker, job): those shards will never record again.
        """
        trace = self.tracer.enabled
        if ran:
            self.metrics.record_transport(shards_shm=ran)
        for job_id, tenant_id, clock, index, tuples, shards in windows:
            if (job_id, index) in self._reported:
                continue  # a replayed window's second report
            self._reported.add((job_id, index))
            if trace:
                self.tracer.emit(
                    trace_events.JOB_WINDOW, clock, job_id=job_id,
                    tenant_id=tenant_id, tuples=tuples,
                    window_index=index, shards=shards)
        for worker_id, job_id, tenant_id, tuples, cycles, clock in records:
            self.metrics.record_segment(worker_id, tuples, cycles,
                                        tenant=tenant_id)
            key = (worker_id, job_id)
            self._recorded[key] = self._recorded.get(key, 0) + 1
            if trace:
                self.tracer.emit(
                    trace_events.JOB_SEGMENT, clock,
                    job_id=job_id, tenant_id=tenant_id, worker=worker_id,
                    generation=self._generations[worker_id],
                    tuples=tuples, cycles=cycles)
        for job_id, message in errors:
            self._errors.setdefault(job_id, []).append(message)

    def _abandon(self, host: _Host) -> None:
        """Write off a child that died at stop, and its jobs."""
        for job_id in sorted(host.jobs):
            self._errors.setdefault(job_id, []).append(
                f"RuntimeError: worker process {host.index} died; its "
                "partial results for this job were lost")
        self._terminate(host)

    def _terminate(self, host: _Host) -> None:
        try:
            host.conn.close()
        except OSError:
            pass
        if host.process.is_alive():
            host.process.terminate()

    def _revive(self, index: int) -> None:
        """Replace a crashed child and replay its retained windows.

        The replacement takes the same index, so every worker keeps its
        host, id and generation (merge order is per id, and a replayed
        window splits by its own route, so results stay bit-identical).
        It gets the replay cursor first, then every live job's windows
        in dispatch order; records already folded replay silently.  A
        second failure gives up on the host's jobs.
        """
        host = self._hosts[index]
        hosted = list(range(index, self.size, self._slots))
        # The lost shards, as the retained windows' routes split them.
        lost = [(window.item, worker_id, len(shard))
                for window in host.retained
                for worker_id, shard in window.route.split(
                    window.item.batch).items()
                if worker_id in window.hosted]
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.BACKEND_CRASH, workers=hosted,
                lost_jobs=len(host.jobs), retained_shards=len(lost))
        self._terminate(host)
        # The dead child's unconsumed blocks are unreadable now; replay
        # re-places the windows.
        self._arena.release_worker(index)
        replacement = self._hosts[index] = _Host(index,
                                                 self._arena.ctrl_name)
        replacement.retained = host.retained
        if self.tracer.enabled:
            self.tracer.emit(trace_events.BACKEND_RESPAWN, workers=hosted,
                             pid=replacement.process.pid)
        replayed: Dict[Tuple[int, str], int] = {}
        for item, worker_id, tuples in lost:
            key = (worker_id, item.job_id)
            count = replayed[key] = replayed.get(key, 0) + 1
            self.metrics.record_transport(shard_retries=1)
            if self.tracer.enabled:
                self.tracer.emit(
                    trace_events.BACKEND_SHARD_RETRY, item.dispatch_clock,
                    job_id=item.job_id, tenant_id=item.tenant_id,
                    worker=worker_id,
                    generation=self._generations[worker_id], tuples=tuples,
                    recorded=count > self._recorded.get(key, 0))
        try:
            replacement.conn.send(("cursor", {
                key: count for key, count in self._recorded.items()
                if key[0] % self._slots == index}))
            for window in replacement.retained:
                if not replacement.fits(window.item.batch,
                                        self.slab_bytes // 8) \
                        and not self._ship(replacement, replacement.take()):
                    break
                replacement.staged.append(window)
            else:
                if self._ship(replacement, replacement.take()):
                    return
        except _PIPE_ERRORS:
            pass
        self._give_up(index)

    def _give_up(self, index: int) -> None:
        """A host died again (or its replay found the arena full past
        the timeout) during recovery: fail its live jobs."""
        host = self._hosts[index]
        doomed = {window.item.job_id
                  for window in host.retained} | host.jobs
        for job_id in sorted(doomed):
            self._errors.setdefault(job_id, []).append(
                f"RuntimeError: worker process {index} died and its "
                "replacement failed during shard replay; partial "
                "results for this job were lost")
        self._terminate(host)
        host.take()
        host.retained = []
        host.jobs.clear()
        self._arena.release_worker(index)
        for key in [key for key in self._recorded
                    if key[0] % self._slots == index]:
            del self._recorded[key]

    def _release_job(self, job_id: str) -> None:
        """Drop one job's replay ledger on every host (at collect)."""
        for host in self._hosts.values():
            host.retained = [window for window in host.retained
                             if window.item.job_id != job_id]
        for key in [key for key in self._recorded if key[1] == job_id]:
            del self._recorded[key]
        self._reported = {key for key in self._reported if key[0] != job_id}
