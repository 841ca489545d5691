"""Generated interleavings of submit / cancel / step / purge.

The inline stack runs on the calling thread and the serving loop can be
stepped (:meth:`StreamService.step`), so hypothesis can drive the whole
in-process service as a state machine: any interleaving of the client
verbs with single dispatcher steps, over two or three weighted tenants
with in-flight caps.  After every rule each accepted job is in exactly
one lifecycle state that only moves forward, and the metrics' job
counts balance; at teardown every job is stepped to a terminal state
and tuples are conserved, every completed job's result is the kernel's
golden result of its input, and the same rule sequence on a fresh
service emits the same trace as a sequence (ROADMAP item 7, first
slice).
"""

import functools

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.obs.collector import TraceCollector
from repro.service import StreamService, TenantSpec, kernel_for
from repro.workloads.streams import chunk_stream
from repro.workloads.zipf import ZipfGenerator

WINDOW = 2e-6
HHD_PARAMS = {"threshold": 4}
TERMINAL = {"completed", "failed", "cancelled"}
#: The moves a job's status may make between two looks (one step can
#: admit a short job and finish it); a terminal status is sticky.
MOVES = {
    "pending": {"pending", "running"} | TERMINAL,
    "running": {"running", "completed", "failed"},
}
CHUNK = 500

tenant_specs = st.lists(
    st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.0]),   # weight
              st.integers(min_value=1, max_value=3)),  # max_in_flight
    min_size=2, max_size=3)

#: ``(app, tenant index, zipf alpha, seed, tuples)`` — at most three
#: chunks of at most ``CHUNK`` tuples.
job_specs = st.tuples(
    st.sampled_from(["histo", "hhd"]),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([0.0, 1.2, 2.0]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=3 * CHUNK),
)


@functools.lru_cache(maxsize=None)
def zipf_stream(alpha, seed):
    return ZipfGenerator(alpha=alpha, seed=seed).generate(3 * CHUNK)


def job_input(spec):
    _, _, alpha, seed, tuples = spec
    return zipf_stream(alpha, seed).slice(0, tuples)


class World:
    """One service plus what the test has seen of its jobs.  Every
    method is deterministic in its arguments, so a logged call sequence
    replays on a fresh instance."""

    def __init__(self, workers, tenants):
        self.tracer = TraceCollector(enabled=True)
        self.service = StreamService(workers=workers, tracer=self.tracer)
        self.tenants = [f"t{index}" for index in range(len(tenants))]
        for tenant_id, (weight, cap) in zip(self.tenants, tenants):
            self.service.register_tenant(TenantSpec(
                tenant_id, weight=weight, max_in_flight=cap))
        self.service.dispatcher.start()
        self.specs = {}    # job_id -> spec, every accepted job
        self.status = {}   # job_id -> status at the last look
        self.gone = set()  # job ids the registry no longer knows
        self.purged = 0
        self.in_flight = 0

    def submit(self, spec):
        app, tenant = spec[:2]
        job_id = f"j{len(self.specs)}"
        self.service.submit(
            app, chunk_stream(job_input(spec), CHUNK),
            window_seconds=WINDOW, job_id=job_id,
            tenant_id=self.tenants[tenant % len(self.tenants)],
            params=HHD_PARAMS if app == "hhd" else None)
        self.specs[job_id] = spec
        self.status[job_id] = "pending"

    def cancel(self, index):
        """Cancel the ``index``-th accepted job (modulo how many there
        are); returns (was queued at the last look, cancel's answer)."""
        if not self.specs:
            return False, False
        job_id = f"j{index % len(self.specs)}"
        return (self.status[job_id] == "pending",
                self.service.cancel(job_id))

    def step(self):
        self.in_flight = self.service.step().in_flight

    def purge(self, keep, older_than):
        """Returns (terminal jobs the registry held, how many it
        dropped)."""
        held = sum(status in TERMINAL and job_id not in self.gone
                   for job_id, status in self.status.items())
        dropped = self.service.purge(older_than=older_than, keep=keep)
        self.purged += dropped
        return held, dropped

    def drain(self):
        for _ in range(20 * len(self.specs) + 5):
            self.step()
            if not self.in_flight and not len(self.service.dispatcher.queue):
                return
        raise AssertionError("jobs still live after a bounded drain")

    def look(self):
        """Poll every job and check the lifecycle and the counters."""
        for job_id, before in self.status.items():
            try:
                now = self.service.poll(job_id)["status"]
            except KeyError:
                assert before in TERMINAL, (job_id, before)
                self.gone.add(job_id)
                continue
            assert job_id not in self.gone
            assert now in MOVES.get(before, {before}), (job_id, before, now)
            if now == "completed" and before != now:
                self.check_result(job_id)
            self.status[job_id] = now
        assert len(self.gone) == self.purged
        held = list(self.status.values())
        assert held.count("pending") == len(self.service.dispatcher.queue)
        assert held.count("running") == self.in_flight
        jobs = self.service.metrics.snapshot()["jobs"]
        for state in TERMINAL:
            assert jobs[state] == held.count(state), state
        assert jobs["submitted"] == (
            jobs["completed"] + jobs["failed"] + jobs["cancelled"]
            + held.count("pending") + held.count("running"))

    def check_result(self, job_id):
        spec = self.specs[job_id]
        batch = job_input(spec)
        outcome = self.service.result(job_id)
        golden = kernel_for(
            spec[0], 16, HHD_PARAMS if spec[0] == "hhd" else None,
        ).golden(batch.keys, batch.values)
        if spec[0] == "hhd":
            assert outcome.result == golden
        else:
            assert np.array_equal(outcome.result, golden)
        assert outcome.tuples == len(batch)

    def trace(self):
        return [(e.kind, e.clock, e.job_id, e.tenant_id, e.worker, e.data)
                for e in self.tracer.events()]


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.world = None
        self.calls = []

    def call(self, name, *args):
        self.calls.append((name, args))
        return getattr(self.world, name)(*args)

    @initialize(workers=st.integers(min_value=1, max_value=3),
                tenants=tenant_specs)
    def build(self, workers, tenants):
        self.shape = (workers, tenants)
        self.world = World(*self.shape)

    @rule(spec=job_specs)
    def submit(self, spec):
        self.call("submit", spec)

    @rule(index=st.integers(min_value=0, max_value=63))
    def cancel(self, index):
        was_queued, cancelled = self.call("cancel", index)
        assert cancelled == was_queued

    @rule()
    def step(self):
        self.call("step")

    @rule(keep=st.integers(min_value=0, max_value=3),
          older_than=st.sampled_from([None, 0, 400, 2_000]))
    def purge(self, keep, older_than):
        held, dropped = self.call("purge", keep, older_than)
        if older_than is None:  # no TTL: everything but the newest
            assert dropped == max(0, held - keep)
        else:
            assert dropped <= max(0, held - keep)

    @invariant()
    def jobs_move_forward_and_counts_balance(self):
        if self.world is not None:
            self.world.look()

    def teardown(self):
        if self.world is None:
            return
        world = self.world
        world.drain()
        world.look()
        held = world.status
        assert set(held.values()) <= TERMINAL
        snap = world.service.metrics.snapshot()
        assert snap["tuples_windowed"] + snap["late_tuples"] == sum(
            world.specs[job_id][4] for job_id, status in held.items()
            if status == "completed")
        replay = World(*self.shape)
        for name, args in self.calls:
            getattr(replay, name)(*args)
        replay.drain()
        assert replay.trace() == world.trace()
        assert replay.service.metrics.snapshot() == snap
        world.service.shutdown()
        replay.service.shutdown()


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
