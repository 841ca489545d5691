"""WFQ with one tenant *is* strict order.

There is one scheduler, the weighted-fair queue, and no mode that turns
tenant isolation off: the "no tenant isolation" baseline of the
fairness benchmark and demo is the same traffic submitted under one
tenant id.  These properties are what makes that baseline mean
something: for any job list — whatever tenants it was drawn for —
relabelling every job to one tenant makes the queue pop in one global
``sorted(Job.sort_key())`` order (tenant ids play no part), and makes
``StreamService.run()`` keep at most one job in flight.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import StreamService
from repro.service.jobs import Job, JobStatus
from repro.service.queue import JobQueue
from repro.workloads.streams import chunk_stream
from repro.workloads.zipf import ZipfGenerator

#: The one tenant every generated job is relabelled to.
ONE_TENANT = "everyone"

#: ``(priority, deadline, tenant)`` — few distinct values, so ties at
#: every level of the sort key (and the FIFO tiebreak) are common.
job_specs = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([None, 0.5, 1.0, 2.0]),
    st.sampled_from(["batch", "interactive", "default"]),
)

queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), job_specs),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.none()),
    ),
    max_size=80,
)


class StrictOrderModel:
    """The reference scheduler: one global ``sort_key`` order, plus the
    age-promotion horizon (a job that has watched ``promote_after`` pops
    go by is served next, oldest first)."""

    def __init__(self, promote_after):
        self.promote_after = promote_after
        self.live = []   # (job, pops when it was enqueued), FIFO order
        self.pops = 0

    def submit(self, job):
        self.live.append((job, self.pops))

    def cancel(self, job):
        self.live = [entry for entry in self.live if entry[0] is not job]

    def pop(self):
        if not self.live:
            return None
        entry = min(self.live, key=lambda item: item[0].sort_key())
        if self.promote_after is not None \
                and self.live[0][1] <= self.pops - self.promote_after:
            entry = self.live[0]
        self.live.remove(entry)
        self.pops += 1
        return entry[0]


@given(ops=queue_ops,
       promote_after=st.sampled_from([None, 1, 2, 5, 64]))
def test_one_tenant_queue_pops_in_sort_key_order(ops, promote_after):
    """Submits, cancels and pops interleaved: every pop returns the job
    the strict-order model names, and the drain at the end is the sorted
    remainder."""
    queue = JobQueue(promote_after=promote_after)
    model = StrictOrderModel(promote_after)
    submitted = []
    for op, arg in ops:
        if op == "submit":
            priority, deadline, _drawn_tenant = arg
            job = Job(app="histo", source=[], priority=priority,
                      deadline=deadline, tenant_id=ONE_TENANT)
            submitted.append(job)
            queue.submit(job)
            model.submit(job)
        elif op == "cancel" and submitted:
            job = submitted[arg % len(submitted)]
            was_pending = job.status is JobStatus.PENDING
            assert queue.cancel(job.job_id) is was_pending
            model.cancel(job)
        elif op == "pop":
            job = queue.pop()
            assert job is model.pop()
            if job is not None:
                job.status = JobStatus.RUNNING  # as the dispatcher does
        assert queue.depth() == len(model.live)
    remainder = [job for job, _ in model.live]
    drained = [queue.pop() for _ in remainder]
    if promote_after is None:
        assert drained == sorted(remainder, key=Job.sort_key)
    else:
        assert drained == [model.pop() for _ in remainder]
    assert queue.pop() is None


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(job_specs, min_size=1, max_size=8),
       cancels=st.sets(st.integers(min_value=0, max_value=7)))
def test_one_tenant_service_runs_one_job_at_a_time_in_order(specs, cancels):
    """The dispatcher side of the same claim: under one tenant id (the
    default in-flight cap of 1) ``run()`` serves the queue's strict
    order with exactly one job RUNNING at every source pull."""
    service = StreamService(workers=2)
    job_ids = []
    served = []
    running_at_pull = []

    def watched_source(index):
        for events in chunk_stream(
                ZipfGenerator(alpha=1.2, seed=index).generate(96), 48):
            if not served or served[-1] != index:
                served.append(index)
            running_at_pull.append(sum(
                service.poll(job_id)["status"] == "running"
                for job_id in job_ids))
            yield events

    for index, (priority, deadline, _drawn_tenant) in enumerate(specs):
        job_ids.append(service.submit(
            "histo", watched_source(index), priority=priority,
            deadline=deadline, window_seconds=2e-6,
            tenant_id=ONE_TENANT))
    cancelled = {index for index in cancels if index < len(specs)}
    for index in cancelled:
        assert service.cancel(job_ids[index])
    finished = service.run()
    service.shutdown()

    live = [index for index in range(len(specs))
            if index not in cancelled]
    # Jobs were submitted in index order, so index is the FIFO tiebreak.
    expected = sorted(live, key=lambda index: (
        -specs[index][0],
        float("inf") if specs[index][1] is None else specs[index][1],
        index))
    assert finished == len(live)
    assert served == expected
    assert set(running_at_pull) <= {1}
