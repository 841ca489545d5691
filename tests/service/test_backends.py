"""Backend equivalence: inline workers vs warm worker subprocesses.

The execution-backend port's core promise is that the backend choice is
invisible in the results: given the same submit sequence, the inline
(dispatcher-thread) and process (pre-forked subprocess) adapters produce
bit-identical :class:`~repro.service.jobs.JobResult`s and identical
deterministic metrics snapshots — across every served app kernel and
through mid-job fleet resizes.

Snapshots are compared with the ``transport`` section stripped: it is
the one deliberately backend-variant section (process shards count the
bytes they share through the slab arena, inline moves no bytes at all);
everything else must match exactly.
"""

import dataclasses
import pickle
import threading

import numpy as np
import pytest

from repro.service import SERVED_APPS, StreamService
from repro.service.executor import make_backend, validate_backend
from repro.service.pool import WorkItem
from repro.workloads.streams import chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator

BACKENDS = ("inline", "process")


def zipf_batch(tuples=6_000, alpha=1.5, seed=5):
    return ZipfGenerator(alpha=alpha, seed=seed).generate(tuples)


def pagerank_batch(vertices=256, tuples=4_000, seed=4):
    rng = np.random.default_rng(seed)
    return TupleBatch(
        keys=rng.integers(0, vertices, tuples).astype(np.uint64),
        values=rng.integers(0, vertices, tuples, dtype=np.int64),
    )


def app_workload(app):
    """(batch, params) serving one app its kind of stream."""
    if app == "pagerank":
        return pagerank_batch(), {"num_vertices": 256}
    return zipf_batch(), {}


def result_bits(job_result):
    """Canonical byte representation of a JobResult for comparison."""
    return pickle.dumps(dataclasses.astuple(job_result))


def comparable(snapshot):
    """A metrics snapshot minus its transport-variant counter section."""
    stripped = dict(snapshot)
    stripped.pop("transport", None)
    return stripped


def serve_one(backend, app, *, workers=4, stream=None, **service_kw):
    """Run one job on a fresh service; return (JobResult, metrics)."""
    batch, params = app_workload(app)
    service = StreamService(workers=workers, balancer="skew",
                            backend=backend, **service_kw)
    try:
        source = stream(service, batch) if stream is not None \
            else chunk_stream(batch, 2_000)
        job_id = service.submit(app, source, window_seconds=2e-6,
                                params=params, job_id=f"eq-{app}")
        service.run()
        result = service.result(job_id)
        snapshot = service.metrics.snapshot()
    finally:
        service.shutdown()
    return result, snapshot


class TestBackendEquivalence:
    @pytest.mark.parametrize("app", SERVED_APPS)
    def test_job_results_bit_identical_across_backends(self, app):
        inline, inline_metrics = serve_one("inline", app)
        process, process_metrics = serve_one("process", app)
        assert result_bits(inline) == result_bits(process)
        assert comparable(inline_metrics) == comparable(process_metrics)
        assert (process.segments, process.tuples, process.cycles) \
            == (inline.segments, inline.tuples, inline.cycles)
        # Every process shard crossed through the arena, none as bytes.
        assert process_metrics["transport"]["shard_bytes_shared"] > 0

    def test_per_tenant_metrics_identical(self):
        def run(backend):
            batch = zipf_batch()
            service = StreamService(workers=2, balancer="skew",
                                    backend=backend)
            try:
                for tenant in ("alice", "bob"):
                    from repro.service import TenantSpec
                    service.register_tenant(TenantSpec(tenant))
                    service.submit("histo", chunk_stream(batch, 2_000),
                                   window_seconds=2e-6,
                                   job_id=f"{tenant}-job",
                                   tenant_id=tenant)
                service.run()
                snapshot = service.metrics.snapshot()
            finally:
                service.shutdown()
            return snapshot

        assert comparable(run("inline")) == comparable(run("process"))


class TestInlineRunsOnTheDispatcherThread:
    def test_inline_service_never_starts_a_thread(self):
        before = threading.active_count()
        while_running = []

        def sampling_stream(service, batch):
            # Pulled by the dispatcher between windows, pool started.
            for events in chunk_stream(batch, 2_000):
                while_running.append(threading.active_count())
                yield events

        serve_one("inline", "histo", stream=sampling_stream)
        assert len(while_running) > 1
        assert set(while_running) == {before}
        assert threading.active_count() == before


def resizing_stream(resize_to, at_chunk, chunk=1_500):
    """A source that resizes the fleet mid-job, from the dispatcher.

    The generator body runs on the dispatcher thread (the service pulls
    sources between windows), so it may drive the backend lifecycle the
    same way the autoscaler does: drain, then reconfigure-before-resize
    on shrink / resize-before-reconfigure on grow.
    """

    def stream(service, batch):
        for index, events in enumerate(chunk_stream(batch, chunk)):
            if index == at_chunk:
                service._pool.drain()
                if resize_to < service.balancer.workers:
                    service.balancer.reconfigure(resize_to)
                    service._pool.resize(resize_to)
                else:
                    service._pool.resize(resize_to)
                    service.balancer.reconfigure(resize_to)
            yield events

    return stream


class TestMidJobResize:
    @pytest.mark.parametrize("app", ("histo", "dp"))
    def test_grow_mid_job_identical(self, app):
        stream = resizing_stream(resize_to=4, at_chunk=2)
        inline, im = serve_one("inline", app, workers=2, stream=stream)
        process, pm = serve_one("process", app, workers=2, stream=stream)
        assert result_bits(inline) == result_bits(process)
        assert comparable(im) == comparable(pm)

    @pytest.mark.parametrize("app", ("histo", "hll"))
    def test_shrink_mid_job_identical(self, app):
        # Removed workers' partials survive as retained sessions
        # (inline) / handoff orphans (process); both must merge in the
        # same order.
        stream = resizing_stream(resize_to=2, at_chunk=2)
        inline, im = serve_one("inline", app, workers=4, stream=stream)
        process, pm = serve_one("process", app, workers=4, stream=stream)
        assert result_bits(inline) == result_bits(process)
        assert comparable(im) == comparable(pm)


class TestProcessBackendLifecycle:
    def test_worker_errors_propagate_from_children(self):
        # Keys >= num_vertices blow up inside the worker subprocess;
        # the failure must surface as a failed job with the same error
        # set the inline backend reports.
        def run(backend):
            batch = zipf_batch(tuples=2_000)
            service = StreamService(workers=2, balancer="skew",
                                    backend=backend)
            try:
                service.submit("pagerank", chunk_stream(batch, 1_000),
                               window_seconds=2e-6, job_id="bad",
                               params={"num_vertices": 64})
                service.run()
                status = service.poll("bad")
            finally:
                service.shutdown()
            return status

        inline = run("inline")
        process = run("process")
        assert inline["status"] == process["status"] == "failed"
        # Inline records an error inside dispatch, the process backend
        # when a child's ledger returns at a drain, so compare the
        # error sets, not their order.
        assert sorted(inline["error"].split("; ")) \
            == sorted(process["error"].split("; "))

    def test_service_restart_with_process_backend(self):
        batch = zipf_batch(tuples=3_000)
        service = StreamService(workers=2, balancer="skew",
                                backend="process")
        try:
            service.submit("histo", chunk_stream(batch, 1_500),
                           window_seconds=2e-6, job_id="first")
            service.run()
            first = service.result("first")
            service.shutdown()  # children handed off and stopped
            service.submit("histo", chunk_stream(batch, 1_500),
                           window_seconds=2e-6, job_id="second")
            service.run()  # fresh warm fleet under a new generation
            second = service.result("second")
            assert np.array_equal(first.result, second.result)
        finally:
            service.shutdown()

    def test_make_backend_validates(self):
        with pytest.raises(ValueError, match="unknown backend"):
            validate_backend("threads")
        with pytest.raises(ValueError, match="unknown backend"):
            StreamService(workers=2, backend="remote")

    @pytest.mark.parametrize("transport", ("pipe", "SHM", "inline"))
    def test_service_accepts_only_the_shm_transport(self, transport):
        # The keyword survives for callers that pass "shm"; every other
        # value, the deleted "pipe" included, is refused up front.
        for backend in BACKENDS:
            with pytest.raises(ValueError, match="unknown transport"):
                StreamService(workers=2, backend=backend,
                              transport=transport)

    def test_empty_job_collects_none_on_both_backends(self):
        from repro.service.executor import SessionSpec
        from repro.service.metrics import ServiceMetrics
        from repro.core.config import ArchitectureConfig

        config = ArchitectureConfig(lanes=8, pripes=16, secpes=0,
                                    reschedule_threshold=0.0)

        def spec_factory(job_id):
            return SessionSpec(app="histo", config=config)

        for backend in BACKENDS:
            pool = make_backend(backend, 2, spec_factory, ServiceMetrics())
            pool.start()
            try:
                empty = TupleBatch(np.array([], dtype=np.uint64),
                                   np.array([], dtype=np.int64))
                pool.dispatch(0, WorkItem("job", empty))
                pool.drain()
                assert pool.collect("job") is None, backend
            finally:
                pool.stop()
