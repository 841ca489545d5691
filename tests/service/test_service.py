"""End-to-end service tests: submit/poll/result across the worker fleet."""

import numpy as np
import pytest

from repro.apps.hyperloglog import hll_estimate_from_registers
from repro.service import StreamService
from repro.service.jobs import kernel_for
from repro.workloads.streams import (
    TimestampedBatch,
    chunk_stream,
    timestamp_batch,
)
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator
from tests.oracle import record_windows, replay

WINDOW = 2e-6


def zipf_batch(alpha=1.5, tuples=6_000, seed=5):
    return ZipfGenerator(alpha=alpha, seed=seed).generate(tuples)


@pytest.fixture
def service():
    svc = StreamService(workers=4, balancer="skew")
    yield svc
    svc.shutdown()


class TestSingleJob:
    def test_histogram_job_matches_golden(self, service):
        batch = zipf_batch()
        job_id = service.submit("histo", chunk_stream(batch, 2_000),
                                window_seconds=WINDOW)
        assert service.run() == 1
        result = service.result(job_id)
        golden = kernel_for("histo", 16).golden(batch.keys, batch.values)
        assert np.array_equal(result.result, golden)
        assert result.tuples == len(batch)
        assert result.segments > 0
        assert result.late_tuples == 0

    def test_tuples_of_a_closed_window_are_late_at_once(self, service):
        # Window 0 closes when the first chunk's watermark passes its
        # end, so the second chunk's window-0 tuple is dropped as late,
        # though it trails the watermark by less than a window.
        batch = zipf_batch(tuples=6, seed=3)
        times = np.array([0.1, 0.5, 1.2, 0.9, 1.4, 2.5]) * WINDOW
        chunks = [TimestampedBatch(times[:3], batch.slice(0, 3)),
                  TimestampedBatch(times[3:], batch.slice(3, 6))]
        job_id = service.submit("histo", iter(chunks),
                                window_seconds=WINDOW)
        service.run()
        result = service.result(job_id)
        assert result.late_tuples == 1
        assert result.tuples == 5
        kept = np.array([0, 1, 2, 4, 5])
        golden = kernel_for("histo", 16).golden(batch.keys[kept],
                                                batch.values[kept])
        assert np.array_equal(result.result, golden)

    def test_hll_job_matches_golden(self, service):
        batch = zipf_batch(alpha=0.0, seed=8)
        job_id = service.submit("hll", chunk_stream(batch, 3_000),
                                window_seconds=WINDOW)
        service.run()
        registers = service.result(job_id).result
        golden = kernel_for("hll", 16).golden(batch.keys, batch.values)
        assert np.array_equal(registers, golden)
        estimate = hll_estimate_from_registers(registers)
        true_cardinality = len(np.unique(batch.keys))
        assert estimate == pytest.approx(true_cardinality, rel=0.1)

    def test_partition_job_matches_golden(self, service):
        batch = zipf_batch(alpha=1.0, tuples=4_000, seed=2)
        job_id = service.submit("dp", chunk_stream(batch, 2_000),
                                window_seconds=WINDOW)
        service.run()
        result = service.result(job_id).result
        golden = kernel_for("dp", 16).golden(batch.keys, batch.values)
        assert set(result) == set(golden)
        for part in golden:
            assert sorted(result[part]) == sorted(golden[part])

    def test_pagerank_job_accumulates_rank_mass(self, service):
        vertices = 256
        rng = np.random.default_rng(4)
        batch = TupleBatch(
            keys=rng.integers(0, vertices, 4_000).astype(np.uint64),
            values=rng.integers(0, vertices, 4_000, dtype=np.int64),
        )
        params = {"num_vertices": vertices}
        job_id = service.submit("pagerank", chunk_stream(batch, 2_000),
                                window_seconds=WINDOW, params=params)
        service.run()
        result = service.result(job_id).result
        golden = kernel_for("pagerank", 16, params).golden(
            batch.keys, batch.values)
        assert np.array_equal(result, golden)


class TestHeavyHitterIntegrity:
    def test_true_hitter_survives_team_splitting(self):
        """A key just above threshold must not be diluted below it by
        the balancer spreading its tuples across a worker team."""
        rng = np.random.default_rng(3)
        keys = np.concatenate([
            np.full(300, 7, dtype=np.uint64),  # true hitter (>256)
            rng.integers(1 << 16, 1 << 32, 4_000, dtype=np.uint64),
        ])
        rng.shuffle(keys)
        batch = TupleBatch.from_keys(keys)
        # workers=2 -> 1 primary + 1 secondary: every key's shard has a
        # two-worker team, the worst case for estimate dilution.
        svc = StreamService(workers=2, balancer="skew")
        job_id = svc.submit("hhd", chunk_stream(batch, 5_000),
                            window_seconds=1e-2,
                            params={"threshold": 256})
        svc.run()
        hitters = svc.result(job_id).result
        svc.shutdown()
        assert 7 in hitters
        assert hitters[7] >= 300


class TestServiceRestart:
    def test_service_usable_again_after_shutdown(self):
        svc = StreamService(workers=2, balancer="skew")
        first = svc.submit("histo", chunk_stream(zipf_batch(), 3_000),
                           window_seconds=WINDOW)
        svc.run()
        svc.shutdown()
        second = svc.submit("histo", chunk_stream(zipf_batch(), 3_000),
                            window_seconds=WINDOW)
        svc.run()
        svc.shutdown()
        assert svc.poll(first)["status"] == "completed"
        assert svc.poll(second)["status"] == "completed"

    def test_single_worker_fleet(self):
        svc = StreamService(workers=1, balancer="skew")
        batch = zipf_batch(tuples=3_000)
        job_id = svc.submit("histo", chunk_stream(batch, 1_500),
                            window_seconds=WINDOW)
        svc.run()
        golden = kernel_for("histo", 16).golden(batch.keys, batch.values)
        assert np.array_equal(svc.result(job_id).result, golden)
        svc.shutdown()


class TestMultiTenancy:
    def test_priority_orders_service(self, service):
        low = service.submit("histo", chunk_stream(zipf_batch(), 3_000),
                             window_seconds=WINDOW, priority=0)
        high = service.submit("hll", chunk_stream(zipf_batch(seed=6),
                                                  3_000),
                              window_seconds=WINDOW, priority=9)
        # Serve exactly one job: it must be the high-priority one.
        assert service.run(max_jobs=1) == 1
        assert service.poll(high)["status"] == "completed"
        assert service.poll(low)["status"] == "pending"
        service.run()
        assert service.poll(low)["status"] == "completed"

    def test_cancelled_job_never_runs(self, service):
        job_id = service.submit("histo",
                                chunk_stream(zipf_batch(), 2_000),
                                window_seconds=WINDOW)
        assert service.cancel(job_id)
        assert service.run() == 0
        assert service.poll(job_id)["status"] == "cancelled"
        with pytest.raises(RuntimeError, match="cancelled"):
            service.result(job_id)

    def test_every_worker_participates(self, service):
        service.submit("histo", chunk_stream(zipf_batch(alpha=0.0),
                                             2_000),
                       window_seconds=WINDOW)
        service.run()
        assert set(service.metrics.snapshot()["workers"]) == {0, 1, 2, 3}
        assert service.metrics.fleet_throughput() > 0


class TestFailurePaths:
    def test_bad_app_rejected_at_submit(self, service):
        with pytest.raises(ValueError, match="unknown application"):
            service.submit("sorting", [])

    def test_bad_params_rejected_at_submit(self, service):
        with pytest.raises(ValueError, match="num_vertices"):
            service.submit("pagerank", [])

    def test_broken_source_fails_job(self, service):
        def exploding():
            yield timestamp_batch(zipf_batch(tuples=1_000))
            raise IOError("feed disconnected")

        job_id = service.submit("histo", exploding(),
                                window_seconds=WINDOW)
        service.run()
        status = service.poll(job_id)
        assert status["status"] == "failed"
        assert "feed disconnected" in status["error"]
        with pytest.raises(RuntimeError, match="failed"):
            service.result(job_id)

    def test_non_finite_event_time_fails_the_job_not_the_service(
            self, service):
        batch = zipf_batch(tuples=4_000)
        chunks = list(chunk_stream(batch, 1_000))
        chunks[2].timestamps[-1] = np.inf
        job_id = service.submit("histo", iter(chunks),
                                window_seconds=WINDOW)
        service.run()
        status = service.poll(job_id)
        assert status["status"] == "failed"
        assert status["error"] \
            == "source error: event times must be finite"
        # The next job on the same service is served as if nothing
        # happened.
        retry = service.submit("histo", chunk_stream(batch, 1_000),
                               window_seconds=WINDOW)
        service.run()
        golden = kernel_for("histo", 16).golden(batch.keys, batch.values)
        assert np.array_equal(service.result(retry).result, golden)

    def test_out_of_range_vertex_fails_its_job_not_its_neighbour(
            self, service):
        """The all-ones key sentinel used to wrap into index -1 on the
        fast path and credit the last real vertex: the job completed
        with a wrong result where the PE body raises."""
        params = {"num_vertices": 64}
        bad = TupleBatch(np.array([2**64 - 1, 3], dtype=np.uint64),
                         np.zeros(2, dtype=np.int64))
        rng = np.random.default_rng(6)
        good = TupleBatch(rng.integers(0, 64, 500).astype(np.uint64),
                          rng.integers(0, 64, 500, dtype=np.int64))
        bad_id = service.submit("pagerank", chunk_stream(bad, 2),
                                window_seconds=WINDOW, params=params)
        good_id = service.submit("pagerank", chunk_stream(good, 250),
                                 window_seconds=WINDOW, params=params)
        service.run()
        status = service.poll(bad_id)
        assert status["status"] == "failed"
        assert "index 1152921504606846975 is out of bounds" \
            in status["error"]
        golden = kernel_for("pagerank", 16, params).golden(good.keys,
                                                           good.values)
        assert np.array_equal(service.result(good_id).result, golden)

    def test_unknown_job_id(self, service):
        with pytest.raises(KeyError):
            service.poll("job-does-not-exist")


class TestResubmittedJobId:
    def test_resubmitted_id_does_not_inherit_old_errors(self):
        """A failed run's worker errors must not leak into a later job
        reusing the same client-chosen id."""
        vertices = 16
        params = {"num_vertices": vertices}
        svc = StreamService(workers=1, balancer="skew")
        # Keys beyond the vertex range blow up inside the worker (not
        # at admission, where only the params are validated).
        bad = TupleBatch(
            keys=np.full(200, 1_000, dtype=np.uint64),
            values=np.zeros(200, dtype=np.int64),
        )
        svc.submit("pagerank", chunk_stream(bad, 100),
                   window_seconds=WINDOW, params=params, job_id="retry")
        svc.run()
        assert svc.poll("retry")["status"] == "failed"

        rng = np.random.default_rng(9)
        good = TupleBatch(
            keys=rng.integers(0, vertices, 500).astype(np.uint64),
            values=rng.integers(0, vertices, 500, dtype=np.int64),
        )
        svc.submit("pagerank", chunk_stream(good, 250),
                   window_seconds=WINDOW, params=params, job_id="retry")
        svc.run()
        svc.shutdown()
        assert svc.poll("retry")["status"] == "completed"
        golden = kernel_for("pagerank", 16, params).golden(good.keys,
                                                           good.values)
        assert np.array_equal(svc.result("retry").result, golden)


class TestEngineSwitch:
    def test_engines_agree_on_results(self, monkeypatch):
        batch = zipf_batch(alpha=1.8, tuples=4_000, seed=21)
        results = {}
        windows = record_windows(monkeypatch)
        svc = StreamService(workers=4, balancer="skew")
        job_id = svc.submit("histo", chunk_stream(batch, 2_000),
                            window_seconds=WINDOW)
        svc.run()
        results["fast"] = svc.result(job_id).result
        results["cycle"] = replay(windows, "histo", svc.config).result
        svc.shutdown()
        assert np.array_equal(results["fast"], results["cycle"])

    @pytest.mark.parametrize("knob", [{"engine": "cycle"},
                                      {"max_cycles_per_segment": 10}])
    def test_engine_is_not_a_service_option(self, knob):
        with pytest.raises(TypeError, match="unexpected keyword"):
            StreamService(workers=2, **knob)


class TestRoundRobinService:
    def test_round_robin_also_correct_just_slower(self):
        """Both balancers produce identical results; only cycles differ."""
        batch = zipf_batch(alpha=2.0, seed=13)
        results = {}
        for balancer in ("roundrobin", "skew"):
            svc = StreamService(workers=4, balancer=balancer)
            job_id = svc.submit("histo", chunk_stream(batch, 2_000),
                                window_seconds=WINDOW)
            svc.run()
            results[balancer] = (svc.result(job_id).result,
                                 svc.metrics.makespan_cycles())
            svc.shutdown()
        assert np.array_equal(results["roundrobin"][0],
                              results["skew"][0])
        assert results["skew"][1] < results["roundrobin"][1]
