"""The process backend's shared-memory shard transport, end to end.

Five promises under test (inline ≡ process equivalence across the app
matrix lives in ``test_backends.py``):

1. **Exhaustion waits** — a shard the arena cannot place waits for the
   owners' consumed-sequence handshake: a service inside a tiny arena
   still matches inline bit for bit, a holder that dies mid-wait is
   revived and replayed, and a wait past ``join_timeout`` fails only
   that shard's job, through the error ledger.  (The arena alone is
   driven by generated schedules in
   ``tests/property/test_slab_arena.py``.)
2. **Hygiene** — no ``/dev/shm`` segment survives ``stop()``, a worker
   crash, a timed-out wait, or a service restart.
3. **Lost-shard retry** — a worker crash mid-job replays the crashed
   worker's retained shards to its replacement instead of failing the
   job: same result bits, same metrics, ``backend.shard.retry`` events
   in the trace.
4. **Dtypes** — the shard descriptor carries the arrays' dtypes, so
   non-default key/value dtypes round-trip instead of being misdecoded
   as uint64/int64.
5. **Hosting** — K logical workers live on one warm child per spare
   CPU (``w % spare``), and a child's staged windows share one arena
   block and one ``"window"`` message until the block would outgrow
   ``slab_bytes // 8``.
6. **Window hand-over** — the dispatcher hands over whole windows with
   their routes and the child splits them: no split in the parent, the
   inline run's ``job.window`` shard lists, and a crash after a
   multi-window block still folds every record exactly once.
"""

import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading

import numpy as np
import pytest

from repro.core.config import ArchitectureConfig
from repro.obs import TraceCollector
from repro.obs import events as trace_events
from repro.service import (
    SERVED_APPS,
    ProcessBackend,
    SkewAwareBalancer,
    ServiceMetrics,
    SessionSpec,
    SlabArena,
    SlabClient,
    StreamService,
)
from repro.service import procpool
from repro.service.jobs import kernel_for
from repro.service.pool import WorkItem
from repro.service.shm import CTRL_SLOTS, DEFAULT_SLAB_BYTES, block_size
from repro.workloads.streams import NetworkModel, chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator


def shm_segments():
    """Names currently present in /dev/shm (empty set off-POSIX)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover — non-Linux hosts
        return set()


def app_workload(app, tuples=6_000, seed=5):
    if app == "pagerank":
        rng = np.random.default_rng(seed)
        batch = TupleBatch(
            keys=rng.integers(0, 256, tuples).astype(np.uint64),
            values=rng.integers(0, 256, tuples, dtype=np.int64),
        )
        return batch, {"num_vertices": 256}
    return ZipfGenerator(alpha=1.5, seed=seed).generate(tuples), {}


def fake_spare_cores(monkeypatch, count):
    """Make the backend see ``count`` spare CPUs (the hosting map's
    input), whatever the host has."""
    monkeypatch.setattr(procpool, "_spare_cores", lambda: count)


def host_of(backend, worker_id):
    """The warm child hosting one logical worker."""
    return backend._hosts[worker_id % backend._slots]


def result_bits(job_result):
    return pickle.dumps(dataclasses.astuple(job_result))


def comparable(snapshot):
    """Snapshot minus the (deliberately backend-variant) counters."""
    stripped = dict(snapshot)
    stripped.pop("transport", None)
    return stripped


def serve_one(app, *, backend="process", stream=None, tracer=None,
              workers=4, slab_bytes=None, tuples=6_000):
    """One job on a fresh service; (result, snapshot, events).

    ``slab_bytes`` shrinks the process backend's arena to one slab of
    that size, so shards have to wait for blocks to be consumed.
    """
    batch, params = app_workload(app, tuples=tuples)
    if tracer is None:
        tracer = TraceCollector(enabled=False)
    service = StreamService(workers=workers, balancer="skew",
                            backend=backend, tracer=tracer)
    if slab_bytes is not None:
        service._pool.slab_bytes = slab_bytes  # the arena starts in run()
        service._pool.max_slabs = 1
    try:
        source = stream(service, batch) if stream is not None \
            else chunk_stream(batch, 2_000)
        job_id = service.submit(app, source, window_seconds=2e-6,
                                params=params, job_id=f"shm-{app}")
        service.run()
        result = service.result(job_id)
        snapshot = service.metrics.snapshot()
    finally:
        service.shutdown()
    return result, snapshot, tracer.events()


# ----------------------------------------------------------------------
# The arena itself
# ----------------------------------------------------------------------
class TestSlabArena:
    def test_write_then_view_roundtrips_and_reclaims(self):
        arena = SlabArena(slab_bytes=1 << 16, max_slabs=2)
        client = SlabClient(arena.ctrl_name)
        try:
            keys = np.arange(100, dtype=np.uint64)
            values = -np.arange(100, dtype=np.int64)
            desc = arena.write(0, keys, values)
            assert desc is not None
            seen_keys, seen_values = client.views(desc)
            np.testing.assert_array_equal(seen_keys, keys)
            np.testing.assert_array_equal(seen_values, values)
            # Views are read-only: mutation is a loud error, not silent
            # cross-process corruption.
            with pytest.raises(ValueError):
                seen_keys[0] = 1
            del seen_keys, seen_values
            assert arena.outstanding() == 1
            client.done(0, desc.seq)
            assert arena.outstanding() == 0
        finally:
            client.detach()
            arena.close()

    def test_blocks_recycle_once_consumed(self):
        # One slab holding exactly two blocks: the third write needs a
        # consumed block back.
        nbytes = block_size(8, np.uint64, np.int64)
        arena = SlabArena(slab_bytes=2 * nbytes, max_slabs=1)
        client = SlabClient(arena.ctrl_name)
        metrics_before = None
        try:
            keys = np.arange(8, dtype=np.uint64)
            values = np.arange(8, dtype=np.int64)
            first = arena.write(0, keys, values)
            second = arena.write(0, keys, values)
            assert first is not None and second is not None
            assert arena.write(0, keys, values) is None  # full
            client.done(0, first.seq)
            third = arena.write(0, keys, values)
            assert third is not None
            assert third.offset == first.offset  # the recycled block
        finally:
            client.detach()
            arena.close()

    def test_free_list_coalesces_adjacent_blocks(self):
        # Three small blocks fill the slab; after all are consumed, one
        # write of the full slab size must fit — which requires the
        # free list to have merged the three neighbours back together.
        small = block_size(8, np.uint64, np.int64)
        arena = SlabArena(slab_bytes=3 * small, max_slabs=1)
        client = SlabClient(arena.ctrl_name)
        try:
            keys = np.arange(8, dtype=np.uint64)
            values = np.arange(8, dtype=np.int64)
            descs = [arena.write(0, keys, values) for _ in range(3)]
            assert all(d is not None for d in descs)
            client.done(0, descs[-1].seq)  # consumed through the last
            big = np.arange(20, dtype=np.uint64)
            assert block_size(20, np.uint64, np.int64) == 3 * small
            desc = arena.write(0, big, big.astype(np.int64))
            assert desc is not None and desc.offset == 0
        finally:
            client.detach()
            arena.close()

    def test_oversize_shard_waits_then_gets_its_own_slab(self):
        arena = SlabArena(slab_bytes=4096, max_slabs=1)
        client = SlabClient(arena.ctrl_name)
        try:
            small = np.arange(8, dtype=np.uint64)
            first = arena.write(0, small, small.astype(np.int64))
            huge = np.arange(4096, dtype=np.uint64)  # > slab on its own
            # Something is outstanding: waiting can free space, so the
            # arena refuses rather than grow past max_slabs.
            assert arena.write(1, huge, huge.astype(np.int64)) is None
            client.done(0, first.seq)
            desc = arena.write(1, huge, huge.astype(np.int64))
            assert desc is not None and desc.slab != first.slab
            seen_keys, _ = client.views(desc)
            assert np.array_equal(seen_keys, huge)
            del seen_keys, _
        finally:
            client.detach()
            arena.close()

    def test_close_unlinks_every_segment(self):
        before = shm_segments()
        arena = SlabArena(slab_bytes=1 << 16, max_slabs=4)
        keys = np.arange(64, dtype=np.uint64)
        arena.write(0, keys, keys.astype(np.int64))
        assert shm_segments() != before  # ctrl + one slab exist
        arena.close()
        assert shm_segments() == before

    def test_release_worker_frees_unconsumed_blocks(self):
        nbytes = block_size(8, np.uint64, np.int64)
        arena = SlabArena(slab_bytes=2 * nbytes, max_slabs=1)
        try:
            keys = np.arange(8, dtype=np.uint64)
            values = np.arange(8, dtype=np.int64)
            assert arena.write(0, keys, values) is not None
            assert arena.write(0, keys, values) is not None
            assert arena.write(0, keys, values) is None  # full
            arena.release_worker(0)  # crashed child: nobody reads these
            assert arena.write(0, keys, values) is not None
        finally:
            arena.close()


# ----------------------------------------------------------------------
# Arena exhaustion waits
# ----------------------------------------------------------------------
def make_backend(**kwargs):
    config = ArchitectureConfig(lanes=8, pripes=16, secpes=0,
                                reschedule_threshold=0.0)
    spec = SessionSpec(app="histo", config=config)
    metrics = ServiceMetrics()
    return ProcessBackend(2, lambda job_id: spec, metrics, **kwargs), metrics


def ones(tuples, first_key=0):
    return TupleBatch(np.arange(first_key, first_key + tuples,
                                dtype=np.uint64),
                      np.ones(tuples, dtype=np.int64))


#: An arena of exactly two 100-tuple blocks.
TWO_BLOCKS = 2 * block_size(100, np.uint64, np.int64)


def fill_stopped_worker(backend, job_id="held"):
    """SIGSTOP worker 0's host, then hand it two windows' shards: it
    holds the whole two-block arena, alive, until it is continued or
    killed."""
    host = host_of(backend, 0)
    os.kill(host.process.pid, signal.SIGSTOP)
    backend.dispatch(0, WorkItem(job_id, ones(100)))
    # Two shards overrun the block budget (an eighth of the arena): the
    # first ships when the second arrives; shipping every host then
    # sends the second.
    backend.dispatch(0, WorkItem(job_id, ones(100, first_key=100)))
    backend._ship_all()
    assert backend._arena.outstanding() == 2
    return host


class TestExhaustionWaits:
    """Workers 0 and 1 on separate children: worker 1's block waits on
    the blocks worker 0's stopped (or dead) child holds."""

    @pytest.fixture(autouse=True)
    def two_children(self, monkeypatch):
        fake_spare_cores(monkeypatch, 2)

    def test_service_inside_one_16k_slab_matches_inline(self):
        # A 2 000-tuple window splits into shards of up to ~1 000
        # tuples (16 KiB of keys and values): they wait for blocks,
        # and the biggest need a slab of their own.
        tracer = TraceCollector(enabled=True)
        shm_result, shm_snap, events = serve_one(
            "histo", slab_bytes=16 << 10, tuples=12_000, tracer=tracer)
        inline_result, inline_snap, _ = serve_one(
            "histo", backend="inline", tuples=12_000)
        assert result_bits(shm_result) == result_bits(inline_result)
        assert comparable(shm_snap) == comparable(inline_snap)
        assert int(shm_result.result.sum()) == 12_000
        assert any(e.kind == trace_events.BACKEND_SLAB_REUSE
                   for e in events)
        # A window's block (up to 2 000 tuples, 32 KiB) outgrows the
        # 16 KiB slab: it gets a slab of its own.
        assert any(e.kind == trace_events.BACKEND_SLAB_ALLOC
                   and e.data["nbytes"] > 16 << 10 for e in events)

    def test_holder_killed_mid_wait_is_revived(self):
        tracer = TraceCollector(enabled=True)
        backend, metrics = make_backend(slab_bytes=TWO_BLOCKS,
                                        max_slabs=1, tracer=tracer)
        backend.start()
        try:
            held = fill_stopped_worker(backend)
            held.process.kill()
            held.process.join(timeout=10)
            assert not held.process.is_alive()
            # Worker 1's block waits (shipped at the drain) on worker
            # 0's blocks; the wait finds the holder dead, revives it
            # and replays its two shards, then places once the
            # replacement consumes them.
            backend.dispatch(1, WorkItem("held", ones(100, first_key=200)))
            backend.drain()
            assert host_of(backend, 0) is not held
            assert backend.errors("held") == []
            merged = backend.collect("held")
            assert int(merged.result.sum()) == 300
            assert metrics.snapshot()["transport"]["shard_retries"] == 2
            kinds = [e.kind for e in tracer.events()]
            assert kinds.count(trace_events.BACKEND_CRASH) == 1
            assert kinds.count(trace_events.BACKEND_RESPAWN) == 1
        finally:
            backend.stop()

    def test_wait_places_once_a_live_holder_consumes(self):
        backend, metrics = make_backend(slab_bytes=TWO_BLOCKS, max_slabs=1)
        backend.start()
        held = host_of(backend, 0)
        resume = threading.Timer(0.3, os.kill,
                                 (held.process.pid, signal.SIGCONT))
        try:
            fill_stopped_worker(backend)
            # Worker 1's block (shipped at the drain) waits while worker
            # 0's host is stopped; once it resumes and consumes, a
            # freed block takes the shard.  The holder was alive
            # throughout, so nothing is revived.
            resume.start()
            backend.dispatch(1, WorkItem("held", ones(100, first_key=200)))
            backend.drain()
            assert host_of(backend, 0) is held
            assert backend.errors("held") == []
            assert int(backend.collect("held").result.sum()) == 300
            transport = metrics.snapshot()["transport"]
            assert transport["slabs_allocated"] == 1
            assert transport["slab_blocks_reused"] == 1
            assert transport["shard_retries"] == 0
        finally:
            resume.join()
            os.kill(held.process.pid, signal.SIGCONT)  # stop() must reach it
            backend.stop()

    def test_wait_past_timeout_fails_only_that_job(self):
        before = shm_segments()
        backend, _ = make_backend(slab_bytes=TWO_BLOCKS, max_slabs=1,
                                  join_timeout=0.5)
        backend.start()
        held = host_of(backend, 0)
        try:
            fill_stopped_worker(backend)
            # Shipping returns (no hang, no raise) with the job failed
            # instead.
            backend.dispatch(1, WorkItem("starved", ones(100)))
            backend._ship_all()
            assert any("no shared-memory block freed" in error
                       for error in backend.errors("starved"))
            os.kill(held.process.pid, signal.SIGCONT)
            backend.drain()
            assert backend.errors("held") == []
            assert int(backend.collect("held").result.sum()) == 200
            assert backend.collect("starved") is None  # nothing was sent
        finally:
            os.kill(held.process.pid, signal.SIGCONT)  # stop() must reach it
            backend.stop()
        assert shm_segments() == before

    @pytest.mark.parametrize("workers", (0, CTRL_SLOTS + 1))
    def test_worker_count_is_bounded_by_the_control_block(self, workers):
        spec = SessionSpec(app="histo", config=ArchitectureConfig())
        with pytest.raises(ValueError, match="workers must be in"):
            ProcessBackend(workers, lambda job_id: spec, ServiceMetrics())
        backend = ProcessBackend(1, lambda job_id: spec, ServiceMetrics())
        with pytest.raises(ValueError, match="workers must be in"):
            backend.resize(workers)


# ----------------------------------------------------------------------
# /dev/shm hygiene
# ----------------------------------------------------------------------
class TestArenaCleanup:
    def test_stop_leaves_no_segments(self):
        before = shm_segments()
        serve_one("histo")
        assert shm_segments() == before

    def test_crash_leaves_no_segments(self):
        before = shm_segments()

        def crashing(service, batch):
            for index, events in enumerate(chunk_stream(batch, 2_000)):
                if index == 2:
                    kill_worker(service)
                yield events

        result, _, _ = serve_one("histo", stream=crashing)
        assert result.result is not None
        assert shm_segments() == before

    def test_service_restart_recreates_the_arena(self):
        batch, _ = app_workload("histo", tuples=3_000)
        service = StreamService(workers=2, balancer="skew",
                                backend="process")
        try:
            service.submit("histo", chunk_stream(batch, 1_500),
                           window_seconds=2e-6, job_id="first")
            service.run()
            first = service.result("first")
            service.shutdown()  # arena unlinked with the fleet
            service.submit("histo", chunk_stream(batch, 1_500),
                           window_seconds=2e-6, job_id="second")
            service.run()  # fresh fleet, fresh arena
            second = service.result("second")
            assert np.array_equal(first.result, second.result)
        finally:
            service.shutdown()
        assert service.metrics.transport["shards_shm"] > 0


# ----------------------------------------------------------------------
# Lost-shard retry
# ----------------------------------------------------------------------
def kill_worker(service, victim=0):
    """SIGKILL the child hosting one worker."""
    host = host_of(service._pool, victim)
    host.process.kill()
    host.process.join()


def killing_stream(victim=0, at_chunk=1, chunk=2_000):
    """A source that SIGKILLs one worker's host mid-job.

    The crash surfaces as a broken pipe when the host's next block
    ships, triggering revive-and-replay while the stream continues.
    """

    def stream(service, batch):
        for index, events in enumerate(chunk_stream(batch, chunk)):
            if index == at_chunk:
                kill_worker(service, victim)
            yield events

    return stream


def kill_after_stream(victim=0, chunk=2_000):
    """SIGKILL a worker after the final chunk, before the drain."""

    def stream(service, batch):
        yield from chunk_stream(batch, chunk)
        kill_worker(service, victim)

    return stream


class TestLostShardRetry:
    @pytest.mark.parametrize("app", SERVED_APPS)
    def test_crash_replays_instead_of_failing(self, app):
        # Replay must land on the same worker id, with the tuples its
        # window's split gave that id (an hhd window's all of them), or
        # the segments (and the merged result) would shift.
        clean_result, clean_snap, _ = serve_one(app)
        tracer = TraceCollector(enabled=True)
        crash_result, crash_snap, events = serve_one(
            app, stream=killing_stream(), tracer=tracer)
        assert result_bits(clean_result) == result_bits(crash_result)
        # Exactly-once accounting: the replayed shards fold no
        # duplicate segment records, so the deterministic snapshot
        # matches a run that never crashed.
        assert comparable(clean_snap) == comparable(crash_snap)
        crashes = [e for e in events
                   if e.kind == trace_events.BACKEND_CRASH]
        retries = [e for e in events
                   if e.kind == trace_events.BACKEND_SHARD_RETRY]
        assert len(crashes) == 1
        assert retries, "crash recovery must emit shard retry events"
        assert crash_snap["transport"]["shard_retries"] == len(retries)
        assert crashes[0].data["retained_shards"] == len(retries)
        # Every retry names a worker the crashed child hosted, and each
        # hosted worker with a shard in a window before the crash's
        # window is replayed.
        hosted = set(crashes[0].data["workers"])
        replayed = {e.worker for e in retries}
        assert replayed <= hosted
        windows = [e for e in events[:events.index(crashes[0])]
                   if e.kind == trace_events.JOB_WINDOW]
        earlier = {worker for window in windows[:-1]
                   for worker, _ in window.data["shards"]}
        assert earlier & hosted <= replayed

    def test_crash_at_drain_is_recovered(self):
        # Kill after the last chunk: the loss is only discovered at the
        # drain barrier, whose revive+replay+reflush path must recover.
        clean_result, clean_snap, _ = serve_one("histo")
        crash_result, crash_snap, _ = serve_one(
            "histo", stream=kill_after_stream())
        assert result_bits(clean_result) == result_bits(crash_result)
        assert comparable(clean_snap) == comparable(crash_snap)

    @pytest.mark.parametrize("app", ("histo", "hll", "pagerank"))
    def test_crash_after_scale_down_rebuilds_every_shard(self, monkeypatch,
                                                         app):
        # One child hosts all four workers.  The scale-down hands
        # workers 2 and 3's sessions off as orphans and cuts the
        # retained windows to workers 0 and 1; the crash then replays
        # those windows for 0 and 1 alone, so each worker's session
        # must hold exactly its own shards' part of every window.
        fake_spare_cores(monkeypatch, 1)

        def shrink_then_kill(kill):
            # Windows close a few chunks behind the source: several are
            # retained by the resize, and more by the crash.
            def stream(service, batch):
                for index, events in enumerate(chunk_stream(batch, 1_500)):
                    if index == 8:
                        service._pool.drain()
                        service.balancer.reconfigure(2)
                        service._pool.resize(2)
                    if index == 12 and kill:
                        kill_worker(service, 0)
                    yield events
            return stream

        clean_result, clean_snap, _ = serve_one(
            app, stream=shrink_then_kill(False), tuples=24_000)
        crash_result, crash_snap, _ = serve_one(
            app, stream=shrink_then_kill(True), tuples=24_000)
        batch, params = app_workload(app, tuples=24_000)
        golden = kernel_for(app, 16, params).golden(batch.keys, batch.values)
        assert np.array_equal(crash_result.result, golden)
        assert result_bits(clean_result) == result_bits(crash_result)
        assert comparable(clean_snap) == comparable(crash_snap)


# ----------------------------------------------------------------------
# Dtype-carrying shard descriptors
# ----------------------------------------------------------------------
class TestDtypeHeaders:
    @pytest.mark.parametrize("key_dtype,value_dtype", (
        (np.uint32, np.int32),
        (np.uint16, np.int64),
        (np.uint64, np.int16),
    ))
    def test_non_default_dtypes_roundtrip(self, key_dtype, value_dtype):
        # Decoding with hardcoded uint64/int64 would misparse a uint32
        # key array as half as many uint64s.  The descriptor carries
        # both dtypes; the child views with them and TupleBatch's own
        # coercion restores the canonical types, so results match the
        # uint64 baseline exactly.
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 1 << 16, 1_000).astype(np.uint64)
        values = rng.integers(0, 1 << 10, 1_000, dtype=np.int64)

        def run(shrink_dtypes):
            backend, _ = make_backend()
            backend.start()
            try:
                batch = TupleBatch(keys.copy(), values.copy())
                if shrink_dtypes:
                    batch.keys = batch.keys.astype(key_dtype)
                    batch.values = batch.values.astype(value_dtype)
                backend.dispatch(0, WorkItem("job", batch))
                backend.drain()
                merged = backend.collect("job")
                assert merged is not None
                return merged.result
            finally:
                backend.stop()

        np.testing.assert_array_equal(run(False), run(True))


# ----------------------------------------------------------------------
# Hosting: one warm child per spare CPU, windows share a block
# ----------------------------------------------------------------------
class TestHosting:
    def counted_run(self, monkeypatch, spare, windows=5, workers=4):
        """Drive ``windows`` windows of one shard per worker through a
        fresh backend on ``spare`` faked spare CPUs, counting arena
        block writes and ``"window"`` pipe messages."""
        fake_spare_cores(monkeypatch, spare)
        counts = {"writes": 0, "windows": 0}
        write_block = SlabArena.write_block
        send = multiprocessing.connection.Connection.send

        def counting_write(arena, *args):
            counts["writes"] += 1
            return write_block(arena, *args)

        def counting_send(conn, msg):
            counts["windows"] += msg[0] == "window"
            return send(conn, msg)

        monkeypatch.setattr(SlabArena, "write_block", counting_write)
        monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                            counting_send)
        config = ArchitectureConfig(lanes=8, pripes=16, secpes=0,
                                    reschedule_threshold=0.0)
        spec = SessionSpec(app="histo", config=config)
        tracer = TraceCollector(enabled=True)
        backend = ProcessBackend(workers, lambda job_id: spec,
                                 ServiceMetrics(), tracer=tracer)
        backend.start()
        try:
            for window in range(windows):
                for worker_id in range(workers):
                    first = (window * workers + worker_id) * 100
                    backend.dispatch(worker_id, WorkItem(
                        "job", ones(100, first_key=first)))
            backend.drain()
            children = [child for child in multiprocessing.active_children()
                        if child.name.startswith("pipeline-proc-")]
            assert int(backend.collect("job").result.sum()) == \
                windows * workers * 100
            transport = backend.metrics.snapshot()["transport"]
        finally:
            backend.stop()
        forks = {e.worker: e.data["pid"] for e in tracer.events()
                 if e.kind == trace_events.BACKEND_FORK}
        return counts, children, transport, forks

    def test_one_spare_core_is_one_child_and_one_block_per_drain(
            self, monkeypatch):
        # 20 shards of 1.6 KB stay far below the block budget: they
        # ship together at the drain.
        windows = 5
        counts, children, transport, forks = self.counted_run(
            monkeypatch, spare=1, windows=windows)
        assert counts == {"writes": 1, "windows": 1}
        assert len(children) == 1
        assert transport["shards_shm"] == 4 * windows
        # One backend.fork per logical worker, all naming the one host.
        assert sorted(forks) == [0, 1, 2, 3]
        assert len(set(forks.values())) == 1

    def test_three_spare_cores_are_three_children(self, monkeypatch):
        counts, children, transport, forks = self.counted_run(
            monkeypatch, spare=3, windows=4)
        assert len(children) == 3
        assert counts == {"writes": 3, "windows": 3}  # one per child
        assert transport["shards_shm"] == 4 * 4
        assert forks[3] == forks[0]  # worker 3 shares child 0
        assert len({forks[0], forks[1], forks[2]}) == 3

    def test_no_spare_core_is_one_child(self, monkeypatch):
        fake_spare_cores(monkeypatch, 0)
        backend, _ = make_backend()
        backend.start()
        try:
            assert len(backend._hosts) == 1
            backend.dispatch(0, WorkItem("job", ones(100)))
            backend.dispatch(1, WorkItem("job", ones(100, first_key=100)))
            backend.drain()
            assert int(backend.collect("job").result.sum()) == 200
        finally:
            backend.stop()

    def test_spare_cores_leave_one_cpu_to_the_dispatcher(self,
                                                         monkeypatch):
        assert procpool._spare_cores() == len(os.sched_getaffinity(0)) - 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert procpool._spare_cores() == 3


# ----------------------------------------------------------------------
# Window hand-over: the child splits, several windows per block
# ----------------------------------------------------------------------
#: Line-rate time of exactly 4 000 tuples: one chunk is one window.
WINDOW_4K = 4_000 / NetworkModel().tuples_per_second


def serve_windows(backend, windows, stream=None):
    """One traced histo job of ``windows`` 4 000-tuple windows on K = 4;
    (result, snapshot, events)."""
    batch = ZipfGenerator(alpha=1.5, seed=5).generate(windows * 4_000)
    tracer = TraceCollector(enabled=True)
    service = StreamService(workers=4, balancer="skew", backend=backend,
                            tracer=tracer)
    try:
        source = stream(service, batch) if stream is not None \
            else chunk_stream(batch, 4_000)
        service.submit("histo", source, window_seconds=WINDOW_4K,
                       job_id="handover")
        service.run()
        result = service.result("handover")
        snapshot = service.metrics.snapshot()
    finally:
        service.shutdown()
    return result, snapshot, tracer.events()


def job_events(events, kind):
    """One kind of job event, order-insensitive, generation dropped."""
    return sorted((e.clock, e.worker, sorted(e.data.items()))
                  for e in events if e.kind == kind)


class TestWindowHandOver:
    WINDOWS = 20

    def test_child_splits_whole_windows_shipped_several_per_block(
            self, monkeypatch):
        fake_spare_cores(monkeypatch, 1)
        counts = {"splits": 0, "writes": 0, "windows": 0}
        split = SkewAwareBalancer.split
        write_block = SlabArena.write_block
        send = multiprocessing.connection.Connection.send

        def counting_split(*args, **kwargs):
            counts["splits"] += 1
            return split(*args, **kwargs)

        def counting_write(arena, *args):
            counts["writes"] += 1
            return write_block(arena, *args)

        def counting_send(conn, msg):
            counts["windows"] += msg[0] == "window"
            return send(conn, msg)

        children = []

        def stream(service, batch):
            yield from chunk_stream(batch, 4_000)
            children.extend(
                child for child in multiprocessing.active_children()
                if child.name.startswith("pipeline-proc-"))

        inline_result, inline_snap, inline_events = serve_windows(
            "inline", self.WINDOWS)
        monkeypatch.setattr(SkewAwareBalancer, "split", counting_split)
        monkeypatch.setattr(SlabArena, "write_block", counting_write)
        monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                            counting_send)
        result, snapshot, events = serve_windows(
            "process", self.WINDOWS, stream=stream)

        # 20 windows of 64 KB: eight to a 512 KiB block.
        blocks = math.ceil(self.WINDOWS * 4_000 * 16
                           / (DEFAULT_SLAB_BYTES // 8))
        assert blocks == 3
        assert counts == {"splits": 0, "writes": blocks, "windows": blocks}
        assert len(children) == 1
        assert snapshot["transport"]["shards_shm"] == 4 * self.WINDOWS
        assert result_bits(result) == result_bits(inline_result)
        assert comparable(snapshot) == comparable(inline_snap)
        inline_windows = job_events(inline_events, trace_events.JOB_WINDOW)
        assert len(inline_windows) == self.WINDOWS
        assert job_events(events, trace_events.JOB_WINDOW) == inline_windows

    @pytest.mark.parametrize("fold_first", (False, True))
    def test_crash_after_a_multi_window_block_folds_records_once(
            self, monkeypatch, fold_first):
        # Without ``fold_first`` the child dies after the first block of
        # eight windows; with it, a drain first folds the records of
        # the windows before chunk 4, which the replay must suppress.
        fake_spare_cores(monkeypatch, 1)
        ship = ProcessBackend._ship
        armed, killed = [] if fold_first else [True], []

        def killing_ship(backend, host, staged):
            shipped = ship(backend, host, staged)
            if armed and not killed and len(staged) > 1:
                killed.append(host.process.pid)
                host.process.kill()
                host.process.join()
            return shipped

        def stream(service, batch):
            for index, events in enumerate(chunk_stream(batch, 4_000)):
                if fold_first and index == 4:
                    service._pool.drain()
                    armed.append(True)
                yield events

        monkeypatch.setattr(ProcessBackend, "_ship", killing_ship)
        inline_result, inline_snap, inline_events = serve_windows(
            "inline", self.WINDOWS)
        result, snapshot, events = serve_windows(
            "process", self.WINDOWS, stream=stream)

        assert killed
        assert [e.kind for e in events].count(
            trace_events.BACKEND_CRASH) == 1
        assert result_bits(result) == result_bits(inline_result)
        assert comparable(snapshot) == comparable(inline_snap)
        for kind in (trace_events.JOB_SEGMENT, trace_events.JOB_WINDOW):
            assert job_events(events, kind) == job_events(inline_events,
                                                          kind), kind
        retries = [e for e in events
                   if e.kind == trace_events.BACKEND_SHARD_RETRY]
        # Replayed records already folded are the ones suppressed.
        assert any(not e.data["recorded"] for e in retries) == fold_first
        assert any(e.data["recorded"] for e in retries)
