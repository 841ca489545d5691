"""StreamGateway end to end over real sockets.

Every test runs against a live TCP listener on an ephemeral port.  The
acceptance bar: results streamed over the wire are *bit-identical* to
the same seeded workload submitted in-process, backpressure stalls
well-behaved clients and sheds flooding ones without losing any
accepted batch, and tenant contracts (auth, admission quotas) hold at
the socket boundary.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro import wallclock
from repro.net import GatewayError, StreamClient, StreamGateway, protocol
from repro.service import StreamService, TenantSpec
from repro.service.jobs import QuotaExceededError, kernel_for
from repro.workloads.streams import TimestampedBatch, chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator

WINDOW = 2.56e-6


def zipf_batches(alpha=1.5, tuples=8_000, seed=7, chunk=2_000):
    return list(chunk_stream(
        ZipfGenerator(alpha=alpha, seed=seed).generate(tuples), chunk))


def golden_histogram(batches):
    keys = np.concatenate([b.batch.keys for b in batches])
    values = np.concatenate([b.batch.values for b in batches])
    return kernel_for("histo", 16).golden(keys, values)


def in_process_result(batches, app="histo", workers=2):
    service = StreamService(workers=workers)
    job_id = service.submit(app, iter(batches), window_seconds=WINDOW)
    service.run()
    result = service.result(job_id)
    service.shutdown()
    return result


@pytest.fixture
def fleet():
    """(service, gateway) pair serving on an ephemeral port."""
    service = StreamService(workers=2)
    gateway = StreamGateway(service, high_water=8)
    gateway.start()
    yield service, gateway
    gateway.stop()
    service.shutdown()


class TestRoundTrip:
    def test_wire_result_bit_identical_to_in_process(self, fleet):
        service, gateway = fleet
        batches = zipf_batches()
        reference = in_process_result(batches)
        with StreamClient(gateway.host, gateway.port) as client:
            job_id = client.submit_stream("histo", iter(batches),
                                          window_seconds=WINDOW)
            result = client.result(job_id)
        assert np.array_equal(result.result, reference.result)
        assert result.tuples == reference.tuples
        assert result.segments == reference.segments

    def test_poll_reports_completion_and_counters_merge(self, fleet):
        service, gateway = fleet
        batches = zipf_batches(tuples=4_000)
        with StreamClient(gateway.host, gateway.port) as client:
            job_id = client.submit_stream("histo", iter(batches),
                                          window_seconds=WINDOW)
            client.result(job_id)
            status = client.poll(job_id)
        assert status["status"] == "completed"
        snap = service.metrics.snapshot()["gateway"]
        assert snap["connections_opened"] == 1
        assert snap["batches_ingested"] == len(batches)
        assert snap["tuples_ingested"] == 4_000
        assert snap["bytes_received"] > 0
        assert snap["bytes_sent"] > 0

    def test_cancel_withdraws_queued_job(self, fleet):
        service, gateway = fleet
        with StreamClient(gateway.host, gateway.port) as client:
            job_id = client.submit("histo", window_seconds=WINDOW)
            # The job may already have been admitted by the dispatcher
            # (cancel targets queued jobs only) — accept either verdict,
            # but the gateway must answer coherently.
            cancelled = client.cancel(job_id)
            assert cancelled in (True, False)


class TestTenantContracts:
    def test_quota_rejection_over_the_wire(self):
        service = StreamService(workers=2)
        service.register_tenant(TenantSpec("alice", max_queued=1))
        gateway = StreamGateway(service, high_water=8, serve=False)
        gateway.start()
        try:
            with StreamClient(gateway.host, gateway.port,
                              tenant="alice") as client:
                client.submit("histo", window_seconds=WINDOW)
                with pytest.raises(QuotaExceededError):
                    client.submit("histo", window_seconds=WINDOW)
            assert service.metrics.snapshot()["tenants"]["alice"][
                "jobs"]["rejected"] == 1
        finally:
            gateway.stop()
            service.shutdown()

    def test_token_auth_refuses_bad_credentials(self):
        service = StreamService(workers=1)
        gateway = StreamGateway(service, tokens={"alice": "s3cret"},
                                serve=False)
        gateway.start()
        try:
            with pytest.raises(GatewayError) as excinfo:
                StreamClient(gateway.host, gateway.port,
                             tenant="alice", token="wrong")
            assert excinfo.value.code == "auth"
            with pytest.raises(GatewayError):
                StreamClient(gateway.host, gateway.port,
                             tenant="mallory", token="s3cret")
            client = StreamClient(gateway.host, gateway.port,
                                  tenant="alice", token="s3cret")
            client.close()
        finally:
            gateway.stop()
            service.shutdown()

    def test_second_hello_is_rejected_and_binding_kept(self, fleet):
        """Re-auth on an established connection must be refused: a
        rebind would leave streams opened under the old tenant in its
        gate while new batches charge the new tenant's credits."""
        _, gateway = fleet
        with StreamClient(gateway.host, gateway.port,
                          tenant="default") as client:
            reply = client._request({"type": "hello", "tenant": "other"})
            assert reply["type"] == "error"
            assert reply["code"] == "protocol"
            # The original binding still works.
            job_id = client.submit("histo", window_seconds=WINDOW)
            assert job_id

    def test_submit_before_hello_is_refused(self, fleet):
        _, gateway = fleet
        with socket.create_connection((gateway.host, gateway.port),
                                      timeout=10) as sock:
            sock.sendall(protocol.encode(
                {"type": "submit", "app": "histo"}))
            reply = protocol.decode(sock.makefile("rb").readline())
        assert reply["type"] == "error"
        assert reply["code"] == "hello-required"

    def test_malformed_line_counts_protocol_error(self, fleet):
        service, gateway = fleet
        with socket.create_connection((gateway.host, gateway.port),
                                      timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            reply = protocol.decode(sock.makefile("rb").readline())
        assert reply["type"] == "error"
        assert reply["code"] == "protocol"
        assert service.metrics.snapshot()["gateway"][
            "protocol_errors"] == 1


class TestBackpressure:
    def test_well_behaved_client_stalls_and_loses_nothing(self):
        """With the dispatcher frozen the client runs out of credits
        and blocks on a credit request; resuming dispatch drains the
        tenant, the stall releases, and every batch lands."""
        service = StreamService(workers=2)
        gateway = StreamGateway(service, high_water=2, serve=False)
        gateway.start()
        batches = zipf_batches(tuples=6_000, chunk=1_000)
        client = StreamClient(gateway.host, gateway.port)
        finished = {}

        def stream():
            finished["job"] = client.submit_stream(
                "histo", iter(batches), window_seconds=WINDOW)

        thread = threading.Thread(target=stream)
        try:
            thread.start()
            thread.join(timeout=0.5)
            assert thread.is_alive()  # stalled at the high-water mark
            gateway.start_serving()
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert client.credit_stalls >= 1
            assert client.shed_batches == 0
            result = client.result(finished["job"])
            assert np.array_equal(result.result,
                                  golden_histogram(batches))
            snap = service.metrics.snapshot()["gateway"]
            assert snap["credit_stalls"] >= 1
            assert snap["batches_shed"] == 0
        finally:
            client.close()
            gateway.stop()
            service.shutdown()

    def test_flooding_client_is_shed_not_buffered(self):
        """A client ignoring its credits gets busy replies: the ingest
        depth stays at the high-water mark and the accepted batches
        still produce an exact result."""
        high_water = 4
        service = StreamService(workers=2)
        gateway = StreamGateway(service, high_water=high_water,
                                serve=False)
        gateway.start()
        batches = zipf_batches(tuples=12_000, chunk=1_000)
        client = StreamClient(gateway.host, gateway.port)
        try:
            job_id = client.submit("histo", window_seconds=WINDOW)
            accepted = [client.send_batch(job_id, batch, wait=False)
                        for batch in batches]
            assert sum(accepted) == high_water
            assert client.shed_batches == len(batches) - high_water
            client.end(job_id)
            gateway.start_serving()
            result = client.result(job_id)
            kept = [b for b, ok in zip(batches, accepted) if ok]
            assert np.array_equal(result.result, golden_histogram(kept))
            snap = service.metrics.snapshot()["gateway"]
            assert snap["batches_shed"] == len(batches) - high_water
            assert snap["ingest_depth"]["peak"] <= high_water
        finally:
            client.close()
            gateway.stop()
            service.shutdown()


class TestTenantGate:
    """``_TenantGate`` on its own: no sockets, no service."""

    @staticmethod
    def gate_with_buffer():
        from repro.net.buffer import IngestBuffer
        from repro.net.gateway import _TenantGate

        gate = _TenantGate()
        buffer = IngestBuffer(on_drain=gate.notify)
        gate.add(buffer)
        return gate, buffer, zipf_batches(tuples=100, chunk=100)[0]

    def test_admit_returns_the_depth_after_the_put(self):
        gate, buffer, batch = self.gate_with_buffer()
        assert gate.admit(buffer, batch, 2) == (True, 1)
        assert gate.admit(buffer, batch, 2) == (True, 2)
        assert gate.admit(buffer, batch, None) == (True, 3)  # no mark
        assert buffer.depth() == gate.depth() == 3

    def test_admit_refuses_at_the_mark_with_the_depth_it_saw(self):
        gate, buffer, batch = self.gate_with_buffer()
        assert gate.admit(buffer, batch, 1) == (True, 1)
        assert gate.admit(buffer, batch, 1) == (False, 1)
        assert buffer.depth() == 1  # shed, never buffered
        next(buffer)
        assert gate.admit(buffer, batch, 1) == (True, 1)

    def test_admit_into_a_closed_buffer_raises(self):
        gate, buffer, batch = self.gate_with_buffer()
        buffer.abort("connection torn down")
        with pytest.raises(RuntimeError):
            gate.admit(buffer, batch, 4)

    def test_two_threads_at_the_mark_admit_exactly_one(self):
        """Check and put are one critical section: with a put slow
        enough for both checks to pass before either lands, an
        unlocked check-then-put would admit both."""
        from repro.net.buffer import IngestBuffer

        gate, buffer, batch = self.gate_with_buffer()

        def slow_put(item):
            time.sleep(0.05)
            IngestBuffer.put(buffer, item)

        buffer.put = slow_put
        start = threading.Barrier(2)
        outcomes = []

        def producer():
            start.wait()
            outcomes.append(gate.admit(buffer, batch, 1))

        threads = [threading.Thread(target=producer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert sorted(outcomes) == [(False, 1), (True, 1)]
        assert buffer.depth() == 1

    def test_wait_below_stalls_once_until_stopped(self):
        gate, buffer, batch = self.gate_with_buffer()
        gate.admit(buffer, batch, 1)
        stop = threading.Event()
        stalls = []
        waiter = threading.Thread(
            target=gate.wait_below,
            args=(1, stop.is_set, lambda: stalls.append(1)))
        waiter.start()
        waiter.join(timeout=0.2)  # several wake-ups of the wait loop
        assert waiter.is_alive()  # at the mark and not stopped
        stop.set()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert stalls == [1]

    def test_wait_below_under_the_mark_returns_without_a_stall(self):
        gate, buffer, batch = self.gate_with_buffer()
        gate.admit(buffer, batch, 2)
        stalls = []
        gate.wait_below(2, lambda: False, lambda: stalls.append(1))
        assert stalls == []


class TestRobustness:
    def test_stale_credit_busy_is_retried_not_lost(self):
        """A wait=True sender whose cached credit count is stale (e.g.
        another connection of the tenant raced it) gets a busy reply:
        the client must stall and *resend*, never drop the batch."""
        service = StreamService(workers=2)
        gateway = StreamGateway(service, high_water=2, serve=False)
        gateway.start()
        batches = zipf_batches(tuples=3_000, chunk=1_000)
        client = StreamClient(gateway.host, gateway.port)
        sent = {}
        try:
            job_id = client.submit("histo", window_seconds=WINDOW)
            assert client.send_batch(job_id, batches[0], wait=False)
            assert client.send_batch(job_id, batches[1], wait=False)
            assert client.credits == 0
            client.credits = 1  # simulate a raced, stale credit count

            def push():
                sent["ok"] = client.send_batch(job_id, batches[2],
                                               wait=True)

            thread = threading.Thread(target=push)
            thread.start()
            thread.join(timeout=0.3)
            assert thread.is_alive()  # busy -> stalled, not dropped
            gateway.start_serving()
            thread.join(timeout=60.0)
            assert sent["ok"] is True
            assert client.shed_batches == 0
            client.end(job_id)
            result = client.result(job_id)
            assert np.array_equal(result.result,
                                  golden_histogram(batches))
        finally:
            client.close()
            gateway.stop()
            service.shutdown()

    def test_idle_client_fails_its_job_with_a_bounded_stall(
            self, monkeypatch):
        """A client that submits and goes silent (no batch, no end,
        connection up) must not stall the fleet forever: its stream
        times out, the job fails, and other tenants' jobs complete.

        The idle clock is the fakeable wallclock shim.  It stands still
        while the healthy tenant streams, so a host stall between that
        client's batches cannot evict it too, and only then moves past
        the timeout."""
        now = [0.0]
        monkeypatch.setattr(wallclock, "monotonic", lambda: now[0])
        service = StreamService(workers=2)
        gateway = StreamGateway(service, high_water=8, idle_timeout=0.2)
        gateway.start()
        quiet = StreamClient(gateway.host, gateway.port)
        try:
            stalled_job = quiet.submit("histo", window_seconds=WINDOW)
            quiet.send_batch(stalled_job,
                             zipf_batches(tuples=1_000, chunk=1_000)[0])
            # ...and now says nothing more.
            batches = zipf_batches(tuples=4_000)
            with StreamClient(gateway.host, gateway.port,
                              tenant="other") as other:
                job_id = other.submit_stream("histo", iter(batches),
                                             window_seconds=WINDOW)
                result = other.result(job_id, timeout=30.0)
            assert np.array_equal(result.result,
                                  golden_histogram(batches))
            assert service.poll(stalled_job)["status"] != "failed"
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline \
                    and service.poll(stalled_job)["status"] != "failed":
                # Every tick is past the timeout, so the eviction needs
                # no particular probe to have started the idle clock.
                now[0] += 1.0
                time.sleep(0.02)
            status = service.poll(stalled_job)
            assert status["status"] == "failed"
            assert "idle" in status["error"]
        finally:
            quiet.close()
            gateway.stop()
            service.shutdown()

    def test_dead_connection_releases_tenant_credits(self):
        """A client that vanishes with batches still buffered must not
        pin the tenant's high-water accounting forever: the aborted
        buffers drop their undelivered batches, so a fresh connection
        of the same tenant gets its full credit line back."""
        high_water = 2
        service = StreamService(workers=1)
        gateway = StreamGateway(service, high_water=high_water,
                                serve=False)  # nothing ever drains
        gateway.start()
        batches = zipf_batches(tuples=3_000, chunk=1_000)
        try:
            flaky = StreamClient(gateway.host, gateway.port, timeout=30)
            job_id = flaky.submit("histo", window_seconds=WINDOW)
            for batch in batches[:high_water]:
                assert flaky.send_batch(job_id, batch, wait=False)
            assert flaky.credits == 0
            # Vanish mid-stream with both credits consumed.
            flaky._sock.shutdown(socket.SHUT_RDWR)
            flaky._sock.close()
            successor = StreamClient(gateway.host, gateway.port,
                                     timeout=30)
            try:
                # Blocks only until the gateway reaps the dead
                # connection; the seed bug kept the tenant pinned at
                # zero credits forever.
                assert successor.wait_credit() == high_water
            finally:
                successor.close()
        finally:
            gateway.stop()
            service.shutdown()

    def test_cancel_releases_buffered_credits(self):
        """Cancelling a still-queued job whose stream already buffered
        batches must drop them from the tenant's high-water depth: the
        job never runs, so nothing else would ever drain them."""
        high_water = 2
        service = StreamService(workers=1)
        gateway = StreamGateway(service, high_water=high_water,
                                serve=False)  # job stays queued
        gateway.start()
        batches = zipf_batches(tuples=3_000, chunk=1_000)
        client = StreamClient(gateway.host, gateway.port, timeout=30)
        try:
            job_id = client.submit("histo", window_seconds=WINDOW)
            for batch in batches[:high_water]:
                assert client.send_batch(job_id, batch, wait=False)
            assert client.credits == 0
            assert client.cancel(job_id)
            # The seed bug kept the cancelled stream's batches counted
            # forever, deadlocking the tenant at zero credits.
            assert client.wait_credit() == high_water
        finally:
            client.close()
            gateway.stop()
            service.shutdown()

    def test_gateway_restarts_after_stop(self):
        """stop() then start() must yield a live gateway again (a
        stale stop flag would leave accept/dispatch threads dead)."""
        service = StreamService(workers=1)
        gateway = StreamGateway(service)
        gateway.start()
        gateway.stop()
        gateway.start()
        batches = zipf_batches(tuples=2_000, chunk=1_000)
        try:
            with StreamClient(gateway.host, gateway.port) as client:
                job_id = client.submit_stream("histo", iter(batches),
                                              window_seconds=WINDOW)
                result = client.result(job_id, timeout=30.0)
            assert np.array_equal(result.result,
                                  golden_histogram(batches))
        finally:
            gateway.stop()
            service.shutdown()

    def test_empty_open_stream_does_not_stall_siblings(self):
        """The dispatcher must skip an admitted stream with nothing
        buffered instead of blocking in next(): with eviction disabled
        (idle_timeout=None) a sibling job of the same tenant still
        streams past the high-water mark and completes, and the quiet
        stream stays healthy for a late finish."""
        service = StreamService(workers=2)
        service.register_tenant(TenantSpec("alice", max_in_flight=2))
        gateway = StreamGateway(service, high_water=2,
                                idle_timeout=None)
        gateway.start()
        batches = zipf_batches(tuples=6_000, chunk=1_000)
        done = {}
        client = StreamClient(gateway.host, gateway.port,
                              tenant="alice")

        def stream_sibling():
            job_id = client.submit_stream("histo", iter(batches),
                                          window_seconds=WINDOW)
            done["result"] = client.result(job_id, timeout=30.0)

        try:
            quiet_job = client.submit("histo", window_seconds=WINDOW)
            thread = threading.Thread(target=stream_sibling)
            thread.start()
            thread.join(timeout=60.0)
            assert not thread.is_alive()  # seed bug: wedged forever
            assert np.array_equal(done["result"].result,
                                  golden_histogram(batches))
            # The quiet stream was skipped, not failed: it can still
            # finish normally.
            client.end(quiet_job)
            client.result(quiet_job, timeout=30.0)
            assert service.poll(quiet_job)["status"] == "completed"
        finally:
            client.close()
            gateway.stop()
            service.shutdown()

    def test_result_long_wait_is_a_graceful_timeout(self):
        """result() must widen the socket deadline past the requested
        server-side wait: a job that never completes surfaces as the
        protocol's 'timeout' error reply, not a raw socket.timeout
        mid-read (the seed failure whenever timeout > socket default)."""
        service = StreamService(workers=1)
        gateway = StreamGateway(service, serve=False)
        gateway.start()
        client = StreamClient(gateway.host, gateway.port, timeout=0.5)
        try:
            job_id = client.submit("histo", window_seconds=WINDOW)
            with pytest.raises(GatewayError) as excinfo:
                client.result(job_id, timeout=1.5)
            assert excinfo.value.code == "timeout"
        finally:
            client.close()
            gateway.stop()
            service.shutdown()

    def test_batch_racing_abort_gets_closed_stream_reply(self):
        """abort() landing between _on_batch's closed check and the
        put (gateway stop, teardown from another thread) must yield a
        coherent error reply, not an uncaught RuntimeError that kills
        the handler thread."""
        from repro.net.buffer import IngestBuffer
        from repro.net.gateway import _Connection

        service = StreamService(workers=1)
        gateway = StreamGateway(service, serve=False)
        conn = _Connection(sock=None)
        conn.tenant = "default"
        buffer = IngestBuffer()
        conn.buffers["job"] = buffer
        gateway._gate("default").add(buffer)
        original = IngestBuffer.put

        def racing_put(batch):
            buffer.abort("connection torn down")
            original(buffer, batch)

        buffer.put = racing_put
        message = {
            "type": "batch", "job_id": "job",
            **protocol.batch_payload(
                zipf_batches(tuples=1_000, chunk=1_000)[0]),
        }
        reply = gateway._handle(conn, message)
        assert reply["type"] == "error"
        assert reply["code"] == "closed-stream"
        service.shutdown()

    def test_oversized_line_is_rejected_and_disconnected(self):
        service = StreamService(workers=1)
        gateway = StreamGateway(service, serve=False,
                                max_line_bytes=1024)
        gateway.start()
        try:
            with socket.create_connection((gateway.host, gateway.port),
                                          timeout=10) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"x" * 4096 + b"\n")
                reply = protocol.decode(rfile.readline())
                assert reply["type"] == "error"
                assert reply["code"] == "protocol"
                assert rfile.readline() == b""  # server hung up
            assert service.metrics.snapshot()["gateway"][
                "protocol_errors"] == 1
        finally:
            gateway.stop()
            service.shutdown()

    def test_dispatcher_death_is_surfaced_to_clients(self):
        service = StreamService(workers=1)
        gateway = StreamGateway(service, serve=False)
        service.run = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("kaboom"))
        gateway.start()
        gateway.start_serving()
        client = StreamClient(gateway.host, gateway.port)
        try:
            deadline = time.monotonic() + 10.0
            while gateway.dispatch_error is None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gateway.dispatch_error == "kaboom"
            job_id = client.submit("histo", window_seconds=WINDOW)
            client.end(job_id)
            with pytest.raises(GatewayError) as excinfo:
                client.result(job_id, timeout=5.0)
            assert excinfo.value.code == "dispatcher-error"
        finally:
            client.close()
            gateway.stop()
            service.shutdown()

    def test_non_finite_timestamp_fails_job_and_gateway_keeps_serving(
            self, fleet):
        """The payload is raw float64, so nothing on the wire stops a
        client sending ``inf`` (the gateway acks it: stamps are the
        window manager's to judge); it must cost that client its job,
        nothing else."""
        service, gateway = fleet
        batches = zipf_batches(tuples=4_000)
        poisoned = TimestampedBatch(
            np.array([0.5, np.inf]), TupleBatch(np.array([1, 2]),
                                                np.array([1, 1])))
        with StreamClient(gateway.host, gateway.port) as client:
            job_id = client.submit("histo", window_seconds=WINDOW)
            assert client.send_batch(job_id, poisoned)
            client.end(job_id)
            with pytest.raises(GatewayError) as excinfo:
                client.result(job_id)
            assert excinfo.value.code == "failed"
            assert "event times must be finite" in str(excinfo.value)
            retry = client.submit_stream("histo", iter(batches),
                                         window_seconds=WINDOW)
            result = client.result(retry)
        assert np.array_equal(result.result, golden_histogram(batches))


class RawConnection:
    """A socket that has said hello; sends bytes as given, reads reply
    lines — the client the framing has to survive."""

    def __init__(self, gateway):
        self.sock = socket.create_connection(
            (gateway.host, gateway.port), timeout=10)
        self.rfile = self.sock.makefile("rb")
        assert self.request(protocol.encode(
            {"type": "hello", "tenant": "default"}))["type"] == "welcome"

    def request(self, data):
        self.sock.sendall(data)
        return self.reply()

    def reply(self):
        return protocol.decode(self.rfile.readline())

    def submit(self):
        reply = self.request(protocol.encode(
            {"type": "submit", "app": "histo", "window_seconds": WINDOW}))
        assert reply["type"] == "accepted"
        return reply["job_id"]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.rfile.close()
        self.sock.close()


def batch_frame(job_id, batch, **fields):
    return protocol.encode({"type": "batch", "job_id": job_id,
                            **protocol.batch_payload(batch), **fields})


def protocol_errors(service):
    return service.metrics.snapshot()["gateway"]["protocol_errors"]


class TestBinaryFrames:
    """Protocol 3 batch frames against a live gateway: what is refused,
    what it costs the connection, and what arrives."""

    def stream_and_check(self, conn, batches, job_id=None):
        """The connection still serves a whole job, exactly (the job
        the refused frame was aimed at, when there is one: the refusal
        must not have cost it anything either)."""
        job_id = job_id or conn.submit()
        for batch in batches:
            assert conn.request(
                batch_frame(job_id, batch))["type"] == "ack"
        assert conn.request(protocol.encode(
            {"type": "end", "job_id": job_id}))["type"] == "ack"
        reply = conn.request(protocol.encode(
            {"type": "result", "job_id": job_id}))
        assert reply["type"] == "result"
        assert np.array_equal(protocol.from_wire(reply["result"]),
                              golden_histogram(batches))

    @pytest.mark.parametrize("line", [
        b"\xff\xfe\n",
        b'{"type":' + b"[" * 100_000 + b"\n",
    ], ids=["not-utf-8", "nested-past-the-recursion-limit"])
    def test_unparseable_line_is_answered_counted_and_survived(
            self, fleet, line):
        """Parent: UnicodeDecodeError dropped the connection without a
        reply or a count; RecursionError killed the handler thread."""
        service, gateway = fleet
        with RawConnection(gateway) as conn:
            reply = conn.request(line)
            assert reply["type"] == "error"
            assert reply["code"] == "protocol"
            assert protocol_errors(service) == 1
            self.stream_and_check(conn, zipf_batches(tuples=2_000))

    def test_protocol_2_batch_is_refused_by_name_and_survived(
            self, fleet):
        service, gateway = fleet
        with RawConnection(gateway) as conn:
            job_id = conn.submit()
            reply = conn.request(
                b'{"type":"batch","job_id":"%s","keys":[1,2],'
                b'"values":[1,1],"timestamps":[0.0,0.5]}\n'
                % job_id.encode())
            assert reply["type"] == "error"
            assert reply["code"] == "protocol"
            assert "protocol 3" in reply["error"]
            assert protocol_errors(service) == 1
            self.stream_and_check(conn, zipf_batches(tuples=2_000),
                                  job_id)

    def test_refused_frame_with_its_payload_consumed_is_survived(
            self, fleet):
        """Wrong dtypes, honest length: the payload is read and
        dropped, so the next frame starts where the gateway looks."""
        service, gateway = fleet
        batch = zipf_batches(tuples=1_000, chunk=1_000)[0]
        with RawConnection(gateway) as conn:
            job_id = conn.submit()
            reply = conn.request(batch_frame(
                job_id, batch, dtypes=["<i8", "<u8", "<f8"]))
            assert reply["type"] == "error"
            assert reply["code"] == "protocol"
            assert protocol_errors(service) == 1
            self.stream_and_check(conn, zipf_batches(tuples=2_000),
                                  job_id)

    @pytest.mark.parametrize("header", [
        b'{"type":"batch","job_id":"j","count":%d,"dtypes":'
        b'["<u8","<i8","<f8"],"payload_bytes":%d}\n'
        % (2**40 // 24, 2**40 // 24 * 24),
        b'{"type":"batch","job_id":"j","count":2,"dtypes":'
        b'["<u8","<i8","<f8"],"payload_bytes":-48}\n',
        b'{"type":"batch","job_id":"j","count":1,"dtypes":'
        b'["<u8","<i8","<f8"],"payload_bytes":true}\n',
        b'{"type":"batch","job_id":"j","count":3,"dtypes":'
        b'["<u8","<i8","<f8"],"payload_bytes":48}\n',
        b'{"type":"end","job_id":"j","count":2,"payload_bytes":48}\n',
    ], ids=["a-terabyte", "negative", "bool", "count-lies", "not-a-batch"])
    def test_bad_declaration_is_answered_at_once_then_disconnected(
            self, fleet, header):
        """The error comes back on the header alone — no payload byte
        is sent, so a gateway that waited for (or allocated) the
        declared length would hang here instead."""
        service, gateway = fleet
        with RawConnection(gateway) as conn:
            reply = conn.request(header)
            assert reply["type"] == "error"
            assert reply["code"] == "protocol"
            assert conn.rfile.readline() == b""  # server hung up
        assert protocol_errors(service) == 1

    def test_payload_over_the_gateway_cap_is_refused_unread(self):
        service = StreamService(workers=1)
        gateway = StreamGateway(service, serve=False,
                                max_line_bytes=24 * 100)
        gateway.start()
        try:
            with RawConnection(gateway) as conn:
                job_id = conn.submit()
                at_cap, over = (
                    zipf_batches(tuples=n, chunk=n)[0] for n in (100, 101))
                assert conn.request(
                    batch_frame(job_id, at_cap))["type"] == "ack"
                reply = conn.request(batch_frame(job_id, over))
                assert reply["type"] == "error"
                assert reply["code"] == "protocol"
                assert conn.rfile.readline() == b""
        finally:
            gateway.stop()
            service.shutdown()

    def test_client_dying_mid_payload_fails_its_job_only(self, fleet):
        service, gateway = fleet
        batches = zipf_batches(tuples=4_000)
        with RawConnection(gateway) as conn:
            job_id = conn.submit()
            assert conn.request(
                batch_frame(job_id, batches[0]))["type"] == "ack"
            half = batch_frame(job_id, batches[1])
            conn.sock.sendall(half[:len(half) // 2])
            conn.sock.shutdown(socket.SHUT_RDWR)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline \
                and service.poll(job_id)["status"] != "failed":
            time.sleep(0.02)
        status = service.poll(job_id)
        assert status["status"] == "failed"
        assert "client connection lost" in status["error"]
        with RawConnection(gateway) as conn:
            self.stream_and_check(conn, batches)

    def test_batches_arrive_as_read_only_views_and_results_match(
            self, fleet, monkeypatch):
        """Nothing between the socket and the windows may write into a
        chunk (or need to): an out-of-order chunk takes the masked
        path, a chunk spanning several windows the run path, and both
        must give what the in-process run gives."""
        from repro.net.buffer import IngestBuffer

        service, gateway = fleet
        ordered = zipf_batches(tuples=20_000, chunk=12_000)
        assert ordered[0].span[1] - ordered[0].span[0] > 2 * WINDOW
        shuffle = np.random.default_rng(5).permutation(8_000)
        batches = [ordered[0], TimestampedBatch(
            ordered[1].timestamps[shuffle],
            TupleBatch(ordered[1].batch.keys[shuffle],
                       ordered[1].batch.values[shuffle]))]
        reference = in_process_result(batches)
        arrived = []
        put = IngestBuffer.put

        def recording_put(buffer, batch):
            arrived.append(batch)
            put(buffer, batch)

        monkeypatch.setattr(IngestBuffer, "put", recording_put)
        with StreamClient(gateway.host, gateway.port) as client:
            job_id = client.submit_stream("histo", iter(batches),
                                          window_seconds=WINDOW)
            result = client.result(job_id)
        assert len(arrived) == 2
        for got, sent in zip(arrived, batches):
            for column, original in (
                    (got.batch.keys, sent.batch.keys),
                    (got.batch.values, sent.batch.values),
                    (got.timestamps, sent.timestamps)):
                assert not column.flags.writeable
                assert not column.flags.owndata
                assert column.flags.aligned
                assert np.array_equal(column, original)
        assert np.array_equal(result.result, reference.result)
        assert (result.tuples, result.cycles, result.segments,
                result.late_tuples) == (
            reference.tuples, reference.cycles, reference.segments,
            reference.late_tuples)

    def test_bytes_received_counts_header_and_payload_once(self, fleet):
        service, gateway = fleet
        batch = zipf_batches(tuples=1_000, chunk=1_000)[0]
        sent = len(protocol.encode({"type": "hello", "tenant": "default"}))
        with RawConnection(gateway) as conn:
            submit = protocol.encode(
                {"type": "submit", "app": "histo", "job_id": "counted",
                 "window_seconds": WINDOW})
            frames = [submit, batch_frame("counted", batch),
                      protocol.encode({"type": "end", "job_id": "counted"})]
            for data in frames:
                assert conn.request(data)["type"] != "error"
                sent += len(data)
            assert len(frames[1]) > 24 * 1_000
            assert service.metrics.snapshot()["gateway"][
                "bytes_received"] == sent

    def test_client_refuses_a_gateway_of_another_revision(
            self, fleet, monkeypatch):
        _, gateway = fleet
        on_hello = gateway._on_hello
        monkeypatch.setattr(
            gateway, "_on_hello", lambda conn, message: {
                **on_hello(conn, message), "protocol": 2})
        with pytest.raises(GatewayError) as excinfo:
            StreamClient(gateway.host, gateway.port)
        assert excinfo.value.code == "protocol"


class TestConcurrency:
    def test_concurrent_clients_merge_deterministically(self):
        """Three tenants stream different seeded workloads at once;
        each result is bit-identical to its own in-process run."""
        workloads = {
            "alice": zipf_batches(alpha=1.8, tuples=6_000, seed=1),
            "bob": zipf_batches(alpha=1.2, tuples=6_000, seed=2),
            "carol": zipf_batches(alpha=0.8, tuples=6_000, seed=3),
        }
        references = {tenant: in_process_result(batches)
                      for tenant, batches in workloads.items()}
        service = StreamService(workers=2)
        for tenant in workloads:
            service.register_tenant(TenantSpec(tenant))
        gateway = StreamGateway(service, high_water=8)
        gateway.start()
        results = {}

        def run_client(tenant):
            with StreamClient(gateway.host, gateway.port,
                              tenant=tenant) as client:
                job_id = client.submit_stream(
                    "histo", iter(workloads[tenant]),
                    window_seconds=WINDOW)
                results[tenant] = client.result(job_id)

        try:
            threads = [threading.Thread(target=run_client, args=(t,))
                       for t in workloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads)
            for tenant, reference in references.items():
                assert np.array_equal(results[tenant].result,
                                      reference.result), tenant
                assert results[tenant].tenant_id == tenant
        finally:
            gateway.stop()
            service.shutdown()

    def test_connection_drop_fails_job_instead_of_hanging(self):
        """A client that vanishes mid-stream must not wedge the
        dispatcher: its stream aborts and the job fails cleanly."""
        service = StreamService(workers=2)
        gateway = StreamGateway(service, high_water=8)
        gateway.start()
        try:
            client = StreamClient(gateway.host, gateway.port)
            job_id = client.submit("histo", window_seconds=WINDOW)
            client.send_batch(job_id, zipf_batches(tuples=1_000,
                                                   chunk=1_000)[0])
            # Vanish without `end`: shutdown sends the FIN immediately
            # (a bare close would wait on the makefile's reference).
            client._sock.shutdown(socket.SHUT_RDWR)
            client._sock.close()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                status = service.poll(job_id)
                if status["status"] == "failed":
                    break
                time.sleep(0.02)
            assert service.poll(job_id)["status"] == "failed"
            assert "abort" in service.poll(job_id)["error"]
        finally:
            gateway.stop()
            service.shutdown()


class TestStatsVerb:
    """The ``stats`` telemetry verb, and the revision ``welcome`` carries."""

    def test_json_snapshot_over_the_wire(self, fleet):
        service, gateway = fleet
        batches = zipf_batches(tuples=4_000)
        with StreamClient(gateway.host, gateway.port) as client:
            job_id = client.submit_stream("histo", iter(batches),
                                          window_seconds=WINDOW)
            client.result(job_id)
            snapshot = client.stats()
        assert snapshot["jobs"]["completed"] == 1
        assert snapshot["tuples_windowed"] == 4_000
        assert snapshot["gateway"]["batches_ingested"] == len(batches)

    def test_prometheus_body_parses_cleanly(self, fleet):
        from repro.obs.exposition import parse_prometheus

        service, gateway = fleet
        with StreamClient(gateway.host, gateway.port) as client:
            job_id = client.submit_stream(
                "histo", iter(zipf_batches(tuples=4_000)),
                window_seconds=WINDOW)
            client.result(job_id)
            body = client.stats(format="prometheus")
        samples = parse_prometheus(body)
        assert samples[("repro_jobs_total",
                        frozenset({("state", "completed")}))] == 1
        assert samples[("repro_tuples_windowed_total",
                        frozenset())] == 4_000

    def test_unknown_format_is_a_bad_request(self, fleet):
        service, gateway = fleet
        with StreamClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as excinfo:
                client.stats(format="xml")
        assert excinfo.value.code == "bad-request"

    def test_stats_requires_hello_first(self, fleet):
        service, gateway = fleet
        with socket.create_connection(
                (gateway.host, gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(protocol.encode({"type": "stats"}))
            reply = protocol.decode(rfile.readline())
        assert reply["type"] == "error"

    def test_welcome_advertises_protocol_3(self, fleet):
        service, gateway = fleet
        with socket.create_connection(
                (gateway.host, gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(protocol.encode(
                {"type": "hello", "tenant": "default"}))
            welcome = protocol.decode(rfile.readline())
        assert welcome["protocol"] == protocol.PROTOCOL_VERSION == 3
