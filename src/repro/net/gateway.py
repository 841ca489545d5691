"""TCP ingestion front-end for :class:`StreamService`.

:class:`StreamGateway` turns the in-process serving fleet into a
network service: clients connect over TCP, authenticate a tenant, and
stream batches into per-job :class:`~repro.net.buffer.IngestBuffer`\\ s
that the service dispatcher (run by the gateway's own dispatcher
thread) consumes.  The wire protocol is newline-delimited JSON with a
binary payload behind each ``batch`` header (:mod:`repro.net.protocol`).

Backpressure is credit based: a tenant may keep at most ``high_water``
batches buffered across its open streams.  Each ``batch`` consumes one
credit and the reply carries the remaining credits; at zero the
well-behaved client stalls on a ``credit`` request, which blocks until
the dispatcher drains the tenant below the mark (counted as a *credit
stall*).  A client that ignores its credits and keeps sending is *shed*:
the batch is dropped with a ``busy`` reply (counted, never buffered), so
gateway memory stays bounded whatever the client does.  Constructing the
gateway with ``high_water=None`` disables backpressure — the baseline
the benchmark measures unbounded growth against.

Threading: one accept thread, one thread per connection, and one
dispatcher thread looping :meth:`StreamService.run`.  Connection
threads only touch the service through its thread-safe client API
(``submit`` / ``poll`` / ``result`` / ``cancel``); the dispatcher
thread is the only one stepping jobs.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net import protocol
from repro.net.buffer import IngestBuffer
from repro.obs import events as trace_events
from repro.service.jobs import DEFAULT_TENANT, QuotaExceededError
from repro.service.server import StreamService
from repro.workloads.streams import TimestampedBatch

#: How long the dispatcher thread naps between empty-queue sweeps, and
#: how often blocked waits (credit, result) re-check for shutdown.
POLL_INTERVAL = 0.005

#: Default cap on buffered batches per tenant (the high-water mark).
DEFAULT_HIGH_WATER = 64


class _TenantGate:
    """One tenant's ingest accounting: open buffers + a wakeup point.

    Lock order, stated here because only this class takes both:
    ``_cond`` first, then ``IngestBuffer._cond`` under it (the put in
    :meth:`admit`, the per-buffer reads of the depth sum).  Never the
    reverse — a buffer calls :meth:`notify` (its ``on_drain``) only
    after it has released its own lock.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._buffers: List[IngestBuffer] = []  # guarded-by: _cond

    def add(self, buffer: IngestBuffer) -> None:
        with self._cond:
            self._buffers.append(buffer)

    def depth(self) -> int:
        """Buffered batches across the tenant's live streams."""
        with self._cond:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        self._buffers = [b for b in self._buffers if not b.drained()]
        return sum(b.depth() for b in self._buffers)

    def admit(self, buffer: IngestBuffer, batch: TimestampedBatch,
              high_water: Optional[int]) -> Tuple[bool, int]:
        """Put ``batch`` unless the tenant already sits at the mark.

        Check-then-put under one acquisition: a tenant streaming over
        several connections must not race two puts past the mark.
        Returns ``(admitted, depth)`` — the depth after the put, or the
        depth that refused it — so one reading serves the over-check,
        the metrics sample and the credit count (the sum prunes and
        walks every live buffer of the tenant, too hot to recompute
        per reply).  A closed ``buffer`` raises the put's
        :class:`RuntimeError`.
        """
        with self._cond:
            depth = self._depth_locked()
            if high_water is not None and depth >= high_water:
                return False, depth
            buffer.put(batch)
            return True, depth + 1

    def wait_below(self, high_water: int, stopped: Callable[[], bool],
                   on_stall: Callable[[], None]) -> None:
        """Block until the tenant is under the mark or ``stopped()``;
        ``on_stall`` runs once, before the first wait."""
        with self._cond:
            stalled = False
            while self._depth_locked() >= high_water and not stopped():
                if not stalled:
                    stalled = True
                    on_stall()
                self._cond.wait(timeout=POLL_INTERVAL * 10)

    def notify(self) -> None:
        with self._cond:
            self._cond.notify_all()


class _Connection:
    """Per-connection state owned by its handler thread."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.tenant: Optional[str] = None
        self.buffers: Dict[str, IngestBuffer] = {}


class StreamGateway:
    """Socket front door of one :class:`StreamService`.

    Parameters
    ----------
    service:
        The fleet to serve.  The gateway runs the service's dispatcher
        in its own thread; callers must not call ``service.run()``
        themselves while the gateway serves.
    host / port:
        Listen address; port 0 binds an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    high_water:
        Per-tenant cap on buffered batches — the backpressure mark.
        None disables backpressure (unlimited credits, never sheds).
    tokens:
        Optional ``{tenant_id: token}`` map.  When given, ``hello`` must
        present the matching token; tenants not in the map are refused.
        None accepts any tenant name unauthenticated (the in-process
        trust model, kept for demos and tests).
    serve:
        Start the dispatcher thread with :meth:`start` (default).  Pass
        False to control dispatch explicitly via :meth:`start_serving`
        (tests freeze the dispatcher to make floods deterministic).
    result_timeout:
        Default seconds a ``result`` request may block server-side.
    idle_timeout:
        Seconds an *open* stream may sit with no buffered batch before
        its job is failed.  The dispatcher never blocks on an empty
        stream — it skips un-ready sources and serves whoever has
        data — so this is purely an eviction policy for clients that
        submit and then go quiet (no batch, no ``end``).  None keeps
        such streams in flight forever.
    max_line_bytes:
        Reject (and disconnect) any header line or batch payload longer
        than this; reads are capped at this length, so a client cannot
        grow gateway memory with an endless unterminated line or a
        payload length it merely declares.
    """

    def __init__(
        self,
        service: StreamService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        high_water: Optional[int] = DEFAULT_HIGH_WATER,
        tokens: Optional[Dict[str, str]] = None,
        serve: bool = True,
        result_timeout: float = 60.0,
        idle_timeout: Optional[float] = 60.0,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
    ) -> None:
        if high_water is not None and high_water < 1:
            raise ValueError("high_water must be at least 1 (or None)")
        if max_line_bytes < 1:
            raise ValueError("max_line_bytes must be positive")
        self.service = service
        self.metrics = service.metrics
        # The service's collector: gateway wire events land in the same
        # trace as the dispatcher's job spans and the control plane's
        # decisions.
        self.tracer = service.tracer
        self.high_water = high_water
        self.tokens = tokens
        self.result_timeout = result_timeout
        self.idle_timeout = idle_timeout
        self.max_line_bytes = max_line_bytes
        self._serve_on_start = serve
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._dispatch_thread: Optional[threading.Thread] = None
        self._dispatch_error: Optional[str] = None
        self._gates: Dict[str, _TenantGate] = {}  # guarded-by: _gates_lock
        self._gates_lock = threading.Lock()
        self._connections: List[_Connection] = []  # guarded-by: _conn_lock
        self._conn_lock = threading.Lock()
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the listener and start accepting (and, by default,
        dispatching)."""
        if self._listener is not None:
            return
        # Re-arm after a previous stop(): a stale stop flag would make
        # the fresh accept/dispatch threads exit immediately, leaving a
        # gateway that accepts TCP connects but never serves.
        self._stop.clear()
        self._listener = socket.create_server((self.host, self.port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(self._listener,),
            name="gateway-accept", daemon=True)
        self._accept_thread.start()
        if self._serve_on_start:
            self.start_serving()

    def start_serving(self) -> None:
        """Start (or resume) the dispatcher thread."""
        if self._dispatch_thread is not None \
                and self._dispatch_thread.is_alive():
            return
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="gateway-dispatch",
            daemon=True)
        self._dispatch_thread.start()

    def stop(self, grace: float = 0.0) -> None:
        """Stop accepting, abort open streams, and join every thread.

        New connections are refused at once.  Connections already open
        then get up to ``grace`` seconds to finish and close on their
        own — the dispatcher keeps serving meanwhile, so a client that
        has ended its stream can still ask for (and be sent) its result
        — before whatever is left is cut.  The default cuts at once.

        The underlying service is left running — its owner shuts it
        down (``service.shutdown()``) when done with the fleet.
        """
        listener, self._listener = self._listener, None
        if listener is not None:
            # Closing a listening socket does not interrupt a blocked
            # accept() on every platform: poke it with a throwaway
            # connection so the accept thread sees it was retired.
            try:
                with socket.create_connection(
                        (self.host, self.port), timeout=1.0):
                    pass
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
        deadline = time.monotonic() + grace
        for thread in list(self._threads):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._stop.set()
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            for job_id, buffer in conn.buffers.items():
                if not buffer.closed:
                    buffer.abort("gateway stopping")
                    if self.tracer.enabled:
                        self.tracer.emit(
                            trace_events.GATEWAY_ABORT,
                            job_id=job_id, tenant_id=conn.tenant,
                            reason="gateway stopping")
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        with self._gates_lock:
            for gate in self._gates.values():
                gate.notify()
        for thread in list(self._threads):
            thread.join(timeout=10.0)
        if self._dispatch_thread is not None:
            self._dispatch_thread.join(timeout=60.0)

    @property
    def address(self) -> str:
        """``host:port`` once started."""
        return f"{self.host}:{self.port}"

    @property
    def dispatch_error(self) -> Optional[str]:
        """Why the dispatcher thread died, or None while it is healthy.

        A dead dispatcher means no job will ever finish again: the CLI
        loop exits on it and pending ``result`` requests are refused
        with a ``dispatcher-error`` reply instead of timing out blind.
        """
        return self._dispatch_error

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        mark = ("off" if self.high_water is None
                else f"{self.high_water} batches/tenant")
        return f"gateway on {self.address} (backpressure {mark})"

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.service.run()
            except Exception as exc:  # noqa: BLE001
                # Surfaced via the dispatch_error property: the CLI
                # loop exits on it and result requests are refused.
                self._dispatch_error = str(exc)
                return
            self._stop.wait(POLL_INTERVAL)

    # ------------------------------------------------------------------
    # Accept / connection threads
    # ------------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed by stop()
            if self._listener is not listener:
                sock.close()  # stop()'s wake-up poke, not a client
                return
            conn = _Connection(sock)
            with self._conn_lock:
                self._connections.append(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="gateway-conn", daemon=True)
            # Keep only live handlers: a long-lived gateway serving many
            # short connections must not pin every dead Thread object.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: _Connection) -> None:
        self.metrics.record_gateway(connections_opened=1)
        reader = protocol.FrameReader(conn.sock.makefile("rb"),
                                      self.max_line_bytes)
        try:
            while True:
                try:
                    message = reader.read()
                except protocol.ProtocolError as exc:
                    self.metrics.record_gateway(
                        bytes_received=reader.frame_bytes,
                        protocol_errors=1)
                    self._send(conn, {"type": "error", "code": "protocol",
                                      "error": str(exc)})
                    if isinstance(exc, protocol.FramingError):
                        break  # where the next frame starts is unknown
                    continue
                if message is None:
                    break
                self.metrics.record_gateway(
                    bytes_received=reader.frame_bytes)
                try:
                    reply = self._handle(conn, message)
                except protocol.ProtocolError as exc:
                    self.metrics.record_gateway(protocol_errors=1)
                    reply = {"type": "error", "code": "protocol",
                             "error": str(exc)}
                if reply is not None:
                    self._send(conn, reply)
                if message["type"] == "bye":
                    break
        except (OSError, ValueError):
            pass  # connection torn down mid-read
        finally:
            # A vanished client must not leave the dispatcher waiting on
            # a stream that will never end: abort still-open streams so
            # their jobs fail through the normal source-error path.
            for job_id, buffer in conn.buffers.items():
                if not buffer.closed:
                    buffer.abort("client connection lost")
                    if self.tracer.enabled:
                        self.tracer.emit(
                            trace_events.GATEWAY_ABORT,
                            job_id=job_id, tenant_id=conn.tenant,
                            reason="client connection lost")
            if conn.tenant is not None:
                self._gate(conn.tenant).notify()
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            try:
                conn.sock.close()
            except OSError:
                pass
            self.metrics.record_gateway(connections_closed=1)

    def _send(self, conn: _Connection, reply: Dict[str, Any]) -> None:
        payload = protocol.encode(reply)
        conn.sock.sendall(payload)
        self.metrics.record_gateway(bytes_sent=len(payload))

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _handle(self, conn: _Connection,
                message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        kind = message["type"]
        if kind == "hello":
            return self._on_hello(conn, message)
        if kind == "bye":
            return {"type": "ack"}
        if conn.tenant is None:
            return {"type": "error", "code": "hello-required",
                    "error": "send hello before anything else"}
        handlers = {
            "submit": self._on_submit,
            "batch": self._on_batch,
            "end": self._on_end,
            "credit": self._on_credit,
            "poll": self._on_poll,
            "result": self._on_result,
            "cancel": self._on_cancel,
            "stats": self._on_stats,
        }
        handler = handlers.get(kind)
        if handler is None:
            self.metrics.record_gateway(protocol_errors=1)
            return {"type": "error", "code": "protocol",
                    "error": f"unknown message type {kind!r}"}
        return handler(conn, message)

    def _on_hello(self, conn: _Connection,
                  message: Dict[str, Any]) -> Dict[str, Any]:
        if conn.tenant is not None:
            # Rebinding the tenant mid-connection would leave streams
            # opened under the old tenant registered in its gate while
            # new batches are credit-checked against the new one,
            # corrupting per-tenant backpressure accounting (and
            # letting a client re-auth without closing its streams).
            self.metrics.record_gateway(protocol_errors=1)
            return {"type": "error", "code": "protocol",
                    "error": "hello already accepted on this "
                             "connection; reconnect to change tenant"}
        tenant = message.get("tenant") or DEFAULT_TENANT
        if self.tokens is not None:
            expected = self.tokens.get(tenant)
            if expected is None or message.get("token") != expected:
                if self.tracer.enabled:
                    self.tracer.emit(trace_events.GATEWAY_HELLO,
                                     tenant_id=tenant, accepted=False)
                return {"type": "error", "code": "auth",
                        "error": f"bad credentials for tenant {tenant!r}"}
        conn.tenant = tenant
        if self.tracer.enabled:
            self.tracer.emit(trace_events.GATEWAY_HELLO,
                             tenant_id=tenant, accepted=True,
                             credits=self._credits(tenant))
        return {
            "type": "welcome",
            "protocol": protocol.PROTOCOL_VERSION,
            "tenant": tenant,
            "high_water": self.high_water,
            "credits": self._credits(tenant),
        }

    def _on_submit(self, conn: _Connection,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        gate = self._gate(conn.tenant)
        buffer = IngestBuffer(on_drain=gate.notify,
                              idle_timeout=self.idle_timeout)
        try:
            job_id = self.service.submit(
                message.get("app", ""),
                buffer,
                priority=int(message.get("priority", 0)),
                deadline=message.get("deadline"),
                window_seconds=float(
                    message.get("window_seconds", 4e-6)),
                params=message.get("params"),
                job_id=message.get("job_id"),
                tenant_id=conn.tenant,
            )
        except QuotaExceededError as exc:
            return {"type": "error", "code": "quota", "error": str(exc)}
        except (ValueError, TypeError) as exc:
            return {"type": "error", "code": "bad-request",
                    "error": str(exc)}
        conn.buffers[job_id] = buffer
        gate.add(buffer)
        return {"type": "accepted", "job_id": job_id,
                "credits": self._credits(conn.tenant)}

    def _on_batch(self, conn: _Connection,
                  message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job_id")
        buffer = conn.buffers.get(job_id)
        if buffer is None or buffer.closed:
            return {"type": "error", "code": "unknown-job",
                    "error": f"no open stream for job {job_id!r}"}
        batch = protocol.decode_batch(message)
        try:
            admitted, depth = self._gate(conn.tenant).admit(
                buffer, batch, self.high_water)
        except RuntimeError:
            # Aborted between the closed check above and the put
            # (gateway stop or connection teardown from another
            # thread): refuse coherently instead of killing the
            # handler thread.
            self.metrics.record_gateway(protocol_errors=1)
            return {"type": "error", "code": "closed-stream",
                    "error": f"stream for job {job_id!r} closed while "
                             "the batch was in flight"}
        if not admitted:
            # The client out-ran its credits: shed, never buffer.  The
            # batch is gone — the client decides whether to retry after
            # a credit wait or to accept the loss.
            self.metrics.record_gateway(batches_shed=1)
            self.metrics.sample_ingest_depth(depth)
            if self.tracer.enabled:
                self.tracer.emit(
                    trace_events.GATEWAY_SHED,
                    job_id=job_id, tenant_id=conn.tenant,
                    tuples=len(batch), depth=depth)
            return {"type": "busy", "job_id": job_id, "credits": 0}
        self.metrics.record_gateway(batches_ingested=1,
                                    tuples_ingested=len(batch))
        self.metrics.sample_ingest_depth(depth)
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.GATEWAY_BATCH,
                job_id=job_id, tenant_id=conn.tenant,
                tuples=len(batch), depth=depth)
        credits = (protocol.UNLIMITED_CREDITS if self.high_water is None
                   else max(0, self.high_water - depth))
        return {"type": "ack", "job_id": job_id, "credits": credits}

    def _on_end(self, conn: _Connection,
                message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job_id")
        buffer = conn.buffers.pop(job_id, None)
        if buffer is None:
            return {"type": "error", "code": "unknown-job",
                    "error": f"no open stream for job {job_id!r}"}
        buffer.close()
        return {"type": "ack", "job_id": job_id}

    def _on_credit(self, conn: _Connection,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        if self.high_water is None:
            return {"type": "credit",
                    "credits": protocol.UNLIMITED_CREDITS}

        def on_stall() -> None:
            self.metrics.record_gateway(credit_stalls=1)
            if self.tracer.enabled:
                self.tracer.emit(trace_events.GATEWAY_STALL,
                                 tenant_id=conn.tenant,
                                 high_water=self.high_water)

        self._gate(conn.tenant).wait_below(
            self.high_water, self._stop.is_set, on_stall)
        return {"type": "credit", "credits": self._credits(conn.tenant)}

    def _on_poll(self, conn: _Connection,
                 message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            status = self.service.poll(message.get("job_id", ""))
        except KeyError as exc:
            return {"type": "error", "code": "unknown-job",
                    "error": str(exc.args[0])}
        return {"type": "status", **status}

    def _on_result(self, conn: _Connection,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job_id", "")
        timeout = float(message.get("timeout") or self.result_timeout)
        deadline = time.monotonic() + timeout
        while True:
            try:
                status = self.service.poll(job_id)
            except KeyError as exc:
                return {"type": "error", "code": "unknown-job",
                        "error": str(exc.args[0])}
            if status["status"] == "completed":
                result = self.service.result(job_id)
                return {
                    "type": "result",
                    "job_id": job_id,
                    "app": result.app,
                    "tenant": result.tenant_id,
                    "result": protocol.to_wire(result.result),
                    "tuples": result.tuples,
                    "cycles": result.cycles,
                    "segments": result.segments,
                    "late_tuples": result.late_tuples,
                    "queue_delay": result.queue_delay,
                }
            if status["status"] in ("failed", "cancelled"):
                return {"type": "error", "code": status["status"],
                        "job_id": job_id,
                        "error": status["error"] or status["status"]}
            if self._dispatch_error is not None:
                # The dispatcher thread died: no job will ever finish.
                # Refuse instead of letting the client time out blind.
                return {"type": "error", "code": "dispatcher-error",
                        "job_id": job_id,
                        "error": "dispatcher died: "
                                 f"{self._dispatch_error}"}
            if self._stop.is_set() or time.monotonic() >= deadline:
                return {"type": "error", "code": "timeout",
                        "job_id": job_id,
                        "error": f"job {job_id} still "
                                 f"{status['status']} after {timeout}s"}
            time.sleep(POLL_INTERVAL)

    def _on_cancel(self, conn: _Connection,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job_id", "")
        try:
            cancelled = self.service.cancel(job_id)
        except KeyError:
            cancelled = False
        if cancelled:
            buffer = conn.buffers.pop(job_id, None)
            if buffer is not None:
                # Abort, not close: a cancelled job never runs, so a
                # closed buffer's batches would sit undrained and pin
                # the tenant's high-water credits forever.  abort()
                # drops them and the gate forgets the stream.
                buffer.abort("job cancelled")
                self._gate(conn.tenant).notify()
                if self.tracer.enabled:
                    self.tracer.emit(
                        trace_events.GATEWAY_ABORT,
                        job_id=job_id, tenant_id=conn.tenant,
                        reason="job cancelled")
        return {"type": "ack", "job_id": job_id, "cancelled": cancelled}

    def _on_stats(self, conn: _Connection,
                  message: Dict[str, Any]) -> Dict[str, Any]:
        """Serve the service's telemetry snapshot over the wire.

        ``format: "prometheus"`` returns the text exposition (the
        scrape endpoint — point a Prometheus file/exec probe, or
        ``repro stats``, at it); the default ``"json"`` returns the raw
        :meth:`ServiceMetrics.snapshot` dict.  Either way the numbers
        come from one consistent snapshot.
        """
        fmt = message.get("format", "json")
        if fmt == "prometheus":
            return {"type": "stats", "format": "prometheus",
                    "body": self.service.metrics.to_prometheus()}
        if fmt != "json":
            self.metrics.record_gateway(protocol_errors=1)
            return {"type": "error", "code": "bad-request",
                    "error": f"unknown stats format {fmt!r} "
                             "(json | prometheus)"}
        return {"type": "stats", "format": "json",
                "snapshot": self.service.metrics.snapshot()}

    # ------------------------------------------------------------------
    # Credit accounting
    # ------------------------------------------------------------------
    def _gate(self, tenant_id: str) -> _TenantGate:
        with self._gates_lock:
            gate = self._gates.get(tenant_id)
            if gate is None:
                gate = _TenantGate()
                self._gates[tenant_id] = gate
            return gate

    def _credits(self, tenant_id: str) -> int:
        """Batches the tenant may still send before stalling."""
        if self.high_water is None:
            return protocol.UNLIMITED_CREDITS
        return max(0, self.high_water - self._gate(tenant_id).depth())
