"""Client library for the :class:`~repro.net.gateway.StreamGateway`.

:class:`StreamClient` is the well-behaved counterpart of the gateway's
credit protocol: it tracks the credits each reply carries and, at zero,
stalls on a ``credit`` request instead of flooding (``send_batch`` with
``wait=False`` skips the stall — the over-admitting client the
backpressure benchmark exercises).  Requests are synchronous — one
request frame, one reply line — so a single client observes a totally
ordered view of its own streams.

.. code-block:: python

    with StreamClient(host, port, tenant="alice") as client:
        job = client.submit("histo", window_seconds=2.56e-6)
        for batch in chunk_stream(dataset, 4_000):
            client.send_batch(job, batch)
        client.end(job)
        result = client.result(job)   # JobResult, bit-identical to
                                      # an in-process submit
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Iterable, Optional

from repro.net import protocol
from repro.service.jobs import (
    DEFAULT_TENANT,
    JobResult,
    QuotaExceededError,
)
from repro.workloads.streams import TimestampedBatch

#: Extra seconds of socket deadline granted to a ``result`` request
#: beyond the server-side wait, so the gateway's graceful reply
#: (result / timeout / error) wins the race against socket.timeout.
RESULT_TIMEOUT_MARGIN = 5.0


class GatewayError(RuntimeError):
    """The gateway refused a request (carries the wire error code)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class StreamClient:
    """One authenticated connection to a :class:`StreamGateway`.

    Parameters
    ----------
    host / port:
        Gateway address.
    tenant:
        Tenant to authenticate as (the gateway's default tenant when
        omitted).
    token:
        Credential for gateways running with a token map.
    timeout:
        Socket timeout in seconds for connect and each reply.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = DEFAULT_TENANT,
        token: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.tenant = tenant
        self._timeout = timeout
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self.shed_batches = 0
        self.credit_stalls = 0
        welcome = self._request(
            {"type": "hello", "tenant": tenant, "token": token})
        if welcome["type"] != "welcome":
            self.close()
            raise GatewayError(welcome.get("code", "error"),
                               welcome.get("error", "hello refused"))
        if welcome.get("protocol") != protocol.PROTOCOL_VERSION:
            # A gateway of another revision would misread the batch
            # frames (or this client its replies): refuse up front.
            self.close()
            raise GatewayError(
                "protocol",
                f"gateway speaks protocol {welcome.get('protocol')!r}, "
                f"this client {protocol.PROTOCOL_VERSION}")
        #: Remaining write credits; ``-1`` means unlimited.
        self.credits: int = welcome["credits"]
        self.high_water: Optional[int] = welcome.get("high_water")

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # One sendall per frame, header and payload together: two
        # writes before the read would stall on Nagle + delayed ACK.
        with self._lock:
            self._sock.sendall(protocol.encode(message))
            line = self._rfile.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return protocol.decode(line)

    @staticmethod
    def _raise_on_error(reply: Dict[str, Any]) -> Dict[str, Any]:
        if reply["type"] == "error":
            code = reply.get("code", "error")
            message = reply.get("error", "request refused")
            if code == "quota":
                raise QuotaExceededError(message)
            raise GatewayError(code, message)
        return reply

    def close(self) -> None:
        try:
            self._sock.sendall(protocol.encode({"type": "bye"}))
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "StreamClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Job API
    # ------------------------------------------------------------------
    def submit(
        self,
        app: str,
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        window_seconds: float = 4e-6,
        params: Optional[Dict[str, Any]] = None,
        job_id: Optional[str] = None,
    ) -> str:
        """Open a streaming job; returns the server-assigned job id."""
        reply = self._raise_on_error(self._request({
            "type": "submit",
            "app": app,
            "priority": priority,
            "deadline": deadline,
            "window_seconds": window_seconds,
            "params": params or {},
            "job_id": job_id,
        }))
        self.credits = reply["credits"]
        return reply["job_id"]

    def send_batch(self, job_id: str, batch: TimestampedBatch,
                   wait: bool = True) -> bool:
        """Stream one batch; returns True once the gateway buffered it.

        ``wait=True`` (default) honours the credit protocol: at zero
        credits the call stalls on the gateway until capacity frees,
        and a ``busy`` reply (the locally-cached credit count can be
        stale — another connection of the same tenant may have consumed
        the capacity first) stalls and *resends*, so the batch is never
        lost and the call never returns False.  ``wait=False`` sends
        exactly once regardless and reports a shed batch as False — the
        flooding client.
        """
        message = {
            "type": "batch",
            "job_id": job_id,
            **protocol.batch_payload(batch),
        }
        while True:
            if wait and self.credits == 0:
                self.wait_credit()
            reply = self._raise_on_error(self._request(message))
            self.credits = reply["credits"]
            if reply["type"] != "busy":
                return True
            if not wait:
                self.shed_batches += 1
                return False
            self.wait_credit()

    def wait_credit(self) -> int:
        """Block until the gateway grants write credits again."""
        self.credit_stalls += 1
        reply = self._raise_on_error(self._request({"type": "credit"}))
        self.credits = reply["credits"]
        return self.credits

    def end(self, job_id: str) -> None:
        """Close the job's stream (buffered batches still drain)."""
        self._raise_on_error(
            self._request({"type": "end", "job_id": job_id}))

    def submit_stream(
        self,
        app: str,
        source: Iterable[TimestampedBatch],
        **submit_kwargs: Any,
    ) -> str:
        """Submit a job and stream a whole source through it."""
        job_id = self.submit(app, **submit_kwargs)
        for batch in source:
            self.send_batch(job_id, batch, wait=True)
        self.end(job_id)
        return job_id

    def poll(self, job_id: str) -> Dict[str, Any]:
        """The server's status snapshot for one job."""
        reply = self._raise_on_error(
            self._request({"type": "poll", "job_id": job_id}))
        return {k: v for k, v in reply.items() if k != "type"}

    def result(self, job_id: str,
               timeout: Optional[float] = None) -> JobResult:
        """Block until the job completes; returns its
        :class:`~repro.service.jobs.JobResult` (arrays restored).

        ``timeout`` bounds the *server-side* wait (the connection's
        default timeout when omitted); the socket deadline is widened
        past it for the duration of the call, so a slow job surfaces
        as the protocol's graceful ``timeout`` error, not a raw
        ``socket.timeout`` mid-read.
        """
        wait = self._timeout if timeout is None else timeout
        previous = self._sock.gettimeout()
        if wait is not None:
            self._sock.settimeout(wait + RESULT_TIMEOUT_MARGIN)
        try:
            reply = self._raise_on_error(self._request({
                "type": "result", "job_id": job_id, "timeout": wait}))
        finally:
            if wait is not None:
                self._sock.settimeout(previous)
        return JobResult(
            job_id=reply["job_id"],
            app=reply["app"],
            result=protocol.from_wire(reply["result"]),
            tuples=reply["tuples"],
            cycles=reply["cycles"],
            segments=reply["segments"],
            late_tuples=reply["late_tuples"],
            tenant_id=reply["tenant"],
            queue_delay=reply["queue_delay"],
        )

    def cancel(self, job_id: str) -> bool:
        """Withdraw a still-queued job."""
        reply = self._raise_on_error(
            self._request({"type": "cancel", "job_id": job_id}))
        return bool(reply["cancelled"])

    def stats(self, format: str = "json") -> Any:
        """The service's telemetry snapshot.

        ``format="json"`` (default) returns the raw
        :meth:`~repro.service.metrics.ServiceMetrics.snapshot` dict;
        ``format="prometheus"`` returns the text exposition a
        Prometheus scraper parses.
        """
        reply = self._raise_on_error(
            self._request({"type": "stats", "format": format}))
        if format == "prometheus":
            return reply["body"]
        return reply["snapshot"]
