"""Per-job ingest buffer between a client connection and the dispatcher.

An :class:`IngestBuffer` is the job's ``source`` iterable handed to
:meth:`StreamService.submit`: the gateway's connection thread *puts*
decoded batches, the dispatcher thread *iterates* them out.  The buffer
itself never blocks producers — capacity policy (the per-tenant
high-water mark) lives in the gateway, which sheds a batch *before*
putting it rather than buffering unboundedly.  Consumers block until a
batch arrives, the stream is closed (iteration ends) or aborted (the
iterator raises, failing the job through the dispatcher's normal
source-error path).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Iterator, Optional

from repro import wallclock
from repro.workloads.streams import TimestampedBatch


class IngestBuffer:
    """Thread-safe FIFO of :class:`TimestampedBatch` feeding one job.

    Parameters
    ----------
    on_drain:
        Called (outside the buffer lock) after a consumer takes a batch;
        the gateway uses it to wake credit-stalled producers.
    idle_timeout:
        Seconds an *open* stream may sit with nothing buffered before
        it is declared dead.  The service dispatcher is a single thread
        pulling every in-flight job's source, so it never blocks here:
        it probes :meth:`poll_ready` and skips streams with no batch.
        A stream that stays empty-and-open past the timeout is aborted
        by the probe (the next pull raises, failing the job), evicting
        clients that submit and then go quiet — no batch, no ``end``,
        connection still up.  None keeps such streams waiting forever.
        The timeout also bounds a direct blocking :meth:`__next__` for
        consumers that do not probe first.
    """

    def __init__(self, on_drain: Optional[Callable[[], None]] = None,
                 idle_timeout: Optional[float] = None) -> None:
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive (or None)")
        self._items: Deque[TimestampedBatch] = deque()  # guarded-by: _cond
        self._cond = threading.Condition()
        self._closed = False  # guarded-by: _cond
        self._abort_reason: Optional[str] = None  # guarded-by: _cond
        self._on_drain = on_drain
        self._idle_timeout = idle_timeout
        self._probed = False  # guarded-by: _cond
        self._last_activity = wallclock.monotonic()  # guarded-by: _cond
        self.batches_in = 0
        self.tuples_in = 0
        self.depth_peak = 0

    # ------------------------------------------------------------------
    # Producer side (gateway connection thread)
    # ------------------------------------------------------------------
    def put(self, batch: TimestampedBatch) -> None:
        """Append one batch; raises once the stream is closed/aborted."""
        with self._cond:
            if self._closed or self._abort_reason is not None:
                raise RuntimeError("ingest stream is closed")
            self._items.append(batch)
            self._last_activity = wallclock.monotonic()
            self.batches_in += 1
            self.tuples_in += len(batch)
            self.depth_peak = max(self.depth_peak, len(self._items))
            self._cond.notify_all()

    def close(self) -> None:
        """End of stream: buffered batches still drain, then iteration
        stops (the job's windows flush and it completes)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def abort(self, reason: str) -> None:
        """Poison the stream (connection lost, gateway stopping): the
        consumer raises immediately, failing the job deterministically
        instead of serving a silently truncated stream.

        Undelivered batches are dropped: the job fails either way, and
        keeping them would pin the tenant's credit accounting (the
        gateway counts buffered depth against the high-water mark) on a
        stream that can never drain.
        """
        with self._cond:
            if self._abort_reason is None:
                self._abort_reason = reason
            self._items.clear()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Consumer side (service dispatcher thread)
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TimestampedBatch]:
        return self

    def __next__(self) -> TimestampedBatch:
        with self._cond:
            deadline = (None if self._idle_timeout is None
                        else wallclock.monotonic() + self._idle_timeout)
            while True:
                if self._abort_reason is not None:
                    raise RuntimeError(
                        f"ingest stream aborted: {self._abort_reason}")
                if self._items:
                    item = self._items.popleft()
                    # The idle clock measures how long the *next* batch
                    # has been owed; it restarts at every consumption.
                    self._last_activity = wallclock.monotonic()
                    break
                if self._closed:
                    raise StopIteration
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - wallclock.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        "ingest stream idle for "
                        f"{self._idle_timeout:g}s (client stopped "
                        "streaming without `end`)")
                self._cond.wait(timeout=remaining)
        if self._on_drain is not None:
            self._on_drain()
        return item

    def poll_ready(self) -> bool:
        """Non-blocking readiness probe for the service dispatcher.

        True when :meth:`__next__` would return (or raise) without
        blocking: a batch is buffered, the stream ended, or it was
        aborted.  An empty, still-open stream is not ready — the
        dispatcher skips it and serves whoever has data — unless it
        has sat idle past ``idle_timeout``, in which case the stream
        is aborted here (the probe reports ready and the next pull
        fails the job through the normal source-error path).
        """
        with self._cond:
            if self._items or self._closed \
                    or self._abort_reason is not None:
                return True
            if not self._probed:
                # The idle clock measures how long the *consumer* has
                # been kept waiting, so it starts at the first probe
                # (job activation), not at construction: a job that
                # sat queued longer than idle_timeout must not be
                # evicted before its client could stream anything.
                self._probed = True
                self._last_activity = wallclock.monotonic()
                return False
            if self._idle_timeout is not None and (
                    wallclock.monotonic() - self._last_activity
                    >= self._idle_timeout):
                self._abort_reason = (
                    f"idle for {self._idle_timeout:g}s (client "
                    "stopped streaming without `end`)")
                self._cond.notify_all()
                return True
            return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Batches currently buffered."""
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed or self._abort_reason is not None

    def drained(self) -> bool:
        """True once the stream ended and every batch was consumed."""
        with self._cond:
            return not self._items and (
                self._closed or self._abort_reason is not None)
