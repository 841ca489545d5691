"""Lock-cheap trace collection: a ring buffer plus pluggable sinks.

The collector is built to sit on hot paths (the dispatcher's per-window
loop, the procpool shard transport, the gateway's per-batch handler)
without being felt when tracing is off:

* callers guard on ``if tracer.enabled:`` — one attribute read — before
  building any event, so the disabled cost is a single branch;
* when enabled, :meth:`TraceCollector.emit` appends to a bounded
  :class:`collections.deque` (append is atomic under the GIL — no lock
  on the recording path) and forwards to sinks, each of which does its
  own synchronisation.

Sinks are pluggable: :class:`MemorySink` for tests and in-process
analysis, :class:`JsonlSink` for capture files that ``repro trace``
(and, later, shadow replay) consume.
"""

from __future__ import annotations

import io
import threading
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Deque, List, Optional

from repro import wallclock
from repro.obs.events import TraceEvent

#: Default ring capacity: the newest events an operator can pull from a
#: live service without having attached a sink beforehand.
DEFAULT_CAPACITY = 65_536


class TraceSink(ABC):
    """Where emitted events go (beyond the collector's own ring)."""

    @abstractmethod
    def write(self, event: TraceEvent) -> None:
        """Persist one event (called on the emitting thread)."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class MemorySink(TraceSink):
    """Collects every event in a list — tests and in-process analysis."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlSink(TraceSink):
    """Appends events to a JSONL file, one event per line.

    The file is opened lazily on the first event and writes are
    serialized under a sink-local lock (several threads emit).  Lines
    are flushed per event — capture files must survive a crash, which
    is half the point of capturing.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file: Optional[io.TextIOBase] = None  # guarded-by: _lock
        self._lock = threading.Lock()
        self.written = 0  # guarded-by: _lock

    def write(self, event: TraceEvent) -> None:
        line = event.to_json()
        with self._lock:
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class TraceCollector:
    """Bounded in-memory trace with pluggable sinks.

    Parameters
    ----------
    capacity:
        Ring size; the oldest events fall off the back (sinks still saw
        them — the ring bounds *memory*, not capture).
    enabled:
        Initial state.  Disabled is the default everywhere: tracing is
        opt-in per service.
    clock:
        Optional zero-argument callable returning the deterministic
        clock, used when an ``emit`` caller passes ``clock=None``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False, clock=None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        #: Hot-path guard: read this before building event arguments.
        self.enabled = bool(enabled)
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self._sinks: List[TraceSink] = []
        self._clock = clock
        self.emitted = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def bind_clock(self, clock) -> None:
        """Install the deterministic clock source (the service does)."""
        self._clock = clock

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach a sink; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def close(self) -> None:
        """Close every sink (the ring stays readable)."""
        for sink in self._sinks:
            sink.close()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(  # hot-path
        self,
        kind: str,
        clock: Optional[int] = None,
        *,
        job_id: Optional[str] = None,
        tenant_id: Optional[str] = None,
        worker: Optional[int] = None,
        generation: Optional[int] = None,
        **data: Any,
    ) -> None:
        """Record one event (no-op while disabled).

        ``clock=None`` reads the bound deterministic clock; hot paths
        that already hold a reading pass it explicitly.
        """
        if not self.enabled:
            return
        if clock is None:
            clock = self._clock() if self._clock is not None else 0
        self.record(TraceEvent(
            kind=kind,
            clock=int(clock),
            wall=wallclock.now(),
            job_id=job_id,
            tenant_id=tenant_id,
            worker=worker,
            generation=generation,
            data=data,
        ))

    def record(self, event: TraceEvent) -> None:  # hot-path
        """Record a pre-built event (no-op while disabled)."""
        if not self.enabled:
            return
        self._ring.append(event)
        self.emitted += 1
        for sink in self._sinks:
            sink.write(event)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Snapshot of the ring, oldest first; ``kind`` may be a full
        event name or a ``layer.`` prefix filter."""
        events = list(self._ring)
        if kind is None:
            return events
        if kind.endswith("."):
            return [e for e in events if e.kind.startswith(kind)]
        return [e for e in events if e.kind == kind]

    def clear(self) -> None:
        """Drop the ring's contents (sinks are untouched)."""
        self._ring.clear()

    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring's back."""
        return self.emitted - len(self._ring)

    def describe(self) -> str:
        """One-line summary for logs."""
        state = "on" if self.enabled else "off"
        return (f"tracing {state} ({self.emitted} events, "
                f"{len(self._sinks)} sinks, ring {self.capacity})")
