"""The vetted wall-clock shim and its deterministic-path consumers.

``repro.wallclock`` is the only sanctioned door to host time for
modules on the deterministic dispatch-clock path (enforced by the
``determinism`` lint rule).  These tests pin its consumer sites —
trace wall stamps and the ingest buffer's idle clock and blocking
deadline — to the shim, so shadow replay and tests can fake all of them by
patching one module.
"""

import time

import pytest

from repro import wallclock
from repro.net.buffer import IngestBuffer
from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector


class TestShim:
    def test_now_tracks_host_epoch_time(self):
        before = time.time()
        stamp = wallclock.now()
        after = time.time()
        assert before <= stamp <= after

    def test_monotonic_never_goes_backwards(self):
        readings = [wallclock.monotonic() for _ in range(100)]
        assert readings == sorted(readings)


class TestCollectorUsesShim:
    def test_event_wall_stamp_comes_from_wallclock(self, monkeypatch):
        # Faking the shim must fake every emitted wall stamp — the
        # property shadow replay relies on.
        monkeypatch.setattr(wallclock, "now", lambda: 123.5)
        tracer = TraceCollector(enabled=True)
        tracer.emit(trace_events.JOB_SUBMIT, 7, job_id="j-1")
        (event,) = tracer.events()
        assert event.wall == 123.5
        assert event.clock == 7


class TestBufferUsesShim:
    def test_idle_eviction_reads_the_shim_not_time(self, monkeypatch):
        # The stream is evicted exactly when the shim, not the host, has
        # moved idle_timeout past the first probe: a buffer still reading
        # time.monotonic() would see no time pass and never evict.
        now = [100.0]
        monkeypatch.setattr(wallclock, "monotonic", lambda: now[0])
        buffer = IngestBuffer(idle_timeout=0.2)
        assert not buffer.poll_ready()  # the first probe starts the clock
        now[0] = 100.1
        assert not buffer.poll_ready()
        now[0] = 100.2
        assert buffer.poll_ready()
        with pytest.raises(RuntimeError, match="idle for 0.2s"):
            next(buffer)

    def test_blocking_next_deadline_reads_the_shim(self, monkeypatch):
        # The shim jumps past the deadline after the consumer computes
        # it: the pull fails at once.  A buffer timing its wait with
        # time.monotonic() would block for the whole minute instead.
        readings = iter([100.0, 100.0, 161.0])
        monkeypatch.setattr(wallclock, "monotonic",
                            lambda: next(readings))
        buffer = IngestBuffer(idle_timeout=60.0)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="idle for 60s"):
            next(buffer)
        assert time.monotonic() - started < 5.0
