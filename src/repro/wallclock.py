"""The vetted wall-clock shim: the one sanctioned door to host time.

Modules on the deterministic dispatch-clock path (``service.server``,
``service.queue``, ``service.metrics``, ``control.*``, ``obs.*`` — the
set ``repro.lint``'s *determinism* rule enforces) must not call
``time.time()`` / ``time.monotonic()`` / ``datetime.now()`` directly:
raw wall-clock reads are exactly how replay divergence creeps into a
stack whose results are supposed to be bit-identical across backends
and re-runs.  Wall time they legitimately need — operator-facing event
stamps, socket/condition timeouts — goes through this module instead,
so every wall-clock dependency is grep-able, auditable, and (for the
ROADMAP's WAL/shadow-replay item) fakeable in one place.

Two functions, mirroring the two legitimate uses:

``now()``
    Epoch seconds — *labels* for humans and log correlation (the
    ``wall`` field of :class:`~repro.obs.events.TraceEvent`).  Never an
    input to scheduling, accounting, or results.

``monotonic()``
    Monotonic seconds — *timeouts and waits* (the ingest buffer's idle
    probe, the shared-memory arena's write deadline).  Affects when
    Python threads wake, never what the deterministic dispatch clock or
    any result contains.

Shadow replay can later substitute both (e.g. replaying a capture's
recorded ``wall`` stamps) by patching this module alone.
"""

from __future__ import annotations

import time as _time


def now() -> float:
    """Host wall time in epoch seconds (labels only, never results)."""
    return _time.time()


def monotonic() -> float:
    """Monotonic seconds for timeouts and waits (never results)."""
    return _time.monotonic()
