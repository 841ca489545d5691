"""Tunable knobs of the ``repro.lint`` checkers.

Rules read every project-specific fact — which modules sit on the
deterministic dispatch-clock path, which calls count as wall-clock
reads, which operations are copies a hot path must not pay — from one
:class:`LintConfig` value, so tests can point a rule at a fixture file
with a custom config instead of having to mimic the real tree's
layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Modules on the deterministic dispatch-clock path.  Entries ending in
#: ``.`` are package prefixes; anything else must match exactly.  The
#: *determinism* rule bans raw wall-clock and unseeded-RNG calls here —
#: they may only enter through :mod:`repro.wallclock`.
DETERMINISTIC_MODULES: Tuple[str, ...] = (
    "repro.service.server",
    "repro.service.dispatcher",
    "repro.service.queue",
    "repro.service.metrics",
    "repro.service.pool",
    "repro.service.procpool",
    "repro.service.shm",
    "repro.service.balancer",
    "repro.control.",
    "repro.obs.",
)

#: Raw wall-clock reads (fully-qualified) the determinism rule bans.
BANNED_CLOCK_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: Copying calls (fully-qualified) banned inside ``# hot-path`` bodies.
HOT_BANNED_CALLS: Tuple[str, ...] = (
    "pickle.dumps",
    "pickle.dump",
    "pickle.loads",
    "pickle.load",
    "marshal.dumps",
    "marshal.dump",
    "marshal.loads",
    "marshal.load",
    "copy.deepcopy",
    "copy.copy",
    "numpy.array",
    "numpy.copy",
    "numpy.ascontiguousarray",
    "numpy.asfortranarray",
    "numpy.concatenate",
    "numpy.stack",
    "numpy.vstack",
    "numpy.hstack",
    "numpy.tile",
    "numpy.repeat",
)

#: Copying *method* names banned inside ``# hot-path`` bodies,
#: whatever the receiver (``shard.keys.tobytes()``, ``arr.copy()``...).
HOT_BANNED_METHODS: Tuple[str, ...] = (
    "tobytes",
    "tolist",
    "copy",
    "deepcopy",
    "dumps",
)

#: Allocating builtins banned inside ``# hot-path`` bodies.
HOT_BANNED_BUILTINS: Tuple[str, ...] = (
    "bytes",
    "bytearray",
)


@dataclass(frozen=True)
class LintConfig:
    """One immutable bundle of every rule's knobs (defaults = the repo)."""

    # --- determinism ---
    deterministic_modules: Tuple[str, ...] = DETERMINISTIC_MODULES
    wallclock_module: str = "repro.wallclock"
    banned_clock_calls: Tuple[str, ...] = BANNED_CLOCK_CALLS

    # --- hot-path ---
    hot_banned_calls: Tuple[str, ...] = HOT_BANNED_CALLS
    hot_banned_methods: Tuple[str, ...] = HOT_BANNED_METHODS
    hot_banned_builtins: Tuple[str, ...] = HOT_BANNED_BUILTINS

    # --- trace-schema ---
    #: Module holding the dotted-kind registry constants.
    trace_events_module: str = "repro.obs.events"

    # --- guarded-by inference ---
    #: An undeclared attribute is inferred lock-guarded when at least
    #: ``guard_min_locked`` accesses happen under a lock and they make
    #: up at least ``guard_ratio`` of all its (non-``__init__``)
    #: accesses; the remaining unlocked accesses are then flagged.
    guard_min_locked: int = 3
    guard_ratio: float = 0.75


#: The default configuration used by the CLI and the self-check test.
DEFAULT_CONFIG = LintConfig()
