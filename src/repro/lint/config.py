"""Project-specific facts of the ``repro.lint`` checkers.

Which calls count as wall-clock reads, which operations are copies a
hot path must not pay, where the trace-kind registry lives: constants
here, read directly by their rule.  The one thing a caller varies is
which modules sit on the deterministic dispatch-clock path
(:class:`LintConfig`), so tests can point the determinism rule at a
fixture file instead of having to mimic the real tree's layout.
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


#: The vetted host-time shim: the one module allowed the raw clock, and
#: where the determinism rule tells everyone else to go.
WALLCLOCK_MODULE = "repro.wallclock"

#: Module holding the dotted-kind registry constants (*trace-schema*).
TRACE_EVENTS_MODULE = "repro.obs.events"

#: *guarded-by* inference: an undeclared attribute is inferred
#: lock-guarded when at least ``GUARD_MIN_LOCKED`` accesses happen under
#: a lock and they make up at least ``GUARD_RATIO`` of all its
#: (non-``__init__``) accesses; the remaining unlocked accesses are then
#: flagged.
GUARD_MIN_LOCKED = 3
GUARD_RATIO = 0.75


@dataclass(frozen=True)
class LintConfig:
    """What a caller may point elsewhere (default = the repo): tests
    name their fixture files as clock-path modules."""

    deterministic_modules: Tuple[str, ...] = DETERMINISTIC_MODULES


#: The default configuration used by the CLI and the self-check test.
DEFAULT_CONFIG = LintConfig()
