"""The structured trace-event model shared by every layer.

A :class:`TraceEvent` is one timestamped fact about the serving stack:
a job lifecycle transition, one worker's segment, a control-plane
decision with its regime inputs, a gateway wire event, or a simulator
sample.  Events are deliberately flat — a ``kind`` string, dual
timestamps, the four trace-context fields (``job_id``, ``tenant_id``,
``worker``, ``generation``), and a free-form ``data`` mapping for the
kind-specific payload — so one JSONL line format serves the whole
stack and stays diffable between a capture and a replay.

Dual timestamps
---------------
``clock``
    The deterministic dispatch clock: cumulative tuples the dispatcher
    had handed to the fleet when the event happened (for worker
    segments: when their shard was *dispatched*, which is what makes
    segment spans bit-identical across the inline and process
    backends).  Replay-stable and backend-invariant.
``wall``
    Host wall time in epoch seconds — what operators correlate with
    the outside world.  Never used in deterministic accounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

# --- job lifecycle spans (submit -> admit -> window-close -> segment
# --- -> merge -> complete) ---
JOB_SUBMIT = "job.submit"        #: job accepted into the queue
JOB_ADMIT = "job.admit"          #: dispatcher started the job
JOB_WINDOW = "job.window"        #: one window closed; lists its shards
JOB_SEGMENT = "job.segment"      #: one worker finished one shard
JOB_MERGE = "job.merge"          #: per-worker partials being merged
JOB_COMPLETE = "job.complete"    #: job reached COMPLETED
JOB_FAIL = "job.fail"            #: job reached FAILED
JOB_CANCEL = "job.cancel"        #: job withdrawn before running

# --- control plane (repro.control) ---
CONTROL_DRIFT = "control.drift"          #: drift detected vs the plan
CONTROL_DECISION = "control.decision"    #: replan/hold/freeze verdict
CONTROL_PLAN = "control.plan"            #: greedy plan adopted
CONTROL_RESIZE = "control.resize"        #: autoscaler changed the fleet

# --- network front-end (repro.net) ---
GATEWAY_HELLO = "gateway.hello"  #: connection authenticated (or refused)
GATEWAY_BATCH = "gateway.batch"  #: one batch buffered
GATEWAY_STALL = "gateway.stall"  #: well-behaved client credit-stalled
GATEWAY_SHED = "gateway.shed"    #: flooding client's batch dropped
GATEWAY_ABORT = "gateway.abort"  #: an open stream aborted

# --- execution backend (repro.service.pool / procpool) ---
BACKEND_FORK = "backend.fork"        #: worker minted (inline or fork)
BACKEND_DRAIN = "backend.drain"      #: drain barrier completed
BACKEND_CRASH = "backend.crash"      #: a child process died
BACKEND_RESPAWN = "backend.respawn"  #: crashed child replaced
BACKEND_SHARD_RETRY = "backend.shard.retry"  #: lost shard replayed

# --- shared-memory shard transport (repro.service.shm) ---
BACKEND_SLAB_ALLOC = "backend.slab.alloc"      #: slab segment created
BACKEND_SLAB_REUSE = "backend.slab.reuse"      #: recycled block served
BACKEND_SLAB_RELEASE = "backend.slab.release"  #: slab unlinked


def _registered_kinds() -> frozenset:
    """Every dotted kind constant defined above, collected at import."""
    return frozenset(
        value for name, value in globals().items()
        if name.isupper() and isinstance(value, str) and "." in value
    )


#: The dotted-kind registry: the set of event names this schema admits.
#: ``repro.lint``'s *trace-schema* rule checks every emit site against
#: it statically.  A new subsystem mints a kind by adding a module
#: constant above — the registry picks it up automatically.
KINDS = _registered_kinds()


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes
    ----------
    kind:
        Dotted event name (one of the module constants, or any
        ``layer.event`` string a future subsystem mints).
    clock:
        Deterministic dispatch-clock reading (see the module docs).
        Simulator events reuse the field for the simulated cycle.
    wall:
        Wall-clock epoch seconds at emission.
    job_id / tenant_id / worker / generation:
        Trace context; None where a field does not apply.  ``worker``
        and ``generation`` identify the exact worker incarnation (the
        pool re-mints generations on grow/restart/respawn).
    data:
        Kind-specific payload of JSON-representable scalars.
    """

    kind: str
    clock: int
    wall: float
    job_id: Optional[str] = None
    tenant_id: Optional[str] = None
    worker: Optional[int] = None
    generation: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping; context fields that are None are elided."""
        record: Dict[str, Any] = {
            "kind": self.kind,
            "clock": self.clock,
            "wall": self.wall,
        }
        if self.job_id is not None:
            record["job_id"] = self.job_id
        if self.tenant_id is not None:
            record["tenant_id"] = self.tenant_id
        if self.worker is not None:
            record["worker"] = self.worker
        if self.generation is not None:
            record["generation"] = self.generation
        if self.data:
            record["data"] = self.data
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            kind=record["kind"],
            clock=int(record["clock"]),
            wall=float(record["wall"]),
            job_id=record.get("job_id"),
            tenant_id=record.get("tenant_id"),
            worker=record.get("worker"),
            generation=record.get("generation"),
            data=dict(record.get("data", {})),
        )

    def to_json(self) -> str:
        """One compact JSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"),
                          allow_nan=False)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(line))
