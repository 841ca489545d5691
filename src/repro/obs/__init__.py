"""`repro.obs`: structured tracing and telemetry for the serving stack.

One event schema covers every layer — job lifecycle spans in the
dispatcher, control-plane decisions, gateway wire events, execution
backend lifecycle, and the cycle-level simulator's occupancy /
throughput traces — so a single captured JSONL file can answer "why was
tenant B's p95 bad at window 412" after the fact, and can later be
replayed against a candidate plan (the WAL / shadow-replay roadmap
items consume this format).

Every :class:`TraceEvent` carries **dual timestamps**: ``clock`` is the
deterministic dispatch clock (cumulative dispatched tuples — replay
stable and identical across execution backends) and ``wall`` is host
wall time (what an operator's dashboard plots).  Collection is a
lock-cheap ring buffer (:class:`TraceCollector`) with pluggable sinks;
tracing is near-free when disabled — hot paths guard on one attribute
read before building any event.
"""

from repro.obs.analyze import (
    decision_log,
    read_jsonl,
    render_breakdown,
    stage_breakdown,
    write_jsonl,
)
from repro.obs.collector import (
    JsonlSink,
    MemorySink,
    TraceCollector,
    TraceSink,
)
from repro.obs.events import (
    BACKEND_CRASH,
    BACKEND_DRAIN,
    BACKEND_FORK,
    BACKEND_RESPAWN,
    BACKEND_SHARD_RETRY,
    BACKEND_SLAB_ALLOC,
    BACKEND_SLAB_RELEASE,
    BACKEND_SLAB_REUSE,
    CONTROL_DECISION,
    CONTROL_DRIFT,
    CONTROL_PLAN,
    CONTROL_RESIZE,
    GATEWAY_ABORT,
    GATEWAY_BATCH,
    GATEWAY_HELLO,
    GATEWAY_SHED,
    GATEWAY_STALL,
    JOB_ADMIT,
    JOB_CANCEL,
    JOB_COMPLETE,
    JOB_FAIL,
    JOB_MERGE,
    JOB_SEGMENT,
    JOB_SUBMIT,
    JOB_WINDOW,
    TraceEvent,
)
from repro.obs.exposition import parse_prometheus, to_prometheus

__all__ = [
    "TraceEvent",
    "TraceCollector",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "write_jsonl",
    "stage_breakdown",
    "render_breakdown",
    "decision_log",
    "to_prometheus",
    "parse_prometheus",
    "JOB_SUBMIT",
    "JOB_ADMIT",
    "JOB_WINDOW",
    "JOB_SEGMENT",
    "JOB_MERGE",
    "JOB_COMPLETE",
    "JOB_FAIL",
    "JOB_CANCEL",
    "CONTROL_DRIFT",
    "CONTROL_DECISION",
    "CONTROL_PLAN",
    "CONTROL_RESIZE",
    "GATEWAY_HELLO",
    "GATEWAY_BATCH",
    "GATEWAY_STALL",
    "GATEWAY_SHED",
    "GATEWAY_ABORT",
    "BACKEND_FORK",
    "BACKEND_DRAIN",
    "BACKEND_CRASH",
    "BACKEND_RESPAWN",
    "BACKEND_SHARD_RETRY",
    "BACKEND_SLAB_ALLOC",
    "BACKEND_SLAB_REUSE",
    "BACKEND_SLAB_RELEASE",
]
