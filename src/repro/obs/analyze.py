"""Offline analysis of captured traces.

This is the read side of the capture format: load a JSONL trace (or a
live collector's ring), fold the job-lifecycle spans into a per-tenant
**stage-latency breakdown**, and pull the control plane's decision
audit log back out.  ``repro trace`` is a thin CLI shell around these
functions.

Stage semantics (per job, then aggregated per tenant):

``queue``
    Dispatch-clock tuples between ``job.submit`` and ``job.admit`` —
    how long the job sat behind other tenants' work.
``dispatch``
    Clock span from ``job.admit`` to the job's last ``job.window`` —
    how long the dispatcher spent streaming the job's windows out.
``execute``
    Deterministic busiest-worker cycles summed from the job's
    ``job.segment`` events — the fleet-completion cost of the job's
    own shards.
``merge``
    Wall-clock seconds between ``job.merge`` and ``job.complete`` —
    the only stage measured in wall time, because merging partials is
    host work with no cycle model.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.events import (
    CONTROL_DECISION,
    CONTROL_DRIFT,
    CONTROL_PLAN,
    CONTROL_RESIZE,
    JOB_ADMIT,
    JOB_COMPLETE,
    JOB_MERGE,
    JOB_SEGMENT,
    JOB_SUBMIT,
    JOB_WINDOW,
    TraceEvent,
)

_STAGES = ("queue", "dispatch", "execute", "merge")


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a capture file written by :class:`~repro.obs.collector.JsonlSink`."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json(line))
    return events


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write events as one JSONL capture; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event.to_json() + "\n")
            count += 1
    return count


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def job_spans(events: Iterable[TraceEvent]) -> Dict[str, Dict[str, Any]]:
    """Fold lifecycle events into one span record per job.

    Each record carries the tenant, the four stage latencies (None when
    the trace lacks the bounding events), and the raw bounding clocks.
    """
    jobs: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.job_id is None:
            continue
        record = jobs.setdefault(event.job_id, {
            "tenant_id": event.tenant_id,
            "submit_clock": None, "admit_clock": None,
            "last_window_clock": None, "execute_cycles": 0,
            "merge_wall": None, "complete_wall": None,
            "segments": 0,
        })
        if event.tenant_id is not None:
            record["tenant_id"] = event.tenant_id
        if event.kind == JOB_SUBMIT:
            record["submit_clock"] = event.clock
        elif event.kind == JOB_ADMIT:
            record["admit_clock"] = event.clock
        elif event.kind == JOB_WINDOW:
            record["last_window_clock"] = event.clock
        elif event.kind == JOB_SEGMENT:
            record["segments"] += 1
            record["execute_cycles"] += int(
                event.data.get("cycles", 0))
        elif event.kind == JOB_MERGE:
            record["merge_wall"] = event.wall
        elif event.kind == JOB_COMPLETE:
            record["complete_wall"] = event.wall

    for record in jobs.values():
        submit, admit = record["submit_clock"], record["admit_clock"]
        record["queue"] = (admit - submit
                           if submit is not None and admit is not None
                           else None)
        last = record["last_window_clock"]
        record["dispatch"] = (last - admit
                              if admit is not None and last is not None
                              else None)
        record["execute"] = (record["execute_cycles"]
                             if record["segments"] else None)
        merge, done = record["merge_wall"], record["complete_wall"]
        record["merge"] = (done - merge
                           if merge is not None and done is not None
                           else None)
    return jobs


def stage_breakdown(
        events: Iterable[TraceEvent],
        tenant_id: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
    """Per-tenant stage-latency aggregates from a trace.

    Returns ``{tenant: {jobs, queue: {...}, dispatch: {...},
    execute: {...}, merge: {...}}}`` where each stage dict holds
    ``mean`` / ``p50`` / ``p95`` / ``max`` over that tenant's jobs.
    ``tenant_id`` filters to one tenant.
    """
    per_tenant: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: {stage: [] for stage in _STAGES})
    job_counts: Dict[str, int] = defaultdict(int)
    for record in job_spans(events).values():
        tenant = record["tenant_id"] or "?"
        if tenant_id is not None and tenant != tenant_id:
            continue
        job_counts[tenant] += 1
        for stage in _STAGES:
            if record[stage] is not None:
                per_tenant[tenant][stage].append(float(record[stage]))

    breakdown: Dict[str, Dict[str, Any]] = {}
    for tenant in sorted(job_counts):
        stages: Dict[str, Any] = {"jobs": job_counts[tenant]}
        for stage in _STAGES:
            values = per_tenant[tenant][stage]
            if values:
                stages[stage] = {
                    "mean": sum(values) / len(values),
                    "p50": _percentile(values, 0.50),
                    "p95": _percentile(values, 0.95),
                    "max": max(values),
                }
            else:
                stages[stage] = None
        breakdown[tenant] = stages
    return breakdown


def render_breakdown(breakdown: Dict[str, Dict[str, Any]]) -> str:
    """Render :func:`stage_breakdown` output as an aligned text table.

    Queue/dispatch are in dispatch-clock tuples, execute in
    deterministic cycles, merge in milliseconds of wall time.
    """
    units = {"queue": "tup", "dispatch": "tup", "execute": "cyc",
             "merge": "ms"}
    header = (f"{'tenant':<12} {'jobs':>5}  "
              + "  ".join(f"{s + ' p50/p95 (' + units[s] + ')':>24}"
                          for s in _STAGES))
    lines = [header, "-" * len(header)]
    for tenant, stages in breakdown.items():
        cells = []
        for stage in _STAGES:
            section = stages[stage]
            if section is None:
                cells.append(f"{'-':>24}")
                continue
            scale = 1000.0 if stage == "merge" else 1.0
            cell = (f"{section['p50'] * scale:,.1f}"
                    f" / {section['p95'] * scale:,.1f}")
            cells.append(f"{cell:>24}")
        lines.append(f"{tenant:<12} {stages['jobs']:>5}  "
                     + "  ".join(cells))
    return "\n".join(lines)


def decision_log(events: Iterable[TraceEvent]) -> List[Dict[str, Any]]:
    """The control plane's audit trail, in trace order.

    Each entry is a flat dict: the event kind, clock, tenant, and the
    decision payload (verdict, regime inputs, plan age, resize reason
    ...) — what ``repro trace --decisions`` prints.
    """
    log: List[Dict[str, Any]] = []
    for event in events:
        if event.kind in (CONTROL_DRIFT, CONTROL_DECISION,
                          CONTROL_PLAN, CONTROL_RESIZE):
            entry: Dict[str, Any] = {
                "kind": event.kind,
                "clock": event.clock,
                "tenant_id": event.tenant_id,
            }
            entry.update(event.data)
            log.append(entry)
    return log
