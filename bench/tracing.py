"""Span recorder for the traced pass.

The benchmark times the program's layers from outside: for one
repetition it replaces the public callables at each layer boundary with
wrappers that record a span (name, start, end, thread, enclosing span,
job id) into a preallocated list, and puts the originals back
afterwards.  Nothing under ``src/`` knows it is being measured.

A span's *layer* is its dotted name minus the last component
(``service.windows.observe`` belongs to ``service.windows``); its *self
time* is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.service.balancer as balancer_module
from repro.control.controller import AdaptiveController
from repro.net import protocol
from repro.net.buffer import IngestBuffer
from repro.net.client import StreamClient
from repro.runtime.session import StreamingSession
from repro.service.balancer import SkewAwareBalancer
from repro.service.metrics import ServiceMetrics
from repro.service.pool import WorkerPool
from repro.service.procpool import ProcessBackend
from repro.service.queue import JobQueue
from repro.service.server import StreamService
from repro.service.windows import EventWindow, WindowManager

NAME, START, END, THREAD, PARENT, JOB = range(6)

JobOf = Callable[[tuple, dict], object]


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


#: What a ``JobOf`` returns for calls that serve every job at once
#: (``StreamService.run``, backend start/stop): no job, not even the
#: thread's current one.
NO_JOB = object()


def _no_job(args: tuple, kwargs: dict) -> object:
    return NO_JOB


def _second_arg(args: tuple, kwargs: dict) -> Optional[str]:
    return args[1]


def _job_id_kwarg(args: tuple, kwargs: dict) -> Optional[str]:
    return kwargs.get("job_id")


class SpanRecorder:
    """Thread-safe in-memory span list plus the wrappers that fill it.

    ``view`` labels the spans in the trace file: ``insitu`` for the
    real threaded run, ``replay`` for the single-thread replay.
    """

    def __init__(self, view: str, capacity: int = 1 << 17) -> None:
        self.view = view
        self.spans: List[Optional[list]] = [None] * capacity
        self.dropped = 0
        self.hashed_keys = 0
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()
        # A shard's job id travels from the dispatcher's dispatch() to
        # the worker's process() on the identity of the batch object,
        # the one thing both public calls receive.
        self._batch_job: Dict[int, str] = {}
        self._saved: List[Tuple[object, str, object]] = []

    def set_job(self, job_id: Optional[str]) -> None:
        """Job that spans on this thread belong to unless a call's own
        arguments say otherwise (the load generator's source iterator
        sets it each time the dispatcher pulls a chunk)."""
        self._local.job = job_id

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span(self, name: str, fn: Callable,
              job_of: Optional[JobOf] = None,
              job_from_result: bool = False) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        capacity = len(spans)
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            index = next(ids)
            if index >= capacity:
                self.dropped += 1
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            # Job id: the call's own arguments, else the enclosing
            # span's, else the thread's current job.
            job = job_of(args, kwargs) if job_of is not None else None
            if job is NO_JOB:
                job = None
            elif job is not None:
                local.job = job
            else:
                if parent >= 0:
                    job = spans[parent][JOB]
                if job is None:
                    job = getattr(local, "job", None)
            record = spans[index] = [name, 0.0, 0.0, get_ident(),
                                     parent, job]
            stack.append(index)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if job_from_result and result is not None:
                record[JOB] = result.job_id
            return result

        return wrapper

    def _count_hashed(self, fn: Callable) -> Callable:
        def wrapper(keys, *args, **kwargs):
            self.hashed_keys += len(keys)
            return fn(keys, *args, **kwargs)

        return wrapper

    def _job_of_dispatch(self, args: tuple, kwargs: dict) -> str:
        item = args[2]
        self._batch_job[id(item.batch)] = item.job_id
        return item.job_id

    def _job_of_process(self, args: tuple, kwargs: dict) -> Optional[str]:
        return self._batch_job.pop(id(args[1]), None)

    def _targets(self) -> Iterator[Tuple[object, str, str, Optional[JobOf]]]:
        yield StreamService, "submit", "service.server.submit", _job_id_kwarg
        yield StreamService, "run", "service.server.run", _no_job
        yield StreamService, "result", "service.server.result", _second_arg
        yield JobQueue, "submit", "service.queue.submit", \
            lambda args, kwargs: args[1].job_id
        yield WindowManager, "observe", "service.windows.observe", None
        yield WindowManager, "flush", "service.windows.flush", None
        yield EventWindow, "to_batch", "service.windows.to_batch", None
        yield SkewAwareBalancer, "observe", "service.balancer.observe", None
        yield SkewAwareBalancer, "split", "service.balancer.split", None
        yield AdaptiveController, "on_window", "control.on_window", None
        for backend in (WorkerPool, ProcessBackend):
            yield backend, "start", "service.backend.start", _no_job
            yield backend, "dispatch", "service.backend.dispatch", \
                self._job_of_dispatch
            yield backend, "drain", "service.backend.drain", None
            yield backend, "collect", "service.backend.collect", _second_arg
            yield backend, "stop", "service.backend.stop", _no_job
        yield StreamingSession, "process", "runtime.session.process", \
            self._job_of_process
        yield StreamingSession, "merge_from", "runtime.session.merge", None
        yield StreamingSession, "absorb", "runtime.session.merge", None
        yield ServiceMetrics, "record_segment", \
            "service.metrics.record_segment", None
        yield protocol, "batch_payload", "net.protocol.batch_payload", None
        yield protocol, "encode", "net.protocol.encode", None
        yield protocol, "decode", "net.protocol.decode", None
        yield protocol, "decode_batch", "net.protocol.decode_batch", None
        yield IngestBuffer, "put", "net.buffer.put", None
        yield IngestBuffer, "__next__", "net.buffer.get", None
        yield StreamClient, "submit", "net.client.submit", _job_id_kwarg
        yield StreamClient, "send_batch", "net.client.send_batch", _second_arg
        yield StreamClient, "end", "net.client.end", _second_arg
        yield StreamClient, "result", "net.client.result", _second_arg

    def install(self) -> None:
        def swap(owner, attr, replacement):
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement(vars(owner)[attr]))

        for owner, attr, name, job_of in self._targets():
            swap(owner, attr,
                 lambda fn, name=name, job_of=job_of: self._span(
                     name, fn, job_of))
        swap(JobQueue, "pop", lambda fn: self._span(
            "service.queue.pop", fn, job_from_result=True))
        # murmur3 as the balancer imports it: counted, not timed — a
        # span per call would double the cost of the call it measures.
        swap(balancer_module, "murmur3_32_array", self._count_hashed)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def finished(self) -> List[Tuple[int, list]]:
        """``(slot, span)`` of every recorded span, in slot order."""
        return [(slot, span) for slot, span in enumerate(self.spans)
                if span is not None]


def self_times(recorder: SpanRecorder) -> List[Tuple[int, list, float]]:
    """``(slot, span, self_seconds)`` for every recorded span."""
    spans = recorder.finished()
    own = {slot: span[END] - span[START] for slot, span in spans}
    for slot, span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return [(slot, span, own[slot]) for slot, span in spans]


def totals(recorder: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and self seconds."""
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for _, span, own in self_times(recorder):
        row = table[span[NAME]]
        row["count"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return dict(table)


def busy_by_thread(recorder: SpanRecorder, name: str) -> Dict[int, float]:
    """Seconds each thread spent inside spans called ``name``."""
    busy: Dict[int, float] = defaultdict(float)
    for _, span in recorder.finished():
        if span[NAME] == name:
            busy[span[THREAD]] += span[END] - span[START]
    return dict(busy)


def write_jsonl(path, recorders: List[SpanRecorder]) -> int:
    """Dump every span of every view, one JSON object per line."""
    written = 0
    with open(path, "w") as out:
        for recorder in recorders:
            for slot, span, own in self_times(recorder):
                out.write(json.dumps({
                    "view": recorder.view, "id": slot,
                    "name": span[NAME], "start": span[START],
                    "end": span[END], "thread": span[THREAD],
                    "parent": span[PARENT], "job": span[JOB],
                    "self_s": own,
                }) + "\n")
                written += 1
    return written
