"""The program's names that the benchmark under ``bench/`` reads.

``python3 -m bench`` times the program from outside:
``bench/tracing.py`` swaps public callables for span wrappers, and
``bench/replay.py`` pushes each workload through public names on one
thread.  ``bench/`` does not change with the program, so a name it
reads that the program drops or reshapes would first fail in the
benchmark's trace pass; these tests make it fail here instead.
"""

import pytest

from bench.replay import replay
from bench.tracing import SpanRecorder
from bench.workloads import JobPlan, Workload, matches
from repro.service import StreamService
from repro.workloads.streams import chunk_stream
from repro.workloads.zipf import ZipfGenerator


def small_workload():
    """One splittable and one by-key job, two windows each."""
    return Workload("surface", "the benchmark's reads of the program",
                    lambda scale: [JobPlan("histo", 1.5, 8_000),
                                   JobPlan("hhd", 1.5, 8_000)])


def test_recorder_wraps_a_service_run_and_puts_every_name_back():
    recorder = SpanRecorder("insitu")
    recorder.install()
    saved = list(recorder._saved)
    try:
        service = StreamService(workers=4)
        batch = ZipfGenerator(alpha=1.5, seed=3).generate(8_000)
        job_id = service.submit("histo", chunk_stream(batch, 4_000),
                                window_seconds=2.56e-6)
        service.run()
        assert service.result(job_id).tuples == 8_000
        service.shutdown()
    finally:
        recorder.remove()
    assert saved and all(vars(owner)[attr] is original
                         for owner, attr, original in saved)
    names = {span[0] for _, span in recorder.finished()}
    assert {"service.server.submit", "service.windows.observe",
            "control.on_window", "service.backend.collect"} <= names


@pytest.mark.parametrize("wire", [False, True])
def test_replay_builds_and_processes_sessions_under_the_recorder(wire):
    workload = small_workload()
    inputs = workload.generate(seed=7, scale=1.0)
    workload.reference(inputs)
    recorder = SpanRecorder("replay")
    with recorder.installed():
        _, results = replay(workload, inputs, recorder, wire)
    assert all(matches(job.app, result, job.expected)
               for job, result in zip(inputs.jobs, results))
    names = {span[0] for _, span in recorder.finished()}
    assert {"service.balancer.split", "runtime.session.process",
            "runtime.session.merge"} <= names
