"""A heavy-hitter job's answer does not depend on the fleet that serves it.

The fleet does not split an HHD window: the window goes whole to one
worker, ``window_index % K``, so each window is one segment, counted in
one sketch, whatever K is.  The job's answer, the per-segment hitters
summed, must then equal a one-worker service's on the same stream, for
any fleet size, control mode and chunking.  A window split by key over
several workers would count each worker's keys in its own sketch, with
fewer collisions, and report lower estimates: the streams here are wide
enough (a few thousand distinct keys per window, a low threshold) that
collisions move estimates.
"""

from hypothesis import given, settings, strategies as st

from repro.service import StreamService
from repro.workloads.streams import chunk_stream
from repro.workloads.zipf import ZipfGenerator

#: 6 250-tuple windows at line rate: five windows per job.
WINDOW = 4e-6
TUPLES = 30_000


def answer(batch, workers, adaptive, chunk):
    """The HHD job's answer from a ``workers`` fleet, inline."""
    service = StreamService(workers=workers, adaptive=adaptive)
    try:
        job_id = service.submit("hhd", chunk_stream(batch, chunk),
                                window_seconds=WINDOW,
                                params={"threshold": 6})
        service.run()
        result = service.result(job_id)
    finally:
        service.shutdown()
    assert result.tuples == TUPLES
    return result.result


@settings(max_examples=30, deadline=None)
@given(workers=st.integers(1, 8), adaptive=st.booleans(),
       chunk=st.integers(500, 12_000), alpha=st.sampled_from([0.8, 1.1, 1.5]),
       seed=st.integers(0, 1 << 16))
def test_fleet_answer_is_the_one_worker_answer(workers, adaptive, chunk,
                                               alpha, seed):
    batch = ZipfGenerator(alpha=alpha, universe=1 << 20,
                          seed=seed).generate(TUPLES)
    expected = answer(batch, 1, False, chunk)
    assert expected
    assert answer(batch, workers, adaptive, chunk) == expected
