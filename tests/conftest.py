"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.apps.histo import HistogramKernel
from repro.core.config import ArchitectureConfig
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator


def _survivors():
    """What a test module can leave behind for the next one to trip on."""
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    return (
        {t for t in threading.enumerate() if not t.daemon},
        set(multiprocessing.active_children()),
        shm,
    )


@pytest.fixture(scope="module", autouse=True)
def module_leaves_nothing_behind(request):
    """Fail the module that leaks a non-daemon thread, a
    ``multiprocessing`` child or a ``/dev/shm`` segment."""
    before = _survivors()
    yield
    deadline = time.monotonic() + 5.0  # children reap asynchronously
    while True:
        leaked = [sorted(map(str, now - was))
                  for now, was in zip(_survivors(), before)]
        if not any(leaked) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not any(leaked), (
        f"{request.module.__name__} left behind threads={leaked[0]} "
        f"children={leaked[1]} shm={leaked[2]}")


@pytest.fixture
def uniform_batch() -> TupleBatch:
    """10k uniformly distributed tuples."""
    return ZipfGenerator(alpha=0.0, seed=101).generate(10_000)


@pytest.fixture
def skewed_batch() -> TupleBatch:
    """10k extremely skewed tuples (Zipf alpha = 3)."""
    return ZipfGenerator(alpha=3.0, seed=101).generate(10_000)


@pytest.fixture
def small_config() -> ArchitectureConfig:
    """The paper's default shape without rescheduling."""
    return ArchitectureConfig(lanes=8, pripes=16, secpes=0,
                              reschedule_threshold=0.0)


@pytest.fixture
def histo_kernel() -> HistogramKernel:
    """A 512-bin histogram kernel on 16 PEs."""
    return HistogramKernel(bins=512, pripes=16)


def make_batch(keys) -> TupleBatch:
    """Batch from explicit keys with value = 1 (helper for direct use)."""
    return TupleBatch.from_keys(np.asarray(keys, dtype=np.uint64))
