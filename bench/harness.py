"""Measurement plumbing: statistics, process-tree accounting, leak audit.

Everything here observes the program from outside — ``/proc``, rusage,
``threading.enumerate`` — so no file under ``src/`` has to cooperate.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set

from bench import ROOT

SHM_DIR = Path("/dev/shm")


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's samples."""
    values = [float(v) for v in samples]
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds :func:`host_kernel` takes on the reference host (this
#: repo's 2-core builder VM) when nothing disturbs it.
REFERENCE_KERNEL_S = 0.040


def host_kernel(covering: float = 0.0) -> float:
    """Seconds a fixed kernel of small-array NumPy calls and bytecode —
    the program's own instruction mix, but none of its code — takes
    right now.

    The hosts this runs on have periods of seconds to minutes in which
    *all* code runs 20-60 % slower (a plain spin loop shows it), longer
    than a run can average over.  The harness runs this kernel between
    repetitions and divides the slowdown out of the timings (see
    :func:`slowdown`), so a number moves when the program changes, not
    when a neighbour wakes up.

    One reading jitters by tens of percent itself, so the kernel is
    repeated (and averaged) for about a tenth of ``covering``, the
    seconds of measurement the reading stands for: once for a 0.4 s
    repetition, up to four times for long ones.
    """
    import numpy as np

    keys = (np.arange(4_000, dtype=np.uint64)
            * np.uint64(2654435761)) % np.uint64(1 << 20)
    rounds = max(1, min(4, round(covering / (10 * REFERENCE_KERNEL_S))))
    start = time.perf_counter()
    total = 0
    for step in range(2_000 * rounds):
        shard = (keys >> np.uint64(step & 7)) & np.uint64(3)
        picked = keys[shard == np.uint64(step & 3)]
        counts = np.bincount((picked & np.uint64(15)).astype(np.int64),
                             minlength=16)
        total += int(counts[step & 15])
        for lane in range(16):
            total += lane ^ step
    return (time.perf_counter() - start) / rounds


def slowdown(before: float, after: float) -> float:
    """Host slowdown factor over a region bracketed by two
    :func:`host_kernel` readings (1.0 = the quiet reference host)."""
    return (before + after) / 2 / REFERENCE_KERNEL_S


# ----------------------------------------------------------------------
# Process tree
# ----------------------------------------------------------------------
def descendants() -> List[int]:
    """PIDs of every process below this one, unreaped zombies included
    (children first)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # The command name may contain spaces; fields resume after ')'.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found: List[int] = []
    frontier = [os.getpid()]
    while frontier:
        frontier = [pid for pid, ppid in parents.items()
                    if ppid in frontier]
        found.extend(frontier)
    return found


def _task_cpu_ns(pid: int) -> int:
    """On-CPU nanoseconds of every thread of ``pid`` (schedstat)."""
    total = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            text = Path(f"/proc/{pid}/task/{task}/schedstat").read_text()
            total += int(text.split()[0])
    except OSError:
        pass  # the process exited mid-read; count what was seen
    return total


def tree_cpu_seconds() -> float:
    """User+system CPU consumed so far by this process and its live
    descendants.  Children are read from ``/proc`` while they run:
    rusage only folds a child in once it has been waited for, which for
    warm workers is after the timed region."""
    return time.process_time() + sum(
        _task_cpu_ns(pid) for pid in descendants()) / 1e9


def children_peak_rss_kb() -> int:
    """Sum of the high-water RSS of every live descendant."""
    total = 0
    for pid in descendants():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# Leak audit
# ----------------------------------------------------------------------
def shm_segments() -> Set[str]:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def stop_resource_tracker() -> None:
    """Stop the stdlib's shared-memory resource tracker and wait for it.

    The tracker is a per-interpreter helper process the ``shm``
    transport starts implicitly.  Left alone it only notices that its
    interpreter has exited *afterwards*, so it outlives every run that
    touched shared memory; the benchmark owns every process of a run,
    so it ends this one itself (a later ``register`` starts a new one).
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def adopt_orphans() -> None:
    """Make this process the reaper of its whole subtree (Linux
    ``PR_SET_CHILD_SUBREAPER``): a grandchild whose parent dies is
    handed to us instead of to init, so :func:`reap_descendants` can
    wait for it."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still reaped


def reap_descendants() -> None:
    """The last thing a benchmark interpreter does, on every way out:
    end the resource tracker, kill whatever else is still below this
    process and wait until each has ended."""
    stop_resource_tracker()
    for pid in descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # a zombie's parent reaped it meanwhile
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def leak_audit(shm_before: Iterable[str]) -> Dict[str, int]:
    """Threads, child processes and shm segments that outlived the run.

    Counted the moment the last ``shutdown()`` / gateway exit has
    returned, with no grace period.  The stdlib's resource tracker is
    this interpreter's, not the service's; it is stopped first (after
    the segment count: stopping it unlinks what was leaked), so every
    process still below this one is a leak.
    """
    threads = [t for t in threading.enumerate()
               if t is not threading.main_thread()]
    segments = shm_segments() - set(shm_before)
    stop_resource_tracker()
    return {"threads": len(threads), "children": len(descendants()),
            "shm": len(segments)}


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }
