"""The cycle engine's reports, pinned run by run.

``golden_reports.json`` holds :func:`fingerprint` of every run in
:data:`RUNS`, as the commit before the simulator committed only written
channels and parked idle PEs and filters computed it.  Any change to
``repro.sim`` (or to a module's tick) must leave every cycle count,
result, per-module busy/stall/idle split, channel peak, write stall,
PE tuple count and plan bit-identical; never regenerate the file to make
a change pass.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.partition import PartitionKernel
from repro.core.architecture import SkewObliviousArchitecture
from repro.core.config import ArchitectureConfig
from repro.workloads.zipf import ZipfGenerator

GOLDEN = Path(__file__).with_name("golden_reports.json")

GRID_ALPHAS = (0.0, 1.0, 2.0)
GRID_SECPES = (0, 4)

#: ``sim.cycles`` of the benchmark's ``cycle_sim_paper`` grid.
GRID_CYCLES = 19_616


def _grid_run(index, secpes):
    # The benchmark's grid: seed 7 + alpha index, 8 000 tuples per alpha.
    alpha = GRID_ALPHAS[index]
    batch = ZipfGenerator(alpha=alpha, seed=7 + index).generate(8_000)
    config = ArchitectureConfig(lanes=8, pripes=16, secpes=secpes)
    return HistogramKernel(), config, batch


def _rescheduling_run():
    # TestRescheduling's two concatenated alpha = 3 datasets: the monitor
    # re-plans, so the host revives the finished profiler mid-run.
    first = ZipfGenerator(alpha=3.0, seed=21).generate(12_000)
    second = ZipfGenerator(alpha=3.0, seed=77).generate(12_000)
    config = ArchitectureConfig(secpes=15, reschedule_threshold=0.5,
                                monitor_window=512,
                                reenqueue_delay_cycles=128)
    return (HistogramKernel(bins=512, pripes=16), config,
            first.concat(second))


def _partition_run():
    batch = ZipfGenerator(alpha=1.5, seed=3).generate(4_000)
    config = ArchitectureConfig(secpes=4, reschedule_threshold=0.0)
    return PartitionKernel(radix_bits_count=6, pripes=16), config, batch


def _no_skew_handling_run():
    # No SecPEs, so no mapper, profiler, merger or host: the 16P baseline
    # with one hot PE and fifteen mostly idle ones.
    batch = ZipfGenerator(alpha=3.0, seed=11).generate(6_000)
    return (HyperLogLogKernel(precision=10, pripes=16),
            ArchitectureConfig(secpes=0), batch)


RUNS = {
    **{f"grid/alpha{GRID_ALPHAS[i]:g}/secpes{x}":
       (lambda i=i, x=x: _grid_run(i, x))
       for i in range(len(GRID_ALPHAS)) for x in GRID_SECPES},
    "rescheduling/secpes15": _rescheduling_run,
    "partition/secpes4": _partition_run,
    "hll/secpes0": _no_skew_handling_run,
}


def _canonical(value):
    """``value`` as plain JSON data, with array dtypes kept."""
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)]
                for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [str(value.dtype), value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value


def fingerprint(name):
    """Everything observable about run ``name``, as JSON data."""
    kernel, config, batch = RUNS[name]()
    architecture = SkewObliviousArchitecture(config, kernel)
    built = []
    build = architecture._build

    def recording_build(batch):
        built.append(build(batch))
        return built[-1]

    architecture._build = recording_build
    outcome = architecture.run(batch, max_cycles=10_000_000)
    result = json.dumps(_canonical(outcome.result), sort_keys=True)
    report = outcome.report
    return json.loads(json.dumps({
        "cycles": outcome.cycles,
        "completed": report.completed,
        "result_sha256": hashlib.sha256(result.encode()).hexdigest(),
        "modules": {m.name: [m.busy_cycles, m.stall_cycles, m.idle_cycles]
                    for m in built[0].modules},
        "module_utilization": report.module_utilization,
        "channel_peaks": report.channel_peaks,
        "channel_write_stalls": report.channel_write_stalls,
        "pe_tuple_counts": outcome.pe_tuple_counts,
        "plans": [plan.pairs for plan in outcome.plans],
        "reschedules": outcome.reschedules,
    }))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)
    grid = [golden[name]["cycles"] for name in RUNS if name.startswith("grid")]
    assert sum(grid) == GRID_CYCLES
    assert golden["rescheduling/secpes15"]["reschedules"] >= 1


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(golden, name):
    assert fingerprint(name) == golden[name]
