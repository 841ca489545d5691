"""Composition of the full skew-oblivious data routing architecture.

:class:`SkewObliviousArchitecture` wires the Fig. 3 pipeline onto the
cycle simulator:

.. code-block:: text

    memory read engine ──> N lane channels ──> N PrePEs
        ──> N mappers (skew handling only) ──> combiner
        ──> M+X group FIFOs ──> M+X filter/decoders ──> M+X PEs
    runtime profiler <── stats channels (from mappers)
    runtime profiler ──> plan channels (to mappers), merger, host
    merger: SecPE partials -> PriPE buffers;  host: re-enqueue loop

With ``secpes == 0`` the skew-handling modules (mapper, profiler, merger,
host) are omitted, which is exactly the paper's baseline data-routing
design ("16P") from Chen et al. [8].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import ArchitectureConfig
from repro.core.host import HostController
from repro.core.kernel import KernelSpec
from repro.core.mapper import Mapper
from repro.core.merger import Merger
from repro.core.pe import ProcessingElement
from repro.core.prepe import PrePE
from repro.core.profiler import RuntimeProfiler, SchedulingPlan
from repro.core.routing import Combiner, FilterDecoder
from repro.sim.channel import Channel
from repro.sim.engine import SimulationReport, Simulator
from repro.sim.memory import MemoryReadEngine
from repro.workloads.tuples import TupleBatch


class _PairView:
    """Zero-copy ``(key, value)`` view over a :class:`TupleBatch`."""

    def __init__(self, batch: TupleBatch) -> None:
        self._keys = batch.keys
        self._values = batch.values

    def __len__(self) -> int:
        return int(self._keys.size)

    def __getitem__(self, index: int) -> tuple:
        return int(self._keys[index]), int(self._values[index])


@dataclass
class ArchitectureResult:
    """Outcome of running one dataset through the architecture.

    Attributes
    ----------
    result:
        The application result (``kernel.collect`` output) after merging.
    cycles:
        Simulated cycles to completion.
    tuples:
        Number of input tuples.
    report:
        Low-level simulation report (utilisation, stalls, peaks).
    pe_tuple_counts:
        Tuples processed per designated PE (the Fig. 2a heatmap source).
    plans:
        Every SecPE scheduling plan the profiler generated.
    reschedules:
        Completed host re-enqueue rounds.
    config:
        The architecture configuration that produced this result.
    """

    result: Any
    cycles: int
    tuples: int
    report: SimulationReport
    pe_tuple_counts: Dict[int, int] = field(default_factory=dict)
    plans: List[SchedulingPlan] = field(default_factory=list)
    reschedules: int = 0
    config: Optional[ArchitectureConfig] = None

    @property
    def tuples_per_cycle(self) -> float:
        """Sustained throughput in tuples per cycle."""
        return self.tuples / self.cycles if self.cycles else 0.0

    def throughput_mtps(self, frequency_mhz: float) -> float:
        """Throughput in million tuples per second at ``frequency_mhz``."""
        return self.tuples_per_cycle * frequency_mhz


class SkewObliviousArchitecture:
    """Builds and runs the full architecture for one application kernel.

    Parameters
    ----------
    config:
        Architecture shape and control parameters.
    kernel:
        Application logic (a :class:`~repro.core.kernel.KernelSpec`).
    """

    def __init__(self, config: ArchitectureConfig, kernel: KernelSpec) -> None:
        self.config = config
        self.kernel = kernel
        kernel.pripes = config.pripes

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _build(self, batch: TupleBatch) -> Simulator:
        cfg = self.config
        sim = Simulator()

        lane_channels = [
            sim.add_channel(Channel(f"lane[{i}]", capacity=8))
            for i in range(cfg.lanes)
        ]
        routed_channels = [
            sim.add_channel(Channel(f"routed[{i}]", capacity=8))
            for i in range(cfg.lanes)
        ]
        group_channels = [
            sim.add_channel(
                Channel(f"group[{j}]", capacity=cfg.group_channel_depth)
            )
            for j in range(cfg.designated_pes)
        ]
        pe_channels = [
            sim.add_channel(Channel(f"pe_in[{j}]", capacity=cfg.channel_depth))
            for j in range(cfg.designated_pes)
        ]

        self._engine = sim.add_module(
            MemoryReadEngine("mem_read", _PairView(batch), lane_channels)
        )
        self._prepes = [
            sim.add_module(
                PrePE(
                    f"prepe[{i}]", self.kernel, lane_channels[i],
                    routed_channels[i], ii=cfg.ii_prepe,
                )
            )
            for i in range(cfg.lanes)
        ]

        if cfg.skew_handling:
            designated_channels = [
                sim.add_channel(Channel(f"designated[{i}]", capacity=8))
                for i in range(cfg.lanes)
            ]
            plan_channels = [
                sim.add_channel(
                    Channel(f"plan[{i}]", capacity=cfg.secpes + 4)
                )
                for i in range(cfg.lanes)
            ]
            stats_channels = [
                sim.add_channel(Channel(f"stats[{i}]", capacity=16))
                for i in range(cfg.lanes)
            ]
            self._mappers = [
                sim.add_module(
                    Mapper(
                        f"mapper[{i}]", cfg.pripes, cfg.secpes,
                        routed_channels[i], designated_channels[i],
                        plan_channels[i], stats_channels[i],
                    )
                )
                for i in range(cfg.lanes)
            ]
            combiner_inputs = designated_channels
        else:
            self._mappers = []
            combiner_inputs = routed_channels

        self._combiner = sim.add_module(
            Combiner("combiner", combiner_inputs, group_channels)
        )
        self._filters = [
            sim.add_module(
                FilterDecoder(f"filter[{j}]", j, group_channels[j],
                              pe_channels[j])
            )
            for j in range(cfg.designated_pes)
        ]
        self._pripe_modules = [
            sim.add_module(
                ProcessingElement(
                    f"pripe[{j}]", j, self.kernel, pe_channels[j],
                    ii=cfg.ii_pe,
                )
            )
            for j in range(cfg.pripes)
        ]
        self._secpe_modules = [
            sim.add_module(
                ProcessingElement(
                    f"secpe[{j}]", j, self.kernel, pe_channels[j],
                    ii=cfg.ii_pe, is_secondary=True,
                )
            )
            for j in range(cfg.pripes, cfg.designated_pes)
        ]

        if cfg.skew_handling:
            merger_plan = sim.add_channel(Channel("merger_plan", capacity=8))
            host_ctl = sim.add_channel(Channel("host_ctl", capacity=8))
            merger_done = sim.add_channel(Channel("merger_done", capacity=8))
            self._profiler = sim.add_module(
                RuntimeProfiler(
                    "profiler", cfg.pripes, cfg.secpes, stats_channels,
                    plan_channels, merger_plan, host_ctl,
                    profiling_cycles=cfg.profiling_cycles,
                    monitor_window=cfg.monitor_window,
                    reschedule_threshold=cfg.reschedule_threshold,
                )
            )
            self._merger = sim.add_module(
                Merger(
                    "merger", self.kernel, self._pripe_modules,
                    self._secpe_modules, merger_plan, merger_done,
                )
            )
            self._host = sim.add_module(
                HostController(
                    "host", self._profiler, self._secpe_modules, host_ctl,
                    merger_done,
                    reenqueue_delay_cycles=cfg.reenqueue_delay_cycles,
                )
            )
        else:
            self._profiler = None
            self._merger = None
            self._host = None
        return sim

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        batch: TupleBatch,
        max_cycles: int = 5_000_000,
        engine: str = "cycle",
    ) -> ArchitectureResult:
        """Process ``batch`` to completion and return the merged result.

        ``engine="cycle"`` ticks the full pipeline cycle by cycle (the
        oracle); ``engine="fast"`` computes the identical application
        result with vectorised reductions and models the cycle count
        from the analytic bottleneck (:mod:`repro.core.fastpath`).
        """
        from repro.core.fastpath import run_fast, validate_engine

        if validate_engine(engine) == "fast":
            return run_fast(self.config, self.kernel, batch)
        if len(batch) == 0:
            raise ValueError("cannot run an empty batch")
        sim = self._build(batch)
        if self._merger is not None:
            until = lambda _s: self._merger.done  # noqa: E731
        else:
            pes = self._pripe_modules
            until = lambda _s: all(pe.done for pe in pes)  # noqa: E731
        report = sim.run(max_cycles=max_cycles, until=until)
        if not report.completed:
            raise RuntimeError(
                f"simulation hit the {max_cycles}-cycle budget before "
                f"completing ({self._total_processed()} of {len(batch)} "
                "tuples processed) — raise max_cycles"
            )

        if self.kernel.decomposable:
            result = self.kernel.collect(
                [pe.buffer for pe in self._pripe_modules]
            )
        else:
            result = self.kernel.collect(
                [pe.buffer for pe in self._pripe_modules]
                + [pe.buffer for pe in self._secpe_modules]
            )
        counts = {
            pe.pe_id: pe.tuples_processed
            for pe in self._pripe_modules + self._secpe_modules
        }
        plans: List[SchedulingPlan] = []
        if self._merger is not None:
            plans = list(self._merger.merge_log)
        return ArchitectureResult(
            result=result,
            cycles=report.cycles,
            tuples=len(batch),
            report=report,
            pe_tuple_counts=counts,
            plans=plans,
            reschedules=self._host.reenqueues if self._host else 0,
            config=self.config,
        )

    def _total_processed(self) -> int:
        return sum(
            pe.tuples_processed
            for pe in self._pripe_modules + self._secpe_modules
        )
