"""Online processing session: accumulate results across stream segments.

Each segment runs through a fresh pipeline instance (as the hardware
would restart its input DMA per buffer), while the application-level
result accumulates on the host side — a running histogram, a running
HLL register file, growing partitions.  The session also tracks
per-segment throughput so online experiments can watch the architecture
adapt to distribution changes.

Accumulation uses :meth:`KernelSpec.combine_results`, implemented per
application (histograms add, HLL registers max-fold, partitions extend).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.architecture import SkewObliviousArchitecture
from repro.core.config import ArchitectureConfig
from repro.core.kernel import KernelSpec
from repro.workloads.tuples import TupleBatch


@dataclass
class SegmentOutcome:
    """Per-segment record kept by the session."""

    index: int
    tuples: int
    cycles: int
    tuples_per_cycle: float
    plans: int
    reschedules: int


@dataclass
class SessionSnapshot:
    """Portable state of one session: the running result plus history.

    This is the unit the multi-process execution backend ships between a
    worker subprocess and the dispatcher: everything needed to fold the
    worker's partial into the job's merged session
    (:meth:`StreamingSession.absorb`), without the kernel, config, or any
    other live object crossing the process boundary.  ``kernel_type``
    names the kernel class so a snapshot cannot be absorbed into a
    session of a different application.
    """

    kernel_type: str
    result: Any
    history: List[SegmentOutcome] = field(default_factory=list)


@dataclass
class StreamingSession:
    """Processes stream segments and accumulates the application result.

    Parameters
    ----------
    config:
        Architecture configuration used for every segment.
    kernel:
        Application logic; must implement ``combine_results`` for its
        result type.
    max_cycles_per_segment:
        Cycle budget per segment run (cycle engine only).
    engine:
        ``"cycle"`` (default) runs every segment through the per-cycle
        simulator; ``"fast"`` uses the vectorised fast-path executor
        (:mod:`repro.core.fastpath`) — identical results, modeled
        cycles.
    """

    config: ArchitectureConfig
    kernel: KernelSpec
    max_cycles_per_segment: int = 20_000_000
    engine: str = "cycle"
    result: Optional[Any] = None
    history: List[SegmentOutcome] = field(default_factory=list)

    def __post_init__(self) -> None:
        # One pipeline description per session, not one per segment.
        self._architecture = SkewObliviousArchitecture(self.config,
                                                       self.kernel)

    def process(self, batch: TupleBatch) -> SegmentOutcome:  # hot-path
        """Run one segment and fold its result into the running total."""
        outcome = self._architecture.run(
            batch, max_cycles=self.max_cycles_per_segment,
            engine=self.engine)
        if self.result is None:
            self.result = outcome.result
        else:
            self.result = self.kernel.combine_results(self.result,
                                                      outcome.result)
        record = SegmentOutcome(
            index=len(self.history),
            tuples=len(batch),
            cycles=outcome.cycles,
            tuples_per_cycle=outcome.tuples_per_cycle,
            plans=len(outcome.plans),
            reschedules=outcome.reschedules,
        )
        self.history.append(record)
        return record

    def merge_from(self, other: "StreamingSession") -> None:
        """Fold another session's running result and history into this one.

        The serving layer shards one stream across several workers, each
        holding a partial :class:`StreamingSession`; the partials merge
        back into a single session exactly as :meth:`absorb` folds a
        snapshot.
        """
        if other.kernel.__class__ is not self.kernel.__class__:
            raise ValueError(
                "cannot merge sessions of different applications "
                f"({type(self.kernel).__name__} vs "
                f"{type(other.kernel).__name__})"
            )
        self.absorb(other.snapshot())

    def snapshot(self) -> SessionSnapshot:
        """Portable copy of the session's accumulated state.

        The result object is shared, not copied: snapshots are taken at
        process-boundary handoff points where the source session is
        about to be discarded (or pickled, which copies anyway).
        """
        return SessionSnapshot(
            kernel_type=type(self.kernel).__name__,
            result=self.result,
            history=list(self.history),
        )

    def absorb(self, snapshot: SessionSnapshot) -> None:
        """Fold a :class:`SessionSnapshot` into this session.

        Results fold with the same ``combine_results`` reduction used
        between segments.  Histories concatenate and are re-indexed so
        ``history[i].index == i`` stays true.
        """
        if snapshot.kernel_type != type(self.kernel).__name__:
            raise ValueError(
                "cannot absorb a snapshot of a different application "
                f"({type(self.kernel).__name__} vs "
                f"{snapshot.kernel_type})"
            )
        if snapshot.result is not None:
            if self.result is None:
                self.result = snapshot.result
            else:
                self.result = self.kernel.combine_results(
                    self.result, snapshot.result)
        self.history.extend(
            SegmentOutcome(index, record.tuples, record.cycles,
                           record.tuples_per_cycle, record.plans,
                           record.reschedules)
            for index, record in enumerate(snapshot.history,
                                           len(self.history)))

    @property
    def total_tuples(self) -> int:
        """Tuples processed across all segments."""
        return sum(record.tuples for record in self.history)

    @property
    def total_cycles(self) -> int:
        """Cycles consumed across all segments."""
        return sum(record.cycles for record in self.history)

    def average_throughput(self) -> float:
        """Session-wide tuples per cycle."""
        cycles = self.total_cycles
        return self.total_tuples / cycles if cycles else 0.0
