"""Online processing session: accumulate results across stream segments.

Each segment runs through a fresh pipeline instance (as the hardware
would restart its input DMA per buffer), while the application-level
result accumulates on the host side — a running histogram, a running
HLL register file, growing partitions — and three running totals
(segments, tuples, cycles).  Nothing is kept per segment, so a session's
size does not grow with the stream.

Accumulation uses :meth:`KernelSpec.combine_results`, implemented per
application (histograms add, HLL registers max-fold, partitions extend)
by :meth:`StreamingSession.fold`, which the inline pool's window pass
calls directly with each worker's kernel *state* (DP's runs of keys);
the job's answer is read off the merged state once, at collect
(:meth:`KernelSpec.answer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.architecture import (
    ArchitectureResult,
    SkewObliviousArchitecture,
)
from repro.core.config import ArchitectureConfig
from repro.core.fastpath import validate_engine
from repro.core.kernel import KernelSpec
from repro.workloads.tuples import TupleBatch


@dataclass
class SessionSnapshot:
    """Portable state of one session: the running result plus totals.

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
    segments: int
    total_tuples: int
    total_cycles: int


@dataclass
class StreamingSession:
    """Processes stream segments and accumulates the application result.

    ``result`` is whatever the session folded: :meth:`process` folds
    each segment's answer, as the architecture returns it, while the
    inline pool's window pass folds kernel states with :meth:`fold`,
    and its ``collect`` turns the merged state into the answer
    (:meth:`KernelSpec.answer`).  The two differ only for DP, whose
    state is a run of key arrays.

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
    #: Segments processed, and the tuples / cycles summed over them.
    segments: int = field(default=0, init=False)
    total_tuples: int = field(default=0, init=False)
    total_cycles: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        # One pipeline per session, not per segment; an unknown engine
        # fails here.
        self._architecture = SkewObliviousArchitecture(self.config,
                                                       self.kernel)
        validate_engine(self.engine)

    def process(self, batch: TupleBatch) -> ArchitectureResult:  # hot-path
        """Run one segment, fold it in, and return the engine's outcome
        (``bench/tracing.py`` wraps this name until ROADMAP item 2)."""
        outcome = self._architecture.run(
            batch, max_cycles=self.max_cycles_per_segment,
            engine=self.engine)
        self.fold(outcome.result, outcome.tuples, outcome.cycles)
        return outcome

    def fold(self, result: Any, tuples: int, cycles: int) -> None:  # hot-path
        """Fold one segment in: its result (None: a window pass folded
        the segment's result into another worker's session) and its
        tuples and cycles."""
        if result is not None:
            self.result = (result if self.result is None
                           else self.kernel.combine_results(self.result,
                                                            result))
        self.segments += 1
        self.total_tuples += tuples
        self.total_cycles += cycles

    def merge_from(self, other: "StreamingSession") -> None:
        """Fold another session's running result and totals into this one.

        The serving layer shards one stream across several workers, each
        holding a partial :class:`StreamingSession`; the partials merge
        back into a single session exactly as :meth:`absorb` folds a
        snapshot (which is what rejects another application's session).
        ``bench/tracing.py`` wraps this name until ROADMAP item 2.
        """
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
            segments=self.segments,
            total_tuples=self.total_tuples,
            total_cycles=self.total_cycles,
        )

    def absorb(self, snapshot: SessionSnapshot) -> None:
        """Fold a :class:`SessionSnapshot` into this session.

        Results fold with the same ``combine_results`` reduction used
        between segments; the totals add (``bench/tracing.py`` wraps
        this name until ROADMAP item 2).
        """
        if snapshot.kernel_type != type(self.kernel).__name__:
            raise ValueError(
                "cannot fold in state of different applications "
                f"({type(self.kernel).__name__} vs "
                f"{snapshot.kernel_type})"
            )
        if snapshot.result is not None:
            if self.result is None:
                self.result = snapshot.result
            else:
                self.result = self.kernel.combine_results(
                    self.result, snapshot.result)
        self.segments += snapshot.segments
        self.total_tuples += snapshot.total_tuples
        self.total_cycles += snapshot.total_cycles
