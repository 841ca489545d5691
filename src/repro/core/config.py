"""Architecture configuration (the tunables of Fig. 3 and §V-C).

The configuration captures everything the Ditto system generator decides:
the number of PrePEs (``lanes``), PriPEs and SecPEs, the initiation
intervals that drive Eq. 1, and the control parameters of the runtime
profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ArchitectureConfig:
    """Static configuration of one skew-oblivious implementation.

    Attributes
    ----------
    lanes:
        N — number of PrePEs / memory lanes; the memory interface delivers
        ``lanes`` tuples per cycle (``W_mem / W_tuple``).
    pripes:
        M — number of primary PEs; each owns a distinct key range.
    secpes:
        X — number of secondary PEs, ``0 <= X <= M - 1`` (§V-C: M - 1
        suffices for the worst case where all data hit one PriPE).
    ii_prepe:
        Initiation interval of a PrePE (cycles per tuple).
    ii_pe:
        Initiation interval of a PriPE/SecPE.  2 throughout the paper:
        one cycle reading from and one writing to the private buffer.
    channel_depth:
        Depth of the datapath channels.  Deep channels absorb short skew
        bursts (the Fig. 9 recovery at tiny intervals).
    group_channel_depth:
        Depth (in N-tuple groups) of the per-datapath routing FIFOs.
    profiling_cycles:
        Length of the profiler's workload-counting window (256 in Fig. 5).
    monitor_window:
        Clock ticks between throughput evaluations while monitoring.
    reschedule_threshold:
        Fraction of the post-plan peak throughput below which the profiler
        declares the distribution changed and triggers rescheduling.
        Setting it to 0 disables rescheduling (paper §IV-C3).
    reenqueue_delay_cycles:
        Cycles the host needs to dequeue and re-enqueue the profiler and
        the SecPEs (OpenCL kernel launch overhead translated to kernel
        clock cycles).
    """

    lanes: int = 8
    pripes: int = 16
    secpes: int = 0
    ii_prepe: int = 1
    ii_pe: int = 2
    channel_depth: int = 512
    group_channel_depth: int = 64
    profiling_cycles: int = 256
    monitor_window: int = 1024
    reschedule_threshold: float = 0.5
    reenqueue_delay_cycles: int = 2048

    def __post_init__(self) -> None:
        if self.lanes <= 0:
            raise ValueError("lanes must be positive")
        if self.pripes <= 0:
            raise ValueError("pripes must be positive")
        if not 0 <= self.secpes <= self.pripes - 1:
            raise ValueError(
                f"secpes must be in [0, pripes-1]; got {self.secpes} "
                f"with {self.pripes} PriPEs (paper §V-C upper bound)"
            )
        if self.ii_prepe <= 0 or self.ii_pe <= 0:
            raise ValueError("initiation intervals must be positive")
        if self.channel_depth <= 0 or self.group_channel_depth <= 0:
            raise ValueError("channel depths must be positive")
        if self.profiling_cycles <= 0:
            raise ValueError("profiling_cycles must be positive")
        if self.monitor_window <= 0:
            raise ValueError("monitor_window must be positive")
        if not 0.0 <= self.reschedule_threshold <= 1.0:
            raise ValueError("reschedule_threshold must be in [0, 1]")
        if self.reenqueue_delay_cycles < 0:
            raise ValueError("reenqueue_delay_cycles must be non-negative")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def designated_pes(self) -> int:
        """M + X — total number of buffer-owning PEs."""
        return self.pripes + self.secpes

    @property
    def label(self) -> str:
        """Display label in the paper's notation (e.g. ``16P+4S``)."""
        if self.secpes == 0:
            return f"{self.pripes}P"
        return f"{self.pripes}P+{self.secpes}S"

    @property
    def skew_handling(self) -> bool:
        """True when SecPEs (and hence mapper/profiler/merger) exist."""
        return self.secpes > 0

    def reschedule_cost_cycles(self, detection_windows: int = 2) -> int:
        """Cycles from a distribution change to a fresh effective plan:
        detection, channel drain, host re-enqueue, re-profiling and the
        serial emission of one plan pair per SecPE."""
        return (detection_windows * self.monitor_window
                + self.channel_depth * self.ii_pe
                + self.reenqueue_delay_cycles
                + self.profiling_cycles
                + self.secpes)

    def balanced_for_bandwidth(self) -> bool:
        """Check Eq. 1: N / II_PrePE == M / II_PE == W_mem / W_tuple.

        The memory-lane count is N, so the equality reduces to
        ``pripes / ii_pe == lanes / ii_prepe``.
        """
        return self.pripes * self.ii_prepe == self.lanes * self.ii_pe

    def with_secpes(self, secpes: int) -> "ArchitectureConfig":
        """A copy of this configuration with a different SecPE count."""
        return replace(self, secpes=secpes)

