"""Cycle-driven simulation engine.

The engine models the execution substrate that Intel's OpenCL-for-FPGA
runtime provides to the paper's kernels:

* **Channels** (:class:`~repro.sim.channel.Channel`) are the bounded FIFOs
  that connect concurrently running kernels.  A write performed in cycle
  *t* becomes visible to readers in cycle *t + 1* (two-phase commit), and a
  write into a full channel fails, which is how backpressure propagates.
* **Modules** (:class:`~repro.sim.module.Module`) are the kernels: each is
  ticked once per cycle and communicates only through channels.
* The **Simulator** (:class:`~repro.sim.engine.Simulator`) advances cycles,
  commits channels between cycles and records utilisation statistics.
* The **memory engine** (:mod:`repro.sim.memory`) models the burst-coalesced
  global-memory interface that feeds N tuples per cycle into the design.
"""

from repro.sim.channel import Channel, ChannelClosed
from repro.sim.engine import SimulationReport, Simulator
from repro.sim.memory import GlobalMemory, MemoryReadEngine, MemoryWriteEngine
from repro.sim.module import Module

__all__ = [
    "Channel",
    "ChannelClosed",
    "GlobalMemory",
    "MemoryReadEngine",
    "MemoryWriteEngine",
    "Module",
    "SimulationReport",
    "Simulator",
]
