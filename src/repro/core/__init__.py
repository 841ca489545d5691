"""The skew-oblivious data routing architecture (paper §IV, Fig. 3).

The architecture is composed of three kinds of PEs plus routing and
control infrastructure:

* ``N`` **PrePEs** (:mod:`repro.core.prepe`) prepare ``<dst, value>``
  tuples — ``dst`` selects the designated PriPE.
* ``N`` **mappers** (:mod:`repro.core.mapper`) redirect tuples of
  overloaded PriPEs to SecPEs using a mapping table updated from the
  profiler's scheduling plan, in round-robin per destination.
* The **data routing logic** (:mod:`repro.core.routing`) — combiner,
  decoders and filters adopted from Chen et al. [8] — dispatches up to N
  tuples per cycle to the M + X designated PEs.
* ``M`` **PriPEs** and ``X`` **SecPEs** (:mod:`repro.core.pe`) own private
  BRAM buffers and apply the application's update rule at initiation
  interval II.
* The **runtime profiler** (:mod:`repro.core.profiler`) builds the SecPE
  scheduling plan from the observed workload histogram and monitors
  throughput to trigger rescheduling.
* The **merger** (:mod:`repro.core.merger`) folds SecPE partial results
  into the PriPE results according to the scheduling plan.

:class:`~repro.core.architecture.SkewObliviousArchitecture` wires all of
the above onto the cycle simulator and runs a dataset end to end.
"""

from repro.core.architecture import ArchitectureResult, SkewObliviousArchitecture
from repro.core.config import ArchitectureConfig
from repro.core.fastpath import ENGINES, run_fast, validate_engine
from repro.core.kernel import KernelSpec
from repro.core.mapper import Mapper, MappingState
from repro.core.merger import Merger
from repro.core.pe import ProcessingElement
from repro.core.prepe import PrePE
from repro.core.profiler import (
    RuntimeProfiler,
    SchedulingPlan,
    greedy_secpe_plan,
)
from repro.core.routing import Combiner, FilterDecoder

__all__ = [
    "ArchitectureConfig",
    "ArchitectureResult",
    "Combiner",
    "ENGINES",
    "FilterDecoder",
    "KernelSpec",
    "Mapper",
    "MappingState",
    "Merger",
    "PrePE",
    "ProcessingElement",
    "RuntimeProfiler",
    "SchedulingPlan",
    "SkewObliviousArchitecture",
    "greedy_secpe_plan",
    "run_fast",
    "validate_engine",
]
