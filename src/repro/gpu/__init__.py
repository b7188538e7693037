"""GPU execution model: SIMT accounting, streams, and the machine facade.

The INLJ "dispatches a thread for each tuple of the probe side relation"
(Section 3.3.1); Harmonia reschedules threads into sub-warps; windowed
partitioning overlaps two CUDA streams (Section 5.1).  This package models
those execution-side behaviours; the memory side lives in
:mod:`repro.hardware`.
"""

from .simt import SimtCost, divergent_cost, subwarp_lookup_cost, warps_needed
from .streams import StageTiming, overlapped_pipeline_time, serial_pipeline_time
from .executor import LookupTrace, MachineModel

__all__ = [
    "SimtCost",
    "divergent_cost",
    "subwarp_lookup_cost",
    "warps_needed",
    "StageTiming",
    "overlapped_pipeline_time",
    "serial_pipeline_time",
    "LookupTrace",
    "MachineModel",
]
