"""Hardware models: devices, clocks, memories, caches and interconnects.

This subpackage is the simulated replacement for the paper's physical
testbed (Table II): an AMD Radeon R9 280X discrete GPU behind PCIe and
an AMD A10-7850K APU with unified memory, both hosted by the same
4-core CPU.
"""

from .cache import CacheStats, SetAssociativeCache, validate_geometry
from .compute_unit import Occupancy, latency_hiding_factor, occupancy, wavefronts_for
from .device import (
    CPUDevice,
    GPUDevice,
    Platform,
    make_apu_platform,
    make_dgpu_platform,
    make_platform,
)
from .frequency import (
    PAPER_CORE_SWEEP_MHZ,
    PAPER_MEMORY_SWEEP_MHZ,
    ClockDomain,
    FrequencyError,
    FrequencyPlan,
    paper_sweep_grid,
)
from .interconnect import Interconnect, TransferRecord
from .memory import MemorySystem
from .specs import (
    A10_7850K_CPU,
    A10_7850K_GPU,
    HSA_UNIFIED,
    PCIE3_X16,
    R9_280X,
    CacheSpec,
    CPUSpec,
    GPUSpec,
    InterconnectSpec,
    MemoryTechnology,
    Precision,
    table2_rows,
)

__all__ = [
    "A10_7850K_CPU",
    "A10_7850K_GPU",
    "CacheSpec",
    "CacheStats",
    "ClockDomain",
    "CPUDevice",
    "CPUSpec",
    "FrequencyError",
    "FrequencyPlan",
    "GPUDevice",
    "GPUSpec",
    "HSA_UNIFIED",
    "Interconnect",
    "InterconnectSpec",
    "MemorySystem",
    "MemoryTechnology",
    "Occupancy",
    "PAPER_CORE_SWEEP_MHZ",
    "PAPER_MEMORY_SWEEP_MHZ",
    "PCIE3_X16",
    "Platform",
    "Precision",
    "R9_280X",
    "SetAssociativeCache",
    "TransferRecord",
    "validate_geometry",
    "latency_hiding_factor",
    "make_apu_platform",
    "make_dgpu_platform",
    "make_platform",
    "occupancy",
    "paper_sweep_grid",
    "table2_rows",
    "wavefronts_for",
]
