"""Performance counters.

A :class:`PerfCounters` holds everything one priced application run
produces: kernel time, transfer time, instruction and byte counts, and
launch counts, folded from the run's charge log by
:func:`repro.engine.study_vec.price_cell`.  Table I's IPC column and
the speedups of Figures 8/9 are both derived from these counters.
"""

from __future__ import annotations

from dataclasses import dataclass

#: What can bound a kernel launch, in limiter-code order
#: (:data:`repro.engine.timing_vec.FLOOR`, ``COMPUTE``, ``MEMORY``).
LIMITERS = ("floor", "compute", "memory")


@dataclass
class PerfCounters:
    """Aggregated counters for one application execution."""

    kernel_seconds: float = 0.0
    transfer_seconds: float = 0.0
    host_seconds: float = 0.0
    launch_overhead_seconds: float = 0.0
    instructions: float = 0.0
    cycles: float = 0.0
    flops: float = 0.0
    dram_bytes: float = 0.0
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    kernel_launches: int = 0
    transfers: int = 0
    #: Dynamic energy integrated over the charge timeline
    #: (``repro.engine.energy``): kernel switching energy and staging
    #: link energy.  Static (idle) energy is added per run when the
    #: result is priced — it depends on total duration, not events.
    kernel_joules: float = 0.0
    transfer_joules: float = 0.0
    #: Kernel launches by what bounded them (:data:`LIMITERS`); the
    #: three sum to ``kernel_launches``.
    floor_launches: int = 0
    compute_launches: int = 0
    memory_launches: int = 0

    @property
    def total_seconds(self) -> float:
        """End-to-end simulated time of the run."""
        return (
            self.kernel_seconds
            + self.transfer_seconds
            + self.host_seconds
            + self.launch_overhead_seconds
        )

    @property
    def ipc(self) -> float:
        """Average retired instructions per (per-CU) cycle.

        This matches Table I's definition: dynamic instructions over
        elapsed device cycles, averaged over the compute units that the
        kernels ran on.
        """
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Combine counters of two runs (e.g. per-phase accounting)."""
        return PerfCounters(
            kernel_seconds=self.kernel_seconds + other.kernel_seconds,
            transfer_seconds=self.transfer_seconds + other.transfer_seconds,
            host_seconds=self.host_seconds + other.host_seconds,
            launch_overhead_seconds=self.launch_overhead_seconds + other.launch_overhead_seconds,
            instructions=self.instructions + other.instructions,
            cycles=self.cycles + other.cycles,
            flops=self.flops + other.flops,
            dram_bytes=self.dram_bytes + other.dram_bytes,
            bytes_to_device=self.bytes_to_device + other.bytes_to_device,
            bytes_to_host=self.bytes_to_host + other.bytes_to_host,
            kernel_launches=self.kernel_launches + other.kernel_launches,
            transfers=self.transfers + other.transfers,
            kernel_joules=self.kernel_joules + other.kernel_joules,
            transfer_joules=self.transfer_joules + other.transfer_joules,
            floor_launches=self.floor_launches + other.floor_launches,
            compute_launches=self.compute_launches + other.compute_launches,
            memory_launches=self.memory_launches + other.memory_launches,
        )
