"""Cross-validation: the analytic timing model vs the event scheduler.

The closed-form roofline (`timing_vec.py`, one kernel at a time via
`timing.py`) is fast enough to price every launch of a study; the event-driven scheduler (`scheduler.py`) models
the machine in more detail but costs one event per workgroup.  This
module runs both over a set of kernels and reports where they diverge,
so calibration drift is caught mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.device import GPUDevice, make_dgpu_platform
from ..hardware.specs import Precision
from .kernel import KernelSpec, LoweredKernel, hand_tuned
from .memo import cached_simulate_kernel, cached_time_gpu_kernel


@dataclass(frozen=True)
class ValidationPoint:
    """Analytic vs scheduled time for one kernel."""

    kernel: str
    analytic_seconds: float
    scheduled_seconds: float

    @property
    def ratio(self) -> float:
        """scheduled / analytic (1.0 = perfect agreement)."""
        return self.scheduled_seconds / self.analytic_seconds

    def agrees(self, tolerance: float = 2.5) -> bool:
        """Within a multiplicative band around agreement."""
        return 1.0 / tolerance < self.ratio < tolerance


def validate_kernel(
    lowered: LoweredKernel,
    gpu: GPUDevice | None = None,
    precision: Precision = Precision.SINGLE,
) -> ValidationPoint:
    """Run one lowered kernel through both models."""
    gpu = gpu or make_dgpu_platform().gpu
    analytic = cached_time_gpu_kernel(lowered, gpu, precision).seconds
    scheduled = cached_simulate_kernel(lowered, gpu, precision).seconds
    return ValidationPoint(
        kernel=lowered.spec.name,
        analytic_seconds=analytic,
        scheduled_seconds=scheduled,
    )


def validate_specs(
    specs: dict[str, KernelSpec] | list[KernelSpec],
    gpu: GPUDevice | None = None,
    precision: Precision = Precision.SINGLE,
) -> list[ValidationPoint]:
    """Cross-validate a whole kernel set (e.g. one app's specs)."""
    if isinstance(specs, dict):
        specs = list(specs.values())
    gpu = gpu or make_dgpu_platform().gpu
    return [validate_kernel(hand_tuned(spec), gpu, precision) for spec in specs]


def disagreements(points: list[ValidationPoint], tolerance: float = 2.5) -> list[ValidationPoint]:
    """The points outside the agreement band (ideally empty)."""
    return [point for point in points if not point.agrees(tolerance)]
