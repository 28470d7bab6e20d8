"""Ablation experiments: turn off one mechanism, measure what it cost.

The paper's Sec. VI attributes each performance gap to a specific
mechanism — compiler-managed transfers, missing LDS tiling, the CLAMP
LULESH bug.  These helpers flip exactly one knob at a time so the
attribution can be measured rather than argued.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..apps.base import ProxyApp, RunResult
from ..engine.kernel import KernelSpec
from ..engine.memo import cached_time_gpu_kernel
from ..hardware.device import Platform, make_dgpu_platform
from ..hardware.specs import Precision
from ..models import cppamp
from ..models.base import Capability, CompilerProfile, ExecutionContext
from .study import run_port


@dataclass(frozen=True)
class TransferDecomposition:
    """Kernel/transfer/overhead split of one run."""

    model: str
    kernel_seconds: float
    transfer_seconds: float
    overhead_seconds: float
    total_seconds: float
    bytes_moved: int

    @property
    def transfer_share(self) -> float:
        return self.transfer_seconds / self.total_seconds if self.total_seconds else 0.0


def decompose_transfers(
    app: ProxyApp,
    config: object,
    apu: bool = False,
    precision: Precision = Precision.SINGLE,
    models: tuple[str, ...] = ("OpenCL", "C++ AMP", "OpenACC"),
) -> dict[str, TransferDecomposition]:
    """Where does each model's time go on this workload?"""
    out = {}
    for model in models:
        run = run_port(app, model, apu, precision, config, projection=True)
        counters = run.counters
        out[model] = TransferDecomposition(
            model=model,
            kernel_seconds=counters.kernel_seconds,
            transfer_seconds=counters.transfer_seconds,
            overhead_seconds=counters.launch_overhead_seconds + counters.host_seconds,
            total_seconds=run.seconds,
            bytes_moved=counters.bytes_to_device + counters.bytes_to_host,
        )
    return out


def without_capabilities(profile: CompilerProfile, removed: Capability) -> CompilerProfile:
    """A copy of ``profile`` with some capabilities masked off."""
    return dataclasses.replace(profile, capabilities=profile.capabilities & ~removed)


def tiling_ablation(
    spec: KernelSpec,
    profile: CompilerProfile,
    platform: Platform | None = None,
    precision: Precision = Precision.SINGLE,
) -> tuple[float, float]:
    """(tiled_seconds, untiled_seconds) for one kernel under one
    toolchain, with LDS + tile barriers masked in the untiled case
    (the paper's 'tiles improved CoMD by almost 3x' experiment)."""
    platform = platform or make_dgpu_platform()
    untiled_profile = without_capabilities(profile, Capability.LDS | Capability.FINE_SYNC)
    tiled = cached_time_gpu_kernel(profile.lower(spec), platform.gpu, precision).seconds
    untiled = cached_time_gpu_kernel(untiled_profile.lower(spec), platform.gpu, precision).seconds
    return tiled, untiled


def lulesh_compiler_bug_ablation(
    config: object,
    precision: Precision = Precision.SINGLE,
) -> tuple[RunResult, RunResult]:
    """(buggy, fixed) C++ AMP LULESH runs on the dGPU.

    ``buggy`` reproduces the paper (CLAMP v0.6.0 cannot compile
    calc_kinematics, which falls back to the CPU); ``fixed`` pretends
    the compiler bug were repaired.
    """
    from ..apps.lulesh import APP as LULESH
    from ..engine.study_vec import priced_run

    def run(workaround: bool) -> RunResult:
        original = cppamp.AmpRuntime.__init__

        def patched(self, ctx, workaround_known_bugs=False):
            original(self, ctx, workaround_known_bugs=workaround)

        cppamp.AmpRuntime.__init__ = patched
        try:
            ctx = ExecutionContext(
                platform=make_dgpu_platform(), precision=precision, execute_kernels=False
            )
            return priced_run(LULESH.ports["C++ AMP"], ctx, config)
        finally:
            cppamp.AmpRuntime.__init__ = original

    return run(workaround=False), run(workaround=True)
