"""OpenMP target offload: compiler spread, data-environment semantics,
runtime mapping behaviour, and name normalization."""

import numpy as np
import pytest

from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.engine.study_vec import price_context
from repro.engine.timing import time_gpu_kernel
from repro.hardware.device import platform_for
from repro.hardware.specs import Precision
from repro.models.base import Capability, ExecutionContext, TransferPolicy
from repro.models.omp_offload import (
    DEFAULT_OMP_COMPILER,
    OMP_OFFLOAD_PROFILE,
    OMP_OFFLOAD_PROFILES,
    OmpTargetError,
    OpenMPOffload,
)
from repro.models.registry import normalize_model_name, omp_offload_rows, profile_for


def _spec(n: int = 1 << 16) -> KernelSpec:
    return KernelSpec(
        name="t.stream",
        work_items=n,
        ops=OpCount(flops=4 * n, int_ops=n, bytes_read=4 * n, bytes_written=4 * n),
        access=AccessPattern(kind=AccessKind.STREAMING, working_set_bytes=8 * n),
        workgroup_size=128,
    )


def _ctx(platform: str = "v100") -> ExecutionContext:
    return ExecutionContext(platform=platform_for(platform), precision=Precision.SINGLE)


# -- the compiler family ------------------------------------------------


class TestProfiles:
    def test_four_toolchains(self):
        assert set(OMP_OFFLOAD_PROFILES) == {"xl", "cray", "clang", "gcc"}

    def test_all_share_the_canonical_name(self):
        for profile in OMP_OFFLOAD_PROFILES.values():
            assert profile.name == "OpenMP Offload"

    def test_directive_surface_matches_openacc(self):
        """Same expressiveness class as OpenACC: vectorization only,
        data-region transfer policy — the Figure 11 row repeats."""
        for profile in OMP_OFFLOAD_PROFILES.values():
            assert profile.capabilities == Capability.VECTORIZE
            assert profile.transfer_policy == TransferPolicy.DATA_REGION

    def test_davis_spread_ordering(self):
        """Davis et al.'s V100 result: XL/Cray lead, Clang close behind,
        GCC far behind — on every efficiency axis."""
        by = OMP_OFFLOAD_PROFILES
        for attr in ("vector_efficiency_regular", "vector_efficiency_irregular",
                     "memory_efficiency"):
            xl, cray, clang, gcc = (
                getattr(by[c], attr) for c in ("xl", "cray", "clang", "gcc")
            )
            assert xl >= cray >= clang > gcc

    def test_gcc_is_materially_slower_on_hardware(self):
        """The spread is not cosmetic: the same kernel on the same V100
        prices at least 2x slower through the GCC profile."""
        gpu = platform_for("v100").gpu
        spec = _spec(1 << 26)  # large enough to clear the kernel floor
        best = time_gpu_kernel(OMP_OFFLOAD_PROFILES["xl"].lower(spec), gpu, Precision.SINGLE)
        worst = time_gpu_kernel(OMP_OFFLOAD_PROFILES["gcc"].lower(spec), gpu, Precision.SINGLE)
        assert worst.seconds / best.seconds >= 2.0

    def test_registry_serves_the_default_profile(self):
        assert profile_for("OpenMP Offload") is OMP_OFFLOAD_PROFILE
        assert OMP_OFFLOAD_PROFILE is OMP_OFFLOAD_PROFILES[DEFAULT_OMP_COMPILER]

    def test_omp_offload_rows_cover_every_toolchain(self):
        rows = omp_offload_rows()
        assert len(rows) == len(OMP_OFFLOAD_PROFILES)
        assert all(r.model.startswith("OpenMP Offload") for r in rows)


# -- alias normalization ------------------------------------------------


class TestNormalization:
    @pytest.mark.parametrize("alias", [
        "omp-offload", "OMP-Offload", "openmp-offload", "openmp offload",
        "omp_offload", "omp-target", "target",
    ])
    def test_aliases_resolve(self, alias):
        assert normalize_model_name(alias) == "OpenMP Offload"

    def test_canonical_names_pass_through(self):
        for name in ("OpenCL", "C++ AMP", "OpenACC", "OpenMP Offload", "Serial"):
            assert normalize_model_name(name) == name

    def test_unknown_names_pass_through_for_the_registry_to_reject(self):
        assert normalize_model_name("CUDA") == "CUDA"
        with pytest.raises(KeyError):
            profile_for(normalize_model_name("CUDA"))


# -- runtime semantics --------------------------------------------------


class TestRuntime:
    def test_unknown_compiler_rejected(self):
        with pytest.raises(OmpTargetError, match="unknown OpenMP offload compiler"):
            OpenMPOffload(_ctx(), compiler="nvhpc")

    def test_bad_clauses_rejected(self):
        omp = OpenMPOffload(_ctx())
        a = np.zeros(8, dtype=np.float32)
        with pytest.raises(OmpTargetError, match="num_teams"):
            omp.target_teams_loop(lambda *_: None, _spec(8), arrays=[a], num_teams=0)
        with pytest.raises(OmpTargetError, match="thread_limit"):
            omp.target_teams_loop(lambda *_: None, _spec(8), arrays=[a], thread_limit=-1)

    def test_update_of_unmapped_array_is_an_error(self):
        omp = OpenMPOffload(_ctx("dgpu"))
        host = np.zeros(8, dtype=np.float32)
        with pytest.raises(OmpTargetError, match="unmapped"):
            omp.update_from(host)
        with pytest.raises(OmpTargetError, match="unmapped"):
            omp.update_to(host)

    def test_data_region_hoists_transfers(self):
        """Inside target data, launches move nothing; the region itself
        pays exactly one h2d per map(to:) and one d2h per map(from:)."""
        ctx = _ctx("v100")
        omp = OpenMPOffload(ctx)
        n = 1 << 10
        a = np.ones(n, dtype=np.float32)
        out = np.zeros(n, dtype=np.float32)

        def copy(a_, out_):
            out_[:] = a_

        with omp.target_data(to=[a], from_=[out]):
            before = price_context(ctx).counters.transfers
            omp.target_teams_loop(copy, _spec(n), arrays=[a, out], writes=[out])
            assert price_context(ctx).counters.transfers == before  # mapped: no per-launch copies
        assert price_context(ctx).counters.transfers == 2  # region entry + exit
        assert out.sum() == n

    def test_unmapped_arrays_round_trip_per_launch(self):
        """Outside any data environment, every launch implicitly maps
        tofrom — the conservative behaviour that hurts discrete GPUs."""
        ctx = _ctx("v100")
        omp = OpenMPOffload(ctx)
        n = 1 << 10
        a = np.ones(n, dtype=np.float32)
        out = np.zeros(n, dtype=np.float32)
        omp.target_teams_loop(lambda a_, o_: None, _spec(n), arrays=[a, out], writes=[out])
        # two h2d (both arrays in) + one d2h (only the written array back)
        assert price_context(ctx).counters.transfers == 3

    def test_unified_memory_moves_nothing(self):
        ctx = _ctx("apu")
        omp = OpenMPOffload(ctx)
        n = 1 << 10
        a = np.ones(n, dtype=np.float32)
        with omp.target_data(tofrom=[a]):
            omp.target_teams_loop(lambda a_: None, _spec(n), arrays=[a])
        assert price_context(ctx).counters.transfers == 0

    def test_update_from_fetches_device_values(self):
        ctx = _ctx("v100")
        omp = OpenMPOffload(ctx)
        host = np.zeros(4, dtype=np.float32)

        def bump(x):
            x += 1.0

        with omp.target_data(tofrom=[host]):
            omp.target_teams_loop(bump, _spec(4), arrays=[host], writes=[host])
            omp.update_from(host)
            assert host.sum() == 4.0

    def test_charges_heavier_launch_overhead_than_openacc(self):
        """libomptarget's generic dispatch costs more per launch than
        the PGI OpenACC runtime."""
        from repro.engine.launch import OMP_OFFLOAD_DGPU, OPENACC_DGPU

        assert OMP_OFFLOAD_DGPU.launch_cost(4) > OPENACC_DGPU.launch_cost(4)
