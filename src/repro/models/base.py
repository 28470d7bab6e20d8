"""Programming-model abstractions.

The paper's comparison rests on three ingredients per model:

1. **Compiler capabilities** (Figure 11) — which optimizations the
   toolchain can express: vectorization, LDS use, fine-grained
   synchronization, explicit loop unrolling, code-motion reduction.
2. **Transfer policy** (Section VI-A) — who moves data to the discrete
   GPU and when: the programmer (OpenCL, explicit, once per phase) or
   the compiler (C++ AMP / OpenACC, conservatively per launch, with
   OpenACC ``data`` regions as a partial remedy).
3. **Code-generation quality** — how close the generated ISA comes to
   hand-tuned OpenCL (measured by the read-memory benchmark: OpenCL is
   1.3x better than C++ AMP and 2x better than OpenACC).

A :class:`Toolchain` bundles these and *lowers* architecture-neutral
:class:`~repro.engine.kernel.KernelSpec` objects into
:class:`~repro.engine.kernel.LoweredKernel` objects the timing model
can price.  Nothing in the lowering hard-codes which model wins: the
outcomes of Figures 8-10 emerge from capabilities x kernels x devices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..engine.kernel import KernelSpec, LoweredKernel
from ..engine.launch import RuntimeOverheads
from ..hardware.device import Platform
from ..hardware.specs import Precision


class Capability(enum.Flag):
    """Optimizations a programming model lets the programmer (or its
    compiler) apply — the rows of Figure 11."""

    NONE = 0
    VECTORIZE = enum.auto()
    LDS = enum.auto()
    FINE_SYNC = enum.auto()
    UNROLL = enum.auto()
    CODE_MOTION = enum.auto()

    @classmethod
    def all(cls) -> "Capability":
        return cls.VECTORIZE | cls.LDS | cls.FINE_SYNC | cls.UNROLL | cls.CODE_MOTION


class TransferPolicy(enum.Enum):
    """Who stages data into discrete-GPU memory, and how often."""

    #: The programmer writes the copies: each buffer moves exactly when
    #: the application says so (OpenCL, Heterogeneous Compute).
    EXPLICIT = "explicit"
    #: The compiler conservatively makes every kernel's inputs resident
    #: before launch and results visible after (CLAMP C++ AMP on dGPU).
    COMPILER_PER_LAUNCH = "compiler-per-launch"
    #: Directive data regions hoist copies to region boundaries, but
    #: anything not covered by a region still moves per launch (PGI
    #: OpenACC).
    DATA_REGION = "data-region"


@dataclass(frozen=True)
class CompilerProfile:
    """Code-generation quality and feature set of one toolchain."""

    name: str
    version: str
    capabilities: Capability
    transfer_policy: TransferPolicy
    #: SIMD lane utilisation of generated code for regular (streaming,
    #: stencil) loops and for irregular (gather, divergent) loops.
    vector_efficiency_regular: float
    vector_efficiency_irregular: float
    #: Coalescing quality of generated global loads/stores.
    memory_efficiency: float
    #: Fraction of a kernel's intrinsic branch divergence the tuner can
    #: remove by restructuring (hand-written kernels only).
    divergence_reduction: float = 0.0
    #: Performance-portability penalty of hand-tuned code run on a
    #: platform it was not tuned for (Sec. VI-A: "OpenCL requires
    #: hand-tuned code for each architecture for performance
    #: portability").  Zero for compiler-retargeted models; OpenCL's
    #: kernels here are tuned for the discrete GPU, so they lose this
    #: fraction of vector/memory efficiency on the APU — fully for
    #: irregular kernels, 30% of it for regular ones.
    retarget_penalty: float = 0.0

    def is_irregular(self, spec: KernelSpec) -> bool:
        """Irregular kernels stress the compiler's ability to map
        parallelism onto vector lanes (Sec. VI-C: OpenACC 'proved
        challenging in terms of mapping the parallelism')."""
        return spec.divergence > 0.05 or spec.cpu_simd_fraction < 0.5

    def lower(self, spec: KernelSpec, retargeted: bool = False) -> LoweredKernel:
        """Lower one kernel spec through this toolchain.

        ``retargeted=True`` prices hand-tuned code on a platform other
        than the one it was tuned for (see :attr:`retarget_penalty`).
        """
        notes: list[str] = []

        if Capability.VECTORIZE not in self.capabilities:
            vector_efficiency = 1.0 / 16.0  # scalar lanes only
            notes.append("no vectorization")
        elif self.is_irregular(spec):
            vector_efficiency = self.vector_efficiency_irregular
            notes.append("irregular-loop codegen")
        else:
            vector_efficiency = self.vector_efficiency_regular
            notes.append("regular-loop codegen")

        memory_efficiency = self.memory_efficiency
        if retargeted and self.retarget_penalty > 0:
            penalty = self.retarget_penalty
            if not self.is_irregular(spec):
                penalty *= 0.3
            vector_efficiency *= 1.0 - penalty
            memory_efficiency *= 1.0 - penalty
            notes.append("hand-tuning retargeted without re-optimization")

        wants_lds = spec.lds_bytes_per_workgroup > 0
        has_lds = Capability.LDS in self.capabilities
        needs_sync = wants_lds and spec.lds_traffic_filter > 0
        has_sync = Capability.FINE_SYNC in self.capabilities
        uses_lds = wants_lds and has_lds and (has_sync or not needs_sync)
        if wants_lds and not uses_lds:
            # Tiling is also a parallelism-mapping strategy: without it
            # the cooperative inner loop degenerates to scattered
            # per-lane work (the paper's CoMD observation that tiles
            # 'improved ... by almost 3x', and PGI's 'inability to
            # expose vector-parallelism').
            vector_efficiency *= 0.55
            notes.append("LDS tiling unavailable; global-memory fallback")

        instruction_scale = 1.0
        if spec.unroll_benefit > 0 and Capability.UNROLL not in self.capabilities:
            instruction_scale /= 1.0 - spec.unroll_benefit / 2.0
            notes.append("no explicit unrolling")
        if spec.unroll_benefit > 0 and Capability.CODE_MOTION not in self.capabilities:
            instruction_scale /= 1.0 - spec.unroll_benefit / 2.0
            notes.append("no code-motion reduction")

        divergence = spec.divergence * (1.0 - self.divergence_reduction)

        return LoweredKernel(
            spec=spec,
            vector_efficiency=vector_efficiency,
            uses_lds=uses_lds,
            instruction_scale=instruction_scale,
            divergence=divergence,
            memory_efficiency=memory_efficiency,
            notes=tuple(notes),
        )


def placeholder(shape: int | tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A read-only zero-stride view of one zero: the shape, dtype and
    ``nbytes`` of ``np.zeros(shape, dtype)`` in O(1) memory, for arrays
    only projection mode sees (kernel bodies never run, so nothing
    reads or writes the elements; a stray host write raises)."""
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


@dataclass
class ExecutionContext:
    """One application run: a platform, a precision, and its charge log.

    Model runtimes append every launch and copy to :attr:`charge_log`
    while executing the application's NumPy kernels functionally; each
    ``charge_*`` call returns 0.0 simulated seconds.  The run is priced
    afterwards, from the finished log
    (:func:`repro.engine.study_vec.priced_run`), so every run, whatever
    its size or mode, goes through one pricing path.

    ``execute_kernels=False`` selects *projection mode*: ports build
    the exact same launch/transfer schedule and log every charge
    identically, but the NumPy kernel bodies and host<->device copies
    are skipped.  This prices paper-sized problems (e.g. CoMD's 864k
    atoms, XSBench's 240 MB table) that would be impractically slow to
    execute functionally.  Output buffers from :meth:`output` are
    read-only placeholders in this mode, so projection checksums are
    defined rather than computed: 0.0 for the output-buffer apps
    (XSBench, miniFE, read-benchmark), the initial-state value for
    LULESH and CoMD.  Correctness is validated at functional sizes.
    """

    platform: Platform
    precision: Precision
    execute_kernels: bool = True
    charge_log: "ChargeLog" = field(default_factory=lambda: ChargeLog())

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype matching the run's floating-point precision."""
        return np.dtype(np.float32 if self.precision is Precision.SINGLE else np.float64)

    def output(self, shape: int | tuple[int, ...], dtype: np.dtype | None = None) -> np.ndarray:
        """A zeroed buffer the port's kernels fill (default: :attr:`dtype`).

        Projection mode never runs the kernels, so it gets a read-only
        zero-stride view of a single zero instead: the same shape, dtype
        and ``nbytes`` (buffer sizing, transfer charges and
        ``array_split`` chunking are unchanged) in O(1) memory, and a
        stray host write raises.
        """
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        if self.execute_kernels:
            return np.zeros(shape, dtype=dtype)
        return placeholder(shape, dtype)

    @staticmethod
    def checksum(array: np.ndarray) -> np.floating:
        """``np.abs(array).sum()``, in O(1) on a projection placeholder
        (every element is the one zero it broadcasts)."""
        if array.size and not any(array.strides) and not array.flat[0]:
            return array.dtype.type(0)
        return np.abs(array).sum()


class ChargeLog:
    """A port's launch/transfer schedule, recorded for pricing.

    Every :class:`ExecutionContext` carries one as ``charge_log``, and
    every ``charge_*`` call is an append to it (each returns 0.0
    simulated seconds, and each runtime's clock reads a constant 0.0):
    a run becomes a flat stream of event ids over a deduplicated event
    table.
    The schedule is clock-independent — clocks change prices, never
    which kernels launch — so one log serves every clock override of
    the cell.

    * ``atoms`` — unique priceable units: ``("gpu", LoweredKernel)``
      after lowering, or ``("cpu", KernelSpec, threads)``.
    * ``transfers`` — unique ``(nbytes, direction)`` copies.
    * ``event_table`` — one entry per distinct charge (one toolchain,
      spec object and launch arguments):
      ``(atom_index, overhead_seconds, transfer_index, counted)`` with
      ``-1`` marking the unused index.  ``counted`` is False only where
      the port discards the charge's return value (a copy whose cost is
      recorded in the counters but never reaches the port's simulated
      clock).
    * ``event_meta`` — parallel to ``event_table``, what telemetry
      names each charge: ``(model, kernel name, n_buffers,
      mapped_bytes, RuntimeOverheads)`` for a GPU launch, ``(model,
      loop name)`` for a CPU loop and ``(model,)`` for a copy.
    * ``event_ids`` — the schedule, in charge order: one
      ``event_table`` index per charge.
    * ``streams`` — the two-stream program of a Heterogeneous Compute
      run (:class:`~repro.models.hc.HCRuntime`), empty for every
      single-accumulator model: ``(kind, event, slots)`` steps in call
      order, where ``kind`` is ``"sync"`` (a copy that joins both
      streams), ``"async"`` (a copy on the DMA stream), ``"ready0"``
      (an array usable at time 0) or ``"launch"``; ``event`` is the
      ``event_ids`` position of the charge the step made (``-1`` for
      ``"ready0"``); ``slots`` number the ready-table entries the step
      writes (copies) or reads (launches), keyed by ``id(host)``.

    A log belongs to one context: its platform (which decides
    hand-tuned retargeting) is fixed for the log's lifetime.
    """

    def __init__(self) -> None:
        self.atoms: list[tuple] = []
        self.transfers: list[tuple[int, str]] = []
        self.event_table: list[tuple[int, float, int, bool]] = []
        self.event_meta: list[tuple] = []
        self.event_ids: list[int] = []
        self._atom_index: dict[tuple, int] = {}
        self._xfer_index: dict[tuple[int, str], int] = {}
        # Event caches keyed by identity: ports re-launch the same
        # (toolchain, spec) objects with the same arguments thousands of
        # times, so each charge is one lookup and one append of an event
        # id.  Values hold the keyed objects, so their ids cannot be
        # recycled while the log lives.
        self._gpu_events: dict[tuple[int, int, int, int], tuple] = {}
        self._cpu_events: dict[tuple[int, int], tuple] = {}
        self._xfer_events: dict[tuple[int, int, str, bool], tuple] = {}
        self.streams: list[tuple[str, int, tuple[int, ...]]] = []
        self._slots: dict[int, int] = {}

    @property
    def events(self) -> list[tuple[int, float, int, bool]]:
        """The schedule as event tuples, in charge order."""
        table = self.event_table
        return [table[i] for i in self.event_ids]

    def _intern(self, key: tuple, atom: tuple) -> int:
        index = self._atom_index.get(key)
        if index is None:
            index = self._atom_index[key] = len(self.atoms)
            self.atoms.append(atom)
        return index

    def _new_event(self, event: tuple[int, float, int, bool], meta: tuple) -> int:
        self.event_table.append(event)
        self.event_meta.append(meta)
        return len(self.event_table) - 1

    def gpu_kernel(
        self,
        toolchain: "Toolchain",
        ctx: ExecutionContext,
        spec: KernelSpec,
        n_buffers: int,
        mapped_bytes: int,
    ) -> float:
        key = (id(toolchain), id(spec), n_buffers, mapped_bytes)
        hit = self._gpu_events.get(key)
        if hit is None:
            profile = toolchain.profile
            # Hand-tuned toolchains (retarget_penalty > 0) are tuned for
            # the discrete GPU; running the same kernels on the APU pays
            # the performance-portability penalty.
            retargeted = profile.retarget_penalty > 0 and ctx.platform.is_apu
            lowered = profile.lower(spec, retargeted=retargeted)
            index = self._intern(("gpu", lowered.cache_key()), ("gpu", lowered))
            overheads = toolchain.overheads
            event = self._new_event(
                (index, overheads.launch_cost(n_buffers, mapped_bytes), -1, True),
                (toolchain.name, spec.name, n_buffers, mapped_bytes, overheads),
            )
            hit = self._gpu_events[key] = (event, toolchain, spec)
        self.event_ids.append(hit[0])
        return 0.0

    def cpu_loop(self, toolchain: "CPUToolchain", spec: KernelSpec) -> float:
        key = (id(toolchain), id(spec))
        hit = self._cpu_events.get(key)
        if hit is None:
            atom = ("cpu", spec, toolchain.threads)
            event = self._new_event(
                (self._intern(atom, atom), toolchain.region_overhead_s, -1, True),
                (toolchain.name, spec.name),
            )
            hit = self._cpu_events[key] = (event, toolchain, spec)
        self.event_ids.append(hit[0])
        return 0.0

    def transfer(
        self, toolchain: "Toolchain", nbytes: int, direction: str, counted: bool
    ) -> float:
        key = (id(toolchain), nbytes, direction, counted)
        hit = self._xfer_events.get(key)
        if hit is None:
            xfer = (int(nbytes), direction)
            index = self._xfer_index.get(xfer)
            if index is None:
                index = self._xfer_index[xfer] = len(self.transfers)
                self.transfers.append(xfer)
            event = self._new_event((-1, 0.0, index, counted), (toolchain.name,))
            hit = self._xfer_events[key] = (event, toolchain)
        self.event_ids.append(hit[0])
        return 0.0

    def stream_step(self, kind: str, arrays: tuple = ()) -> None:
        """Record one step of the two-stream program (see ``streams``);
        every kind but ``"ready0"`` follows the charge it made."""
        slots = self._slots
        keys = tuple(slots.setdefault(id(a), len(slots)) for a in arrays)
        event = -1 if kind == "ready0" else len(self.event_ids) - 1
        self.streams.append((kind, event, keys))


class Toolchain:
    """A programming model bound to a platform: profile + runtime costs.

    Concrete models (OpenCL, C++ AMP, OpenACC, HC) supply the profile
    and per-platform overheads; the shared methods here log kernel
    launches and transfers to an :class:`ExecutionContext`'s charge log.
    """

    def __init__(self, profile: CompilerProfile, overheads: RuntimeOverheads) -> None:
        self.profile = profile
        self.overheads = overheads

    @property
    def name(self) -> str:
        return self.profile.name

    def charge_gpu_kernel(
        self,
        ctx: ExecutionContext,
        spec: KernelSpec,
        n_buffers: int,
        mapped_bytes: int = 0,
    ) -> float:
        """Log one GPU kernel launch; returns 0.0 (priced from the log)."""
        return ctx.charge_log.gpu_kernel(self, ctx, spec, n_buffers, mapped_bytes)

    def charge_transfer(
        self, ctx: ExecutionContext, nbytes: int, direction: str, counted: bool = True
    ) -> float:
        """Log one host<->device copy; returns 0.0 (priced from the log,
        free on unified memory).

        ``counted=False`` flags call sites that discard the returned
        seconds: the copy is priced into the counters but not into the
        run's simulated clock.
        """
        return ctx.charge_log.transfer(self, nbytes, direction, counted)


class CPUToolchain:
    """Serial / OpenMP execution on the host CPU (the baseline)."""

    def __init__(self, name: str, threads: int, region_overhead_s: float = 0.0) -> None:
        self.name = name
        self.threads = threads
        self.region_overhead_s = region_overhead_s

    def charge_loop(self, ctx: ExecutionContext, spec: KernelSpec) -> float:
        """Log one parallel loop on the host; returns 0.0 (priced from the log)."""
        return ctx.charge_log.cpu_loop(self, spec)
