"""Proxy-application framework.

Every workload of the paper (read-memory, LULESH, CoMD, XSBench,
miniFE) is packaged the same way:

* a **reference** serial implementation (the "serial CPU code" that
  Table IV's line counts start from), written in NumPy and used as the
  correctness oracle;
* one **port** per programming model — a module whose host-side code
  is written in that model's idiom (OpenCL boilerplate, C++ AMP
  ``array_view`` + ``parallel_for_each``, OpenACC directives, an
  OpenMP pragma wrapper).  Ports share the numerical device kernels;
  what differs — and what the paper measures — is the host
  orchestration each model forces you to write;
* a **kernel characterization** (``kernels.py``) mapping each kernel
  to a :class:`~repro.engine.kernel.KernelSpec` for the timing model.

Ports are discovered through the :class:`ProxyApp` descriptor, which
the study framework (``repro.core``) iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..engine.counters import PerfCounters
from ..hardware.device import Platform
from ..hardware.specs import Precision
from ..models.base import ExecutionContext


@dataclass(frozen=True)
class RunResult:
    """Outcome of running one port on one platform."""

    app: str
    model: str
    platform: str
    precision: Precision
    #: End-to-end simulated seconds (kernels + transfers + overheads).
    seconds: float
    #: Simulated seconds excluding data transfers (Figures 8a/9a use
    #: kernel-only time for the read-memory benchmark).
    kernel_seconds: float
    #: A scalar derived from the numerical output, for validation.
    checksum: float
    counters: PerfCounters
    #: Whole-run energy (``repro.engine.energy``): static platform draw
    #: over the run plus dynamic kernel + transfer energy.
    joules: float = 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.joules * self.seconds


class Port(Protocol):
    """One application implemented in one programming model."""

    #: Canonical model name ("OpenCL", "C++ AMP", "OpenACC", "OpenMP",
    #: "Serial", "Heterogeneous Compute").
    model_name: str

    def __call__(self, ctx: ExecutionContext, config: object) -> RunResult: ...


@dataclass(frozen=True)
class ProxyApp:
    """Descriptor of one workload: metadata + its ports."""

    name: str
    description: str
    #: Command-line parameters from Table I, e.g. "./CoMD -x 60 -y 60 -z 60".
    command_line: str
    #: Number of GPU kernels (Table I).
    n_kernels: int
    #: Paper's boundedness classification (Table I).
    boundedness: str
    #: Build the default (CI-sized) configuration.
    default_config: Callable[[], object]
    #: Build the paper-sized configuration (Table I command lines).
    paper_config: Callable[[], object]
    ports: dict[str, Port] = field(default_factory=dict)

    def run(
        self,
        model: str,
        platform: Platform,
        precision: Precision,
        config: object | None = None,
    ) -> RunResult:
        """Run one port of this app on a fresh execution context, priced."""
        # Imported lazily: the pricer builds on this module.
        from ..engine.study_vec import priced_run

        try:
            port = self.ports[model]
        except KeyError:
            raise KeyError(
                f"{self.name}: no port for model {model!r}; "
                f"available: {sorted(self.ports)}"
            ) from None
        ctx = ExecutionContext(platform=platform, precision=precision)
        cfg = config if config is not None else self.default_config()
        return priced_run(port, ctx, cfg)


def make_result(
    app: str,
    ctx: ExecutionContext,
    model: str,
    seconds: float,
    checksum: float,
) -> RunResult:
    """A port's own, unpriced result: who ran where, and its checksum.

    Every charge a port makes returns 0.0, so ``seconds`` is 0.0 and
    the counters are empty: the prices come from the context's charge
    log (:func:`repro.engine.study_vec.priced_run`), which keeps only
    this result's identity and checksum.  Energy is composed there too.
    """
    return RunResult(
        app=app,
        model=model,
        platform=ctx.platform.name,
        precision=ctx.precision,
        seconds=seconds,
        kernel_seconds=0.0,
        checksum=float(checksum),
        counters=PerfCounters(),
    )
