"""Run descriptors: the study/sweep matrices, flattened.

The paper's experiments are all dense cross-products — apps x models x
platforms x precisions (Figures 8/9), or one app across a (core,
memory) frequency grid (Figure 7).  Each cell of those products is an
independent simulation, so the executor (:mod:`repro.exec.executor`)
works on a flat list of :class:`RunSpec` descriptors rather than on
nested loops.  Descriptors are *content-addressed*: two specs with the
same content are the same run, which is how shared work (every model's
OpenMP baseline for one cell) is priced exactly once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..hardware.specs import Precision

#: Platform selector values for :attr:`RunSpec.platform`.
APU = "apu"
DGPU = "dgpu"
V100 = "v100"
PLATFORMS = (APU, DGPU, V100)

#: Report label per selector ("APU"/"dGPU"/"V100"); the serve tier and
#: the study assembler must agree on these for bit-identical entries.
PLATFORM_LABELS = {APU: "APU", DGPU: "dGPU", V100: "V100"}


def platform_label(platform: str) -> str:
    """Human-readable study label for a platform selector."""
    return PLATFORM_LABELS[platform]

#: Count-like config fields that must be positive when present.  The
#: app config dataclasses validate themselves; this net also catches
#: duck-typed configs handed straight to :class:`RunSpec`.
_COUNT_FIELDS = (
    "size", "reps", "iterations", "steps", "block_size",
    "nx", "ny", "nz", "cg_iterations",
    "n_nuclides", "n_gridpoints", "n_lookups",
)


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation: a port on a configured platform.

    ``config`` must be a picklable value object (the apps' frozen
    config dataclasses) so descriptors can cross process boundaries.
    ``core_mhz``/``memory_mhz`` override the GPU clock domains for
    frequency-sweep points; ``None`` keeps the device defaults.
    """

    app: str
    model: str
    platform: str  # APU or DGPU
    precision: Precision
    config: object
    #: Projection mode: price the launch/transfer schedule, skip the
    #: NumPy kernel bodies (paper-scale problems).
    projection: bool = True
    core_mhz: float | None = None
    memory_mhz: float | None = None

    def __post_init__(self) -> None:
        if self.platform not in PLATFORMS:
            raise ValueError(
                f"platform must be one of {', '.join(map(repr, PLATFORMS))}, "
                f"got {self.platform!r}"
            )
        # Fail at construction with a nameable message, not as a
        # KeyError three layers deep inside a pool worker.
        from ..apps import APPS_BY_NAME  # lazy: keeps the plan layer light

        app = APPS_BY_NAME.get(self.app)
        if app is None:
            raise ValueError(
                f"unknown app {self.app!r}: known apps are {', '.join(sorted(APPS_BY_NAME))}"
            )
        if self.model not in app.ports:
            raise ValueError(
                f"{self.app} has no {self.model!r} port: "
                f"known models are {', '.join(sorted(app.ports))}"
            )
        for name in _COUNT_FIELDS:
            value = getattr(self.config, name, None)
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value <= 0:
                raise ValueError(
                    f"{self.app} config field {name}={value!r} must be positive"
                )
        for name in ("core_mhz", "memory_mhz"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be a positive frequency, got {value!r}")

    @property
    def apu(self) -> bool:
        return self.platform == APU

    @property
    def label(self) -> str:
        """Short human-readable identity for stats and logs."""
        clocks = ""
        if self.core_mhz is not None or self.memory_mhz is not None:
            core, memory = (
                "-" if mhz is None else f"{mhz:g}" for mhz in (self.core_mhz, self.memory_mhz)
            )
            clocks = f"@{core}/{memory}MHz"
        return f"{self.app}/{self.model}/{self.platform}{clocks}/{self.precision.value}"

    def telemetry_meta(self) -> dict[str, str]:
        """Labels seeding this run's span recorder and metrics: the
        identity every span/metric of the run is attributed to."""
        return {
            "app": self.app,
            "model": self.model,
            "platform": self.platform,
            "precision": self.precision.value,
        }

    def content_key(self) -> str:
        """Content digest identifying this run for deduplication.

        Built from the repr of every field (config dataclasses repr
        all their parameters), so equal-content descriptors collide by
        construction and object identity never matters.  Memoized per
        instance (every field is frozen, so the digest cannot change):
        the serve tier keys routing, caching, and the persistent store
        off this digest, several times per cell.
        """
        cached = self.__dict__.get("_content_key")
        if cached is not None:
            return cached
        canonical = repr((
            self.app,
            self.model,
            self.platform,
            self.precision.value,
            self.config,
            self.projection,
            self.core_mhz,
            self.memory_mhz,
        ))
        key = hashlib.sha256(canonical.encode()).hexdigest()
        object.__setattr__(self, "_content_key", key)
        return key

    def schedule_key(self) -> tuple:
        """Everything that shapes the launch/transfer schedule.

        The content key minus the clock overrides: GPU clocks change
        what each kernel *costs*, never which kernels launch or what
        moves over the interconnect.  Cells sharing this key (e.g. an
        entire frequency sweep) share one captured charge schedule in
        the columnar engine.
        """
        return (
            self.app,
            self.model,
            self.platform,
            self.precision.value,
            repr(self.config),
            self.projection,
        )


@dataclass(frozen=True)
class SpecLattice:
    """A run matrix lowered to a table, grouped by schedule signature.

    ``rows`` preserves the caller's cell order (reassembly indexes into
    it); ``groups`` partitions the row indices by
    :meth:`RunSpec.schedule_key`, in first-appearance order.  Each
    group is one schedule capture in the columnar engine — its rows
    differ at most in clock overrides.
    """

    rows: tuple[RunSpec, ...]
    groups: tuple[tuple[tuple, tuple[int, ...]], ...]

    @classmethod
    def from_specs(cls, specs: Sequence[RunSpec]) -> "SpecLattice":
        grouped: dict[tuple, list[int]] = {}
        for index, spec in enumerate(specs):
            grouped.setdefault(spec.schedule_key(), []).append(index)
        return cls(
            rows=tuple(specs),
            groups=tuple((key, tuple(rows)) for key, rows in grouped.items()),
        )

    def axes(self) -> dict[str, tuple]:
        """Distinct values per lattice axis, in first-appearance order."""
        seen: dict[str, dict] = {
            "app": {}, "model": {}, "platform": {}, "precision": {}, "clock": {},
        }
        for spec in self.rows:
            seen["app"].setdefault(spec.app)
            seen["model"].setdefault(spec.model)
            seen["platform"].setdefault(spec.platform)
            seen["precision"].setdefault(spec.precision.value)
            seen["clock"].setdefault((spec.core_mhz, spec.memory_mhz))
        return {axis: tuple(values) for axis, values in seen.items()}


def study_runs(
    app_names: Sequence[str],
    configs: dict[str, object],
    apu_values: Iterable[bool] | None,
    precisions: Iterable[Precision],
    models: Sequence[str],
    baseline: str,
    projection: bool,
    platforms: Sequence[str] | None = None,
) -> list[RunSpec]:
    """Flatten one comparison study into descriptors.

    The order is the study's canonical nested-loop order — app, then
    platform, then precision, with the baseline preceding the models of
    each cell — so callers can zip the outcomes back into entries.

    ``platforms`` names selectors directly (the general form, required
    for V100); ``apu_values`` is the legacy two-platform spelling and is
    ignored when ``platforms`` is given.
    """
    if platforms is None:
        platforms = tuple(APU if apu else DGPU for apu in (apu_values or ()))
    runs: list[RunSpec] = []
    for name in app_names:
        config = configs[name]
        for platform in platforms:
            for precision in precisions:
                runs.append(RunSpec(name, baseline, platform, precision, config, projection))
                for model in models:
                    runs.append(RunSpec(name, model, platform, precision, config, projection))
    return runs


def sweep_runs(
    app_name: str,
    config: object,
    precision: Precision,
    core_grid: Sequence[float],
    memory_grid: Sequence[float],
    model: str,
) -> list[RunSpec]:
    """Flatten one frequency sweep (memory-major, like Figure 7)."""
    return [
        RunSpec(
            app_name,
            model,
            DGPU,
            precision,
            config,
            projection=True,
            core_mhz=core_mhz,
            memory_mhz=memory_mhz,
        )
        for memory_mhz in memory_grid
        for core_mhz in core_grid
    ]
