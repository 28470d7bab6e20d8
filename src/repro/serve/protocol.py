"""Versioned JSON request/response schemas of the prediction service.

The wire protocol is deliberately tiny and stdlib-JSON only.  Version
``v1`` has two prediction routes plus the operational endpoints:

* ``POST /v1/predict`` — one cell of the paper's matrices: an app, a
  programming model, a platform, a precision, and optional GPU clock
  overrides (the Figure 7/8 query shape).  The response carries the
  simulated times, the speedup over the 4-core OpenMP baseline, and
  per-run cache provenance.
* ``POST /v1/study`` — a small spec matrix (apps x models x platforms
  x precisions), answered with the same flat records ``repro study
  --out`` exports.
* ``GET /healthz`` / ``GET /readyz`` / ``GET /metrics`` — liveness,
  readiness (503 while draining), and Prometheus text exposition via
  :mod:`repro.obs.metrics` (latency buckets carry OpenMetrics trace
  exemplars).
* ``GET /v1/debug/traces`` — summaries of the retained request traces
  (tail-biased: recent, slowest, and errored), newest first; each row
  links to ``GET /v1/debug/traces/<trace_id>``, which returns the full
  span tree (``?format=chrome`` exports Chrome trace_event JSON).
* ``GET /v1/debug/logs`` — the most recent structured log records
  from the in-process ring.

Requests parse into frozen dataclasses that validate eagerly and
translate themselves into the *same* :class:`~repro.exec.plan.RunSpec`
descriptors the batch CLI builds, which is what makes HTTP responses
bit-identical to direct :func:`~repro.core.study.run_study` output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from ..apps import APPS_BY_NAME, PROXY_APPS
from ..core.configs import bench_configs, sweep_configs
from ..core.metrics import speedup
from ..core.study import BASELINE_MODEL, GPU_MODELS
from ..exec.plan import APU, DGPU, PLATFORMS, RunSpec, study_runs
from ..hardware.device import platform_for
from ..hardware.specs import Precision
from ..models.registry import normalize_model_name

PROTOCOL_VERSION = "v1"

#: Problem-scale presets a request may name.
SCALES = ("bench", "paper", "sweep")

#: Default upper bound on the run matrix one ``/v1/study`` request may
#: expand to — admission control for a single request's cost.  The
#: effective limit is configurable (``ServeConfig.max_study_runs`` /
#: the ``REPRO_SERVE_MAX_STUDY_RUNS`` environment variable).
MAX_STUDY_RUNS = 64

#: Default upper bound on cells per ``/v1/batch`` request.  Bulk
#: traffic is the endpoint's point, so the default is far above the
#: study cap; ``ServeConfig.max_batch_cells`` /
#: ``REPRO_SERVE_MAX_BATCH_CELLS`` override it.
MAX_BATCH_CELLS = 512


def _env_limit(name: str, default: int) -> int:
    """A positive-integer limit from the environment, else ``default``."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def max_study_runs() -> int:
    """The effective ``/v1/study`` run cap for this process."""
    return _env_limit("REPRO_SERVE_MAX_STUDY_RUNS", MAX_STUDY_RUNS)


def max_batch_cells() -> int:
    """The effective ``/v1/batch`` cell cap for this process."""
    return _env_limit("REPRO_SERVE_MAX_BATCH_CELLS", MAX_BATCH_CELLS)


class ProtocolError(ValueError):
    """A malformed or out-of-range request (an HTTP 400)."""


class LimitExceeded(ProtocolError):
    """A well-formed request over a configured size cap (an HTTP 413).

    Distinct from :class:`ProtocolError` so the server can answer with
    a payload-too-large status and a structured error naming both the
    actual size and the limit — the client's cue to split the request,
    not to fix it.
    """

    def __init__(self, what: str, actual: int, limit: int) -> None:
        super().__init__(
            f"{what} expands to {actual} runs, over the per-request limit "
            f"of {limit}; split the request"
        )
        self.actual = actual
        self.limit = limit


def _require(doc: Mapping, field: str, default: object = None) -> object:
    value = doc.get(field, default)
    if value is None:
        raise ProtocolError(f"missing required field {field!r}")
    return value


# The parse helpers sit on the bulk endpoint's per-cell hot path, so
# the case-insensitive table scans are memoized.  Each memo is guarded
# by an isinstance check *outside* the cached function: lru_cache would
# raise TypeError on unhashable junk (a list where a string belongs)
# before the lookup ran, and the client must see a ProtocolError.


@lru_cache(maxsize=None)
def _lookup_app(name: str) -> str | None:
    for known in APPS_BY_NAME:
        if known.lower() == name.lower():
            return known
    return None


def _parse_app(name: object) -> str:
    if not isinstance(name, str):
        raise ProtocolError(f"field 'app' must be a string, got {type(name).__name__}")
    known = _lookup_app(name)
    if known is None:
        raise ProtocolError(
            f"unknown app {name!r}: known apps are {', '.join(sorted(APPS_BY_NAME))}"
        )
    return known


@lru_cache(maxsize=None)
def _lookup_model(app: str, name: str) -> str | None:
    name = normalize_model_name(name)
    for known in APPS_BY_NAME[app].ports:
        if known.lower() == name.lower():
            return known
    return None


def _parse_model(app: str, name: object) -> str:
    if not isinstance(name, str):
        raise ProtocolError(f"field 'model' must be a string, got {type(name).__name__}")
    known = _lookup_model(app, name)
    if known is None:
        ports = APPS_BY_NAME[app].ports
        raise ProtocolError(
            f"{app} has no {name!r} port: known models are {', '.join(sorted(ports))}"
        )
    return known


def _parse_platform(value: object) -> str:
    if isinstance(value, str) and value.lower() in PLATFORMS:
        return value.lower()
    raise ProtocolError(
        f"field 'platform' must be one of {', '.join(map(repr, PLATFORMS))}, got {value!r}"
    )


@lru_cache(maxsize=None)
def _lookup_precision(value: str) -> Precision | None:
    for precision in Precision:
        if precision.value == value.lower():
            return precision
    return None


def _parse_precision(value: object) -> Precision:
    if isinstance(value, str):
        precision = _lookup_precision(value)
        if precision is not None:
            return precision
    raise ProtocolError(
        f"field 'precision' must be one of "
        f"{', '.join(repr(p.value) for p in Precision)}, got {value!r}"
    )


def _parse_scale(value: object) -> str:
    if isinstance(value, str) and value.lower() in SCALES:
        return value.lower()
    raise ProtocolError(
        f"field 'scale' must be one of {', '.join(map(repr, SCALES))}, got {value!r}"
    )


@lru_cache(maxsize=None)
def _clock_ranges(platform: str) -> dict[str, tuple[float, float]]:
    """Legal ``(min, max)`` MHz of each GPU clock override, per platform."""
    gpu = platform_for(platform).gpu
    return {
        "core_mhz": (gpu.core_clock.min_mhz, gpu.core_clock.max_mhz),
        "memory_mhz": (gpu.memory_clock.min_mhz, gpu.memory_clock.max_mhz),
    }


def _parse_clock(doc: Mapping, field: str, platform: str) -> float | None:
    value = doc.get(field)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ProtocolError(f"field {field!r} must be a positive frequency in MHz")
    low, high = _clock_ranges(platform)[field]
    if not low <= value <= high:
        raise ProtocolError(
            f"field {field!r}: {value:g} MHz is outside the {platform} GPU's "
            f"[{low:g}, {high:g}] MHz range"
        )
    return float(value)


@lru_cache(maxsize=None)
def resolve_config(app: str, scale: str) -> object:
    """The problem configuration a scale preset names for one app.

    Memoized: the configs are frozen value objects, and rebuilding the
    preset table per request cell was the serving hot path's single
    largest cost (the bulk endpoint resolves one config per cell).
    """
    if scale == "bench":
        return bench_configs()[app]
    if scale == "sweep":
        return sweep_configs()[app]
    return APPS_BY_NAME[app].paper_config()


@lru_cache(maxsize=16384)
def _interned_spec(
    app: str,
    model: str,
    platform: str,
    precision: Precision,
    scale: str,
    core_mhz: float | None,
    memory_mhz: float | None,
) -> RunSpec:
    """One shared :class:`RunSpec` per distinct (validated) cell.

    Request cells repeat heavily in steady-state serving; interning
    the descriptor skips re-validation *and* lets the instance-level
    ``content_key`` memo hit across requests, collapsing the per-cell
    routing/caching key to a dict lookup.  Safe to share: the spec and
    its config are frozen, and every field here has already been
    validated by the parse layer.
    """
    return RunSpec(
        app, model, platform, precision, resolve_config(app, scale),
        projection=True, core_mhz=core_mhz, memory_mhz=memory_mhz,
    )


@dataclass(frozen=True)
class PredictRequest:
    """One prediction query: a single cell of the paper's matrices."""

    app: str
    model: str
    platform: str
    precision: Precision
    scale: str = "bench"
    core_mhz: float | None = None
    memory_mhz: float | None = None

    @classmethod
    def from_json(cls, doc: object) -> "PredictRequest":
        if not isinstance(doc, Mapping):
            raise ProtocolError("request body must be a JSON object")
        app = _parse_app(_require(doc, "app"))
        model = _parse_model(app, _require(doc, "model"))
        platform = _parse_platform(_require(doc, "platform"))
        return cls(
            app=app,
            model=model,
            platform=platform,
            precision=_parse_precision(_require(doc, "precision")),
            scale=_parse_scale(doc.get("scale", "bench")),
            core_mhz=_parse_clock(doc, "core_mhz", platform),
            memory_mhz=_parse_clock(doc, "memory_mhz", platform),
        )

    def to_json(self) -> dict:
        return {
            "app": self.app,
            "model": self.model,
            "platform": self.platform,
            "precision": self.precision.value,
            "scale": self.scale,
            "core_mhz": self.core_mhz,
            "memory_mhz": self.memory_mhz,
        }

    def specs(self) -> tuple[RunSpec, RunSpec]:
        """The ``(baseline, model)`` descriptors answering this query.

        Both are built exactly as :func:`~repro.exec.plan.study_runs`
        builds them — same config resolution, projection mode, and no
        clock overrides on the OpenMP baseline — so the response's
        numbers content-address to the same cached runs the batch
        pipeline computes.
        """
        baseline = _interned_spec(
            self.app, BASELINE_MODEL, self.platform, self.precision,
            self.scale, None, None,
        )
        return baseline, self.spec()

    def spec(self) -> RunSpec:
        """Just the queried cell's descriptor (no baseline) — the unit
        ``/v1/batch`` prices.  Interned across requests: routing,
        pricing, and the response echo all need it."""
        return _interned_spec(
            self.app, self.model, self.platform, self.precision,
            self.scale, self.core_mhz, self.memory_mhz,
        )


@dataclass(frozen=True)
class StudyRequest:
    """A small spec matrix: the ``/v1/study`` request body."""

    apps: tuple[str, ...]
    models: tuple[str, ...]
    platforms: tuple[str, ...]
    precisions: tuple[Precision, ...]
    scale: str = "bench"

    @classmethod
    def from_json(cls, doc: object, max_runs: int | None = None) -> "StudyRequest":
        if not isinstance(doc, Mapping):
            raise ProtocolError("request body must be a JSON object")

        def listed(field: str, default: Sequence[object]) -> tuple[object, ...]:
            value = doc.get(field, list(default))
            if isinstance(value, str) or not isinstance(value, Sequence) or not value:
                raise ProtocolError(f"field {field!r} must be a non-empty array")
            return tuple(value)

        # Defaulting to the paper's four proxy apps (not every known
        # app) keeps the default matrix exactly at the run cap.
        apps = tuple(
            _parse_app(name)
            for name in listed("apps", [app.name for app in PROXY_APPS])
        )
        models = tuple(
            _parse_model(apps[0], name) for name in listed("models", GPU_MODELS)
        )
        for app in apps:
            for model in models:
                _parse_model(app, model)
        request = cls(
            apps=apps,
            models=models,
            platforms=tuple(
                _parse_platform(p) for p in listed("platforms", (APU, DGPU))
            ),
            precisions=tuple(
                _parse_precision(p)
                for p in listed("precisions", [p.value for p in Precision])
            ),
            scale=_parse_scale(doc.get("scale", "bench")),
        )
        limit = max_runs if max_runs is not None else max_study_runs()
        n_runs = len(request.runs())
        if n_runs > limit:
            raise LimitExceeded("study matrix", n_runs, limit)
        return request

    def to_json(self) -> dict:
        return {
            "apps": list(self.apps),
            "models": list(self.models),
            "platforms": list(self.platforms),
            "precisions": [p.value for p in self.precisions],
            "scale": self.scale,
        }

    @property
    def compared_models(self) -> tuple[str, ...]:
        """The requested models minus the baseline (it is always run)."""
        return tuple(m for m in self.models if m != BASELINE_MODEL)

    def runs(self) -> list[RunSpec]:
        """The flattened matrix, in ``study_runs``'s canonical order."""
        return study_runs(
            app_names=list(self.apps),
            configs={app: resolve_config(app, self.scale) for app in self.apps},
            apu_values=None,
            precisions=self.precisions,
            models=list(self.compared_models),
            baseline=BASELINE_MODEL,
            projection=True,
            platforms=list(self.platforms),
        )


@dataclass(frozen=True)
class BatchRequest:
    """A flat list of cells to price: the ``/v1/batch`` request body.

    The bulk endpoint for study-shaped traffic.  Each cell carries the
    same fields as a ``/v1/predict`` request, but the response prices
    exactly the listed cells — no implicit baseline runs, no
    speedups — so a client (or the shard router fanning out a
    ``/v1/study``) controls precisely which specs are computed where.
    The cold cells go to the engine as one batch of their own, straight
    to columnar pricing.
    """

    cells: tuple[PredictRequest, ...]

    @classmethod
    def from_json(cls, doc: object, max_cells: int | None = None) -> "BatchRequest":
        if not isinstance(doc, Mapping):
            raise ProtocolError("request body must be a JSON object")
        raw = doc.get("cells")
        if isinstance(raw, str) or not isinstance(raw, Sequence) or not raw:
            raise ProtocolError("field 'cells' must be a non-empty array")
        limit = max_cells if max_cells is not None else max_batch_cells()
        if len(raw) > limit:
            raise LimitExceeded("cell list", len(raw), limit)
        cells = []
        for index, item in enumerate(raw):
            try:
                cells.append(PredictRequest.from_json(item))
            except LimitExceeded:
                raise
            except ProtocolError as exc:
                raise ProtocolError(f"cells[{index}]: {exc}") from exc
        return cls(cells=tuple(cells))

    def to_json(self) -> dict:
        return {"cells": [cell.to_json() for cell in self.cells]}

    def specs(self) -> list[RunSpec]:
        """One descriptor per cell, in request order."""
        return [cell.spec() for cell in self.cells]


def predict_response(
    request: PredictRequest,
    baseline_seconds: float,
    model_result,
    provenance: Mapping[str, str],
    key: str,
) -> dict:
    """The ``/v1/predict`` response document."""
    return {
        "version": PROTOCOL_VERSION,
        "request": request.to_json(),
        "seconds": model_result.seconds,
        "kernel_seconds": model_result.kernel_seconds,
        "baseline_seconds": baseline_seconds,
        "speedup": speedup(baseline_seconds, model_result.seconds),
        "kernel_speedup": speedup(baseline_seconds, model_result.kernel_seconds),
        # getattr: results can come off disk from a store written
        # before the energy model existed.
        "joules": getattr(model_result, "joules", 0.0),
        "edp": getattr(model_result, "joules", 0.0) * model_result.seconds,
        "provenance": dict(provenance),
        "key": key,
    }


def study_response(request: StudyRequest, entries: list[dict], served: dict) -> dict:
    """The ``/v1/study`` response document."""
    return {
        "version": PROTOCOL_VERSION,
        "request": request.to_json(),
        "entries": entries,
        "served": served,
    }


def batch_response(request: BatchRequest, priced: Sequence[tuple]) -> dict:
    """The ``/v1/batch`` response document.

    ``priced`` pairs each cell's :class:`~repro.apps.base.RunResult`
    with its provenance label, in request order.  Results echo the
    cell plus the raw prices and the content key — enough for a caller
    to join answers back to cells and to compute any derived metric
    (the shard router derives study speedups this way, bit-identically
    to ``run_study``).
    """
    results = []
    for cell, (result, provenance) in zip(request.cells, priced):
        doc = cell.to_json()
        doc.update({
            "seconds": result.seconds,
            "kernel_seconds": result.kernel_seconds,
            "joules": getattr(result, "joules", 0.0),
            "edp": getattr(result, "joules", 0.0) * result.seconds,
            "key": cell.spec().content_key()[:16],
            "provenance": provenance,
        })
        results.append(doc)
    tally: dict[str, int] = {}
    for _result, provenance in priced:
        tally[provenance] = tally.get(provenance, 0) + 1
    return {
        "version": PROTOCOL_VERSION,
        "count": len(results),
        "results": results,
        "served": tally,
    }


def error_response(status: int, message: str) -> dict:
    return {
        "version": PROTOCOL_VERSION,
        "error": {"status": status, "message": message},
    }
