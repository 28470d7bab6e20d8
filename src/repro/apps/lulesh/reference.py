"""LULESH serial reference driver and shared host-side logic.

The reference runs the 28-kernel schedule directly over the state
arrays (no programming-model API) and is the correctness oracle for
every port.  The host-side time-step control (`advance_dt`,
`check_qstop`) is shared by all drivers.
"""

from __future__ import annotations

import numpy as np

from ...engine.memo import memoized_setup, projection_stub
from ...hardware.specs import Precision
from ...models.base import placeholder
from .kernels import SCHEDULE
from .physics import (
    DT_MAX_SCALE,
    QSTOP,
    LuleshConfig,
    LuleshState,
    QStopError,
    array_shapes,
    initial_checksum,
    initial_dt,
    initial_reductions,
)


def check_qstop(q_max: np.ndarray) -> None:
    """Host check of the qstop reduction scalar: abort unstable runs."""
    if float(q_max[0]) > QSTOP:
        raise QStopError(f"artificial viscosity {q_max[0]:.3e} exceeded QSTOP")


def next_dt(
    current_dt: float,
    dt_courant_min: np.ndarray,
    dt_hydro_min: np.ndarray,
) -> float:
    """Host time-step control from the two constraint reductions."""
    candidate = min(float(dt_courant_min[0]), float(dt_hydro_min[0]))
    if not np.isfinite(candidate) or candidate <= 0:
        candidate = current_dt * DT_MAX_SCALE
    return float(min(current_dt * DT_MAX_SCALE, candidate))


@memoized_setup
def make_state(config: LuleshConfig, precision: Precision) -> LuleshState:
    """Initialise the Sedov problem at the requested precision."""
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    return LuleshState.initial(config, dtype)


@projection_stub(make_state)
def _projection_state(config: LuleshConfig, precision: Precision) -> LuleshState:
    """Frozen, shape-only stand-in for schedule capture.

    Buffer sizes are all the ports' schedules read, so every mesh array
    is a read-only placeholder.  What the host reads is exact: the
    three one-element reductions (``check_qstop`` and ``next_dt`` read
    them; read-only and at their initial values), the initial ``dt``,
    and the initial-state checksum.  Ports still advance the host
    scalars ``dt`` and ``time``; no schedule or checksum reads them.
    """
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    arrays = {
        name: placeholder(shape, dtype) for name, shape in array_shapes(config).items()
    }
    reductions = initial_reductions(dtype)
    for array in reductions.values():
        array.flags.writeable = False
    arrays.update(reductions)
    return LuleshState(
        config=config,
        dtype=dtype,
        dt=initial_dt(config, dtype),
        frozen_checksum=initial_checksum(dtype),
        **arrays,
    )


def run_iteration(state: LuleshState) -> None:
    """One Lagrange-leapfrog iteration via the 28-kernel schedule."""
    arrays = state.arrays()
    scalars = {"dt": state.dt}
    for step in SCHEDULE:
        args = [arrays[name] for name in step.arrays]
        args.extend(scalars[name] for name in step.scalars)
        step.func(*args)
        if step.name == "lulesh.qstop_check":
            check_qstop(state.q_max)
    state.time += state.dt
    state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)


def run_reference(config: LuleshConfig, precision: Precision) -> LuleshState:
    """Run the full Sedov problem serially; returns the final state."""
    state = make_state(config, precision)
    for _ in range(config.iterations):
        run_iteration(state)
    return state
