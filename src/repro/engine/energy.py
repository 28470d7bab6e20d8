"""Power integration: joules and energy-delay product.

The 2015 paper compared programming models on speedup and productivity
only — it had no power rails to read.  Memeti et al. (PAPERS.md) show
the modern form of the comparison reports energy and EDP alongside
both, so the engine integrates a simple but physical power model over
the same charge timeline it prices for time:

* **static** — every second a platform is powered it pays the idle
  (leakage + always-on) draw of host + accelerator, whatever runs;
* **dynamic** — each kernel adds switching power on its device,
  scaled quadratically with the core-clock ratio (CV²f with V tracking
  f along the DVFS curve) and linearly with achieved utilisation
  (a memory-stalled kernel clocks far fewer gates than an FMA-dense
  one, but fetch/decode and the memory pipes never go fully quiet —
  hence the idle-activity floor);
* **transfer** — staging copies power the link + DMA engines for the
  duration of the copy (zero on the APU: unified memory moves nothing).

Kernel pricing (``engine.timing_vec``) calls :func:`kernel_joules`,
which is elementwise, once on a whole grid of *final* timing values.
The other helpers take and return plain Python floats, and the scalar
counters and the columnar engine fold them in the same order, which
keeps joules bit-identical between the two engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..hardware.specs import PowerSpec

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: Fraction of peak dynamic power a fully stalled kernel still draws
#: (instruction fetch, schedulers, memory pipes).
IDLE_ACTIVITY_FLOOR = 0.3


def clock_power_scale(current_mhz: float, nominal_mhz: float) -> float:
    """Dynamic-power multiplier for a core clocked off its nominal point.

    Classic CV²f with voltage tracking frequency along the DVFS curve
    collapses to a cubic; board measurements across DVFS states sit
    closer to quadratic (voltage floors at the low end), so that is what
    we integrate.
    """
    if nominal_mhz <= 0:
        return 1.0
    ratio = current_mhz / nominal_mhz
    return ratio * ratio


def kernel_joules(
    power: PowerSpec,
    seconds: ArrayLike,
    busy_seconds: ArrayLike,
    clock_scale: ArrayLike = 1.0,
    share: float = 1.0,
) -> np.ndarray:
    """Dynamic energy of kernels: switching power x duration, elementwise.

    ``busy_seconds`` is the compute-side time of the roofline — the
    portion of the launch the ALUs were actually switching; the rest of
    the duration the device idles at the activity floor.  ``share`` is
    the fraction of the device the launch occupies (threads/cores for a
    CPU loop; 1.0 for a GPU grid).  Arguments broadcast like NumPy
    operands and every op is elementwise, so a cell's joules do not
    depend on what else shares its call.
    """
    seconds = np.asarray(seconds, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        utilisation = np.clip(busy_seconds / seconds, 0.0, 1.0)
    activity = IDLE_ACTIVITY_FLOOR + (1.0 - IDLE_ACTIVITY_FLOOR) * utilisation
    joules = power.peak_dynamic_w * share * clock_scale * activity * seconds
    return np.where(seconds <= 0.0, 0.0, joules)


def transfer_joules(active_w: float, seconds: float) -> float:
    """Energy of one staging copy: link + DMA power for its duration."""
    return active_w * seconds


def static_joules(idle_watts: float, seconds: float) -> float:
    """Leakage + always-on energy of a platform over a whole run."""
    return idle_watts * seconds


def energy_delay_product(joules: float, seconds: float) -> float:
    """EDP in joule-seconds: the figure of merit Memeti et al. report."""
    return joules * seconds
