"""EXPERIMENTS.md §9: the known deviations, each held at the paper's value.

Every test below asserts what the paper measured where this
reproduction does not match it, and is a strict expected failure.
While the deviation stands the suite stays green; a recalibration that
closes one turns its test into an unexpected pass, which fails the run
until §9 (and the marker here) is updated.  ``raises=AssertionError``
keeps a crash from passing for a deviation.
"""

import pytest

from repro.apps import ALL_APPS, APPS_BY_NAME
from repro.core.characterize import (
    PAPER_TABLE1,
    dominant_spec,
    measure_ipc,
    measure_miss_rate,
)
from repro.core.productivity import compute_productivity
from repro.core.sweep import run_sweep
from repro.sloc import PAPER_TABLE4, table4

from conftest import speedup_of


def deviation(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@deviation("§9.1: miniFE IPC measures lowest (0.13), not highest")
def test_minife_has_the_highest_ipc(configs):
    """Table I: miniFE retires 0.88 instructions per cycle, the most of
    the four characterized apps."""
    ipcs = {name: measure_ipc(APPS_BY_NAME[name], configs[name]) for name in PAPER_TABLE1}
    assert max(ipcs, key=ipcs.get) == "miniFE", ipcs
    assert ipcs["miniFE"] == pytest.approx(PAPER_TABLE1["miniFE"]["ipc"], rel=0.25)


@deviation("§9.2: Python ports are ~40x denser than the paper's C/C++")
def test_table4_absolute_line_counts():
    """Table IV: every port adds within 2x of the paper's line count
    (e.g. OpenCL CoMD adds 3716 lines)."""
    measured = table4(ALL_APPS)
    for app, paper in PAPER_TABLE4.items():
        for model, lines in paper.items():
            assert lines / 2 <= measured[app][model] <= lines * 2, (app, model)


@deviation("§9.3: OpenACC, not OpenCL, tops the dGPU harmonic mean")
def test_opencl_most_productive_on_dgpu(study):
    """Figure 10b: OpenCL has the highest productivity harmonic mean on
    the dGPU."""
    means = compute_productivity(study, ALL_APPS, apu=False).harmonic_means()
    assert max(means, key=means.get) == "OpenCL", means


@deviation("§9.4: LLC miss rates sit 2-4x below the paper's counters")
def test_llc_miss_rate_magnitudes():
    """Table I: LLC miss rates of 11% (LULESH), 26% (CoMD), 53%
    (XSBench) and 39% (miniFE), at the paper's problem sizes."""
    for name, paper in PAPER_TABLE1.items():
        app = APPS_BY_NAME[name]
        rate = measure_miss_rate(dominant_spec(app, app.paper_config()))
        assert rate == pytest.approx(paper["miss_rate"], rel=0.25), name


@deviation("§9.5: dGPU CoMD SP measures ~33x, not 58.75x")
def test_dgpu_comd_single_precision_speedup(study):
    """Figure 9c: OpenCL CoMD runs 58.75x faster than 4-core OpenMP on
    the dGPU in single precision."""
    speedup = speedup_of(study, "CoMD", "OpenCL", apu=False)
    assert speedup == pytest.approx(58.75, rel=0.15)


@deviation("§9.6: the streaming model is flat in core clock at every memory clock")
def test_readmem_core_scaling_at_high_memory_clock(sweep_cfgs):
    """Figure 7a: at the highest memory clocks read-benchmark gains some
    performance from the core clock (L2 utilization)."""
    sweep = run_sweep(APPS_BY_NAME["read-benchmark"], sweep_cfgs["read-benchmark"])
    assert sweep.core_sensitivity() > 1.05
