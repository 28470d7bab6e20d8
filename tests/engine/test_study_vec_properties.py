"""Property-based differential tests for the columnar study engine.

Hypothesis drives randomized spec lattices — ragged axes, single-cell
batches, duplicate descriptors, degenerate problem geometries, clock
overrides — and asserts the two engine invariants directly:

* columnar pricing equals the scalar oracle, computed fresh with every
  memo cache disabled (so a wrong columnar value cannot launder itself
  through the shared cache), and
* cell order is presentation only: permuting a batch permutes the
  results and changes no bit of any of them.
"""

import random
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import memo
from repro.exec import executor
from repro.exec.plan import APU, DGPU, RunSpec
from repro.exec.retry import RetryPolicy, run_with_retry
from repro.hardware.specs import Precision

from .test_study_vec import result_fingerprint

#: Valid problem geometries per app: the sweep size plus degenerate
#: minima (smallest legal mesh/lattice/grid) and a ragged odd size.
def _config_menu():
    from repro.apps.comd.reference import CoMDConfig
    from repro.apps.lulesh.physics import LuleshConfig
    from repro.apps.minife.reference import MiniFEConfig
    from repro.apps.readmem.reference import ReadMemConfig
    from repro.apps.xsbench.reference import XSBenchConfig

    return {
        "read-benchmark": (
            ReadMemConfig(size=64),  # one block: minimal legal input
            ReadMemConfig(size=4096),
            ReadMemConfig(size=1 << 22),
        ),
        "LULESH": (
            LuleshConfig(size=2, iterations=1),  # smallest legal mesh
            LuleshConfig(size=7, iterations=2),
            LuleshConfig(size=32, iterations=3),
        ),
        "CoMD": (
            CoMDConfig(nx=6, ny=6, nz=6, steps=1),  # smallest legal lattice
            CoMDConfig(nx=6, ny=8, nz=10, steps=2),  # anisotropic box
            CoMDConfig(nx=12, ny=12, nz=12, steps=2),
        ),
        "XSBench": (
            # Minima: 2 grid points, one lookup per port chunk (ports
            # split lookups 4 ways; an empty chunk is a zero-size
            # kernel, which both engines reject identically).
            XSBenchConfig(n_nuclides=34, n_gridpoints=2, n_lookups=4),
            XSBenchConfig(n_nuclides=34, n_gridpoints=100, n_lookups=1000),
            XSBenchConfig(n_nuclides=34, n_gridpoints=1000, n_lookups=500_000),
        ),
        "miniFE": (
            MiniFEConfig(nx=2, ny=2, nz=2, cg_iterations=1),  # smallest legal mesh
            MiniFEConfig(nx=3, ny=5, nz=2, cg_iterations=3),
            MiniFEConfig(nx=32, ny=32, nz=32, cg_iterations=20),
        ),
    }


CONFIG_MENU = _config_menu()

#: Columnar-eligible models only (the tails have their own tests).
MODELS = ("OpenMP", "Serial", "OpenCL", "C++ AMP", "OpenACC")

#: Clock overrides: device defaults plus sweep-style corner points.
CLOCKS = ((None, None), (300.0, 600.0), (1000.0, 1250.0), (200.0, None))


@st.composite
def run_specs(draw):
    app = draw(st.sampled_from(sorted(CONFIG_MENU)))
    config = draw(st.sampled_from(CONFIG_MENU[app]))
    model = draw(st.sampled_from(MODELS))
    platform = draw(st.sampled_from((APU, DGPU)))
    precision = draw(st.sampled_from((Precision.SINGLE, Precision.DOUBLE)))
    core_mhz, memory_mhz = (
        draw(st.sampled_from(CLOCKS)) if platform == DGPU else (None, None)
    )
    return RunSpec(
        app, model, platform, precision, config,
        projection=True, core_mhz=core_mhz, memory_mhz=memory_mhz,
    )


#: Ragged by construction: sizes 1..6, duplicates allowed.
spec_batches = st.lists(run_specs(), min_size=1, max_size=6)


def grouped(specs):
    """``specs`` priced by the executor's grouped path alone, in order:
    a row grouped pricing rejected would take the retry ladder, which
    fails the test here instead."""
    def ladder(spec, *args, **kwargs):
        raise AssertionError(f"{spec.label} left grouped pricing")

    with mock.patch.object(executor, "run_with_retry", ladder):
        outcomes, _stats = executor.execute(specs)
    return [outcome.result for outcome in outcomes]


def scalar_oracle(spec):
    """The scalar engine's answer, computed fresh with no memo cache
    in the loop: every kernel priced from first principles."""
    with memo.cache_disabled():
        payload = run_with_retry(spec, RetryPolicy(max_attempts=1))
    assert not hasattr(payload, "kind"), f"oracle run failed: {payload}"
    return payload.result


@given(specs=spec_batches)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_lattice_matches_scalar_oracle(specs):
    results = grouped(specs)
    assert len(results) == len(specs)
    for spec, result in zip(specs, results):
        assert result_fingerprint(result) == result_fingerprint(
            scalar_oracle(spec)
        ), spec.label


@given(specs=spec_batches, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_lattice_is_order_invariant(specs, seed):
    canonical = {
        spec.content_key(): result_fingerprint(result)
        for spec, result in zip(specs, grouped(specs))
    }
    shuffled = list(specs)
    random.Random(seed).shuffle(shuffled)
    for spec, result in zip(shuffled, grouped(shuffled)):
        assert result_fingerprint(result) == canonical[spec.content_key()], spec.label


@given(spec=run_specs())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_single_cell_lattice(spec):
    """The degenerate one-cell lattice: one capture, one priced cell."""
    (result,) = grouped([spec])
    assert result.app == spec.app
    assert result.model == spec.model
    assert result.seconds > 0.0
