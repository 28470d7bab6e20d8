"""Scalar projection runs share one read-only problem setup per key.

Projection runs skip kernel bodies, so they read their setup arrays but
never write them: :data:`~repro.engine.memo.SETUP_CACHE` hands them the
stored arrays by reference (inside :func:`~repro.engine.memo.shared_setups`)
instead of a deep copy per run.  These tests hold the three properties
that make this safe: every port projects over a shared setup without a
write and with unchanged results, host-scalar writes stay private, and
a functional run still gets a writable copy of its own.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import ALL_APPS, APPS_BY_NAME
from repro.apps.comd.reference import make_state as comd_state
from repro.apps.lulesh.reference import make_state as lulesh_state
from repro.apps.minife.reference import assemble
from repro.apps.readmem.reference import make_input
from repro.apps.xsbench.reference import make_data
from repro.engine import memo
from repro.exec.executor import execute_run
from repro.exec.plan import DGPU, RunSpec
from repro.hardware.specs import Precision
from tests.test_projection import SMALL


#: Each app's memoized problem builder.
BUILDERS = {
    "read-benchmark": make_input,
    "LULESH": lulesh_state,
    "CoMD": comd_state,
    "XSBench": make_data,
    "miniFE": assemble,
}


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


def _arrays(value):
    """Every array reachable through dataclass fields and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for item in vars(value).values():
            yield from _arrays(item)


@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_every_port_projects_over_one_shared_setup(app_name):
    """All of an app's ports, on both platforms, run over one stored
    setup: none writes it, and every result is bit-identical to a run
    with every cache off."""
    app = APPS_BY_NAME[app_name]
    specs = [
        RunSpec(app_name, model, platform, Precision.SINGLE, SMALL[app_name])
        for model in app.ports
        for platform in ("apu", DGPU)
    ]
    with memo.cache_disabled():
        expected = [execute_run(spec).result for spec in specs]
    shared = [execute_run(spec).result for spec in specs]
    assert shared == expected
    assert len(memo.SETUP_CACHE) == 1
    assert memo.SETUP_CACHE.snapshot().misses == 1
    (stored,) = memo.SETUP_CACHE._values.values()
    arrays = list(_arrays(stored))
    assert arrays and not any(array.flags.writeable for array in arrays)


def test_stray_write_to_a_shared_setup_raises():
    config = SMALL["LULESH"]
    with memo.shared_setups():
        first = lulesh_state(config, Precision.SINGLE)
        second = lulesh_state(config, Precision.SINGLE)
    assert first is not second and first.e is second.e
    with pytest.raises(ValueError, match="read-only"):
        first.e[0, 0, 0] = 1.0


def test_lulesh_projection_keeps_host_scalars_private():
    """LULESH ports advance ``dt`` and ``time`` on the state they get;
    the stored state keeps its initial values."""
    config = SMALL["LULESH"]
    app = APPS_BY_NAME["LULESH"]
    execute_run(RunSpec("LULESH", "OpenCL", DGPU, Precision.SINGLE, config))
    (stored,) = memo.SETUP_CACHE._values.values()
    initial = (stored.dt, stored.time)
    for model in app.ports:
        execute_run(RunSpec("LULESH", model, DGPU, Precision.SINGLE, config))
    assert (stored.dt, stored.time) == initial
    assert stored.time == 0.0


@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_functional_run_after_projection_gets_a_private_copy(app_name):
    """A functional run on a key a projection run stored first gets
    writable arrays of its own and matches a cold functional run."""
    config = SMALL[app_name]
    projection = RunSpec(app_name, "OpenCL", DGPU, Precision.SINGLE, config)
    functional = dataclasses.replace(projection, projection=False)
    with memo.cache_disabled():
        golden = execute_run(functional).result
    execute_run(projection)
    (stored,) = memo.SETUP_CACHE._values.values()
    assert execute_run(functional).result == golden
    assert memo.SETUP_CACHE.snapshot() == memo.MemoStats(hits=1, misses=1)
    # The store is untouched by the functional run's writes ...
    assert not any(array.flags.writeable for array in _arrays(stored))
    # ... because a functional hit is a writable deep copy.
    copies = list(_arrays(BUILDERS[app_name](config, Precision.SINGLE)))
    assert copies and all(array.flags.writeable for array in copies)
    assert not any(
        np.shares_memory(mine, theirs)
        for mine in copies
        for theirs in _arrays(stored)
    )
