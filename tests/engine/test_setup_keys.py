"""Setup-cache keys and hand-out.

``memoized_setup`` binds every call to the builder's signature and
applies its defaults before keying, so an omitted default, the same
value passed positionally and the same value passed by keyword all
reach one :data:`~repro.engine.memo.SETUP_CACHE` entry and, inside a
projection-stub block, one stub-cache entry.  Functional runs, the
cache's only users, get a writable deep copy of each stored setup.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.apps.comd.reference import make_state
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
    "CoMD": make_state,
    "XSBench": make_data,
    "miniFE": assemble,
}

CALLS = (
    lambda config, precision: make_state(config, precision),
    lambda config, precision: make_state(config, precision, 11),
    lambda config, precision: make_state(config, precision, seed=11),
)


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


@pytest.mark.parametrize("precision", list(Precision))
def test_default_positional_and_keyword_seed_share_one_setup_entry(precision):
    config = SMALL["CoMD"]
    states = [call(config, precision) for call in CALLS]
    assert memo.SETUP_CACHE.snapshot() == memo.MemoStats(hits=2, misses=1)
    assert len(memo.SETUP_CACHE) == 1
    for state in states[1:]:
        assert state.velocities.tobytes() == states[0].velocities.tobytes()


@pytest.mark.parametrize("precision", list(Precision))
def test_default_positional_and_keyword_seed_share_one_stub(precision):
    config = SMALL["CoMD"]
    with memo.projection_stubs():
        stubs = [call(config, precision) for call in CALLS]
    assert stubs[0] is stubs[1] is stubs[2]
    # The single-precision stub also holds the double-precision one it
    # casts its velocities from.
    expected = 1 if precision is Precision.DOUBLE else 2
    assert len(memo.STUB_CACHE) == expected


def test_distinct_seeds_stay_distinct():
    config = SMALL["CoMD"]
    make_state(config, Precision.DOUBLE)
    make_state(config, Precision.DOUBLE, seed=12)
    assert memo.SETUP_CACHE.snapshot() == memo.MemoStats(hits=0, misses=2)


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
def test_functional_run_gets_a_private_copy(app_name):
    """A warm functional run gets writable arrays of its own, leaves the
    frozen stored setup unwritten and matches a cold functional run."""
    config = SMALL[app_name]
    functional = RunSpec(app_name, "OpenCL", DGPU, Precision.SINGLE, config, projection=False)
    with memo.cache_disabled():
        golden = execute_run(functional).result
    assert execute_run(functional).result == golden
    assert execute_run(functional).result == golden
    assert memo.SETUP_CACHE.snapshot() == memo.MemoStats(hits=1, misses=1)
    (stored,) = memo.SETUP_CACHE._values.values()
    # The store is untouched by the functional runs' writes ...
    assert not any(array.flags.writeable for array in _arrays(stored))
    # ... because a functional hit is a writable deep copy.
    copies = list(_arrays(BUILDERS[app_name](config, Precision.SINGLE)))
    assert copies and all(array.flags.writeable for array in copies)
    assert not any(
        np.shares_memory(mine, theirs)
        for mine in copies
        for theirs in _arrays(stored)
    )
