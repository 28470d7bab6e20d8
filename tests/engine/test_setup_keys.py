"""Setup-cache keys: one entry per call, however its arguments are spelled.

``memoized_setup`` binds every call to the builder's signature and
applies its defaults before keying, so an omitted default, the same
value passed positionally and the same value passed by keyword all
reach one :data:`~repro.engine.memo.SETUP_CACHE` entry and, inside a
projection-stub block, one stub-cache entry.
"""

import pytest

from repro.apps.comd.reference import make_state
from repro.engine import memo
from repro.hardware.specs import Precision
from tests.test_projection import SMALL

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
    assert len(memo._STUB_CACHE) == expected


def test_distinct_seeds_stay_distinct():
    config = SMALL["CoMD"]
    make_state(config, Precision.DOUBLE)
    make_state(config, Precision.DOUBLE, seed=12)
    assert memo.SETUP_CACHE.snapshot() == memo.MemoStats(hits=0, misses=2)
