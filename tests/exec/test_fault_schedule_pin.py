"""Pinned fault draw schedules.

Both seeded fault plans (study runs and serve requests) must keep
injecting the same faults for the same seed across refactors, or a
recorded chaos campaign stops being reproducible.  The determinism
tests elsewhere compare two draws made by the same code; these compare
against digests recorded from the code as it stood when they were
written.
"""

import hashlib
import json

from repro.exec.faults import FAULT_KINDS, FaultPlan
from repro.serve.faults import SERVE_FAULT_KINDS, ServeFaultPlan

RUN_KEYS = [f"run-{i:03d}" for i in range(200)]
SHARDS = (None, 0, 1)
ORDINALS = range(200)

#: Re-pinned when the ``abort`` and ``hang`` kinds were deleted: this
#: digest equals the previous schedule with those two kinds filtered
#: out (each kind is drawn from its own hash), so no surviving draw moved.
RUN_SCHEDULE_SHA256 = (
    "6d29fbccaa7decb75456668560199fb7ce22b1629e7df525f283231de618ac5d"
)
SERVE_SCHEDULE_SHA256 = (
    "41813e2d4387e5ebd1e3cc83b988f570f7b179c28ac53876e7a069900fb89d99"
)


def _digest(schedule: list) -> str:
    return hashlib.sha256(json.dumps(schedule).encode()).hexdigest()


def run_schedule() -> list:
    plan = FaultPlan(
        seed=2015, rates=tuple(sorted((kind, 0.25) for kind in FAULT_KINDS))
    )
    return [list(plan.faults_for(key)) for key in RUN_KEYS]


def serve_schedule() -> list:
    plan = ServeFaultPlan(
        seed=2015, rates=tuple(sorted((kind, 0.1) for kind in SERVE_FAULT_KINDS))
    )
    return [plan.draw(shard, n) for shard in SHARDS for n in ORDINALS]


def test_run_draws_cover_every_kind():
    drawn = {kind for kinds in run_schedule() for kind in kinds}
    assert drawn == set(FAULT_KINDS)


def test_serve_draws_cover_every_kind():
    assert set(serve_schedule()) == set(SERVE_FAULT_KINDS) | {None}


def test_run_draw_schedule_is_pinned():
    assert _digest(run_schedule()) == RUN_SCHEDULE_SHA256


def test_serve_draw_schedule_is_pinned():
    assert _digest(serve_schedule()) == SERVE_SCHEDULE_SHA256
