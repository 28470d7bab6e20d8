"""Fault-tolerance layer: taxonomy, injection, retries, recovery.

The core invariant under test: a study under *transient* fault
injection (crash/timeout/corrupt) produces results
bit-identical to a fault-free run — the chaos harness only exercises
the recovery machinery, never the numbers.
"""

import pytest

from repro.apps.readmem import ReadMemConfig
from repro.engine import memo
from repro.exec.executor import execute, execute_run
from repro.exec.faults import (
    FAULT_KINDS,
    ErrorKind,
    FaultPlan,
    InjectedCrash,
    InjectedPoison,
    ResultValidationError,
    RunError,
    RunTimeout,
    fault_plan_from_env,
    parse_fault_plan,
)
from repro.exec.plan import APU, DGPU, RunSpec
from repro.exec.retry import RetryPolicy, classify, run_with_retry, validate_result
from repro.hardware.specs import Precision

#: Fast policy for tests: full retry ladder, no real sleeping.
POLICY = RetryPolicy(max_attempts=3, backoff_base=0.0)


def run_spec(model="OpenCL", platform=APU, size=1024, **overrides):
    return RunSpec(
        app="read-benchmark",
        model=model,
        platform=platform,
        precision=Precision.SINGLE,
        config=ReadMemConfig(size=size),
        **overrides,
    )


def spec_matrix(n=6):
    """A small matrix of distinct specs."""
    return [
        run_spec(platform=APU if i % 2 else DGPU, size=1024 * (i + 1))
        for i in range(n)
    ]


@pytest.fixture(autouse=True)
def fresh_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


class TestFaultPlan:
    def test_draws_are_deterministic(self):
        plan = FaultPlan(seed=3, rates=(("crash", 0.5),))
        again = FaultPlan(seed=3, rates=(("crash", 0.5),))
        keys = [s.content_key() for s in spec_matrix(20)]
        assert [plan.drawn("crash", k) for k in keys] == [
            again.drawn("crash", k) for k in keys
        ]

    def test_seed_changes_the_draws(self):
        keys = [s.content_key() for s in spec_matrix(40)]
        a = [FaultPlan(seed=1, rates=(("crash", 0.5),)).drawn("crash", k) for k in keys]
        b = [FaultPlan(seed=2, rates=(("crash", 0.5),)).drawn("crash", k) for k in keys]
        assert a != b

    def test_rate_bounds(self):
        keys = [s.content_key() for s in spec_matrix(10)]
        always = FaultPlan(rates=(("crash", 1.0),))
        never = FaultPlan(rates=(("crash", 0.0),))
        assert all(always.drawn("crash", k) for k in keys)
        assert not any(never.drawn("crash", k) for k in keys)
        assert not never.active

    def test_injection_stands_down_after_attempts(self):
        plan = FaultPlan(rates=(("crash", 1.0),), attempts=2)
        key = run_spec().content_key()
        assert plan.injects("crash", key, 0)
        assert plan.injects("crash", key, 1)
        assert not plan.injects("crash", key, 2)

    def test_rejects_unknown_kind_and_bad_rate(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(rates=(("meteor", 0.5),))
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(rates=(("crash", 1.5),))

    def test_parse_round_trip(self):
        plan = parse_fault_plan("crash:0.2,timeout:0.1,attempts:2", seed=9)
        assert plan.rate("crash") == 0.2
        assert plan.rate("timeout") == 0.1
        assert plan.attempts == 2
        assert plan.seed == 9
        assert parse_fault_plan(plan.spec_string(), seed=9) == plan

    def test_parse_rejects_malformed_tokens(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_fault_plan("crash")
        with pytest.raises(ValueError, match="malformed"):
            parse_fault_plan("crash:lots")

    def test_plan_from_env(self):
        env = {"REPRO_INJECT_FAULTS": "crash:0.25", "REPRO_FAULT_SEED": "4"}
        plan = fault_plan_from_env(env)
        assert plan == FaultPlan(seed=4, rates=(("crash", 0.25),))
        assert fault_plan_from_env({}) is None


class TestClassify:
    def test_taxonomy(self):
        assert classify(InjectedCrash("x")) is ErrorKind.TRANSIENT
        assert classify(RunTimeout("x")) is ErrorKind.TRANSIENT
        assert classify(MemoryError()) is ErrorKind.TRANSIENT
        assert classify(OSError()) is ErrorKind.TRANSIENT
        assert classify(InjectedPoison("x")) is ErrorKind.POISONED
        assert classify(ResultValidationError("x")) is ErrorKind.POISONED
        assert classify(ValueError("a bug")) is ErrorKind.PERMANENT

    def test_validate_result_rejects_nonfinite(self):
        class Bad:
            seconds = float("nan")
            kernel_seconds = 0.1
            checksum = 1.0

        with pytest.raises(ResultValidationError):
            validate_result(Bad())


class TestRetryLadder:
    def test_transient_crash_recovers(self):
        plan = FaultPlan(rates=(("crash", 1.0),))
        outcome = run_with_retry(run_spec(), POLICY, faults=plan)
        clean = execute_run(run_spec())
        assert outcome.result == clean.result
        assert outcome.attempts == 2
        assert outcome.retry_history[0].kind is ErrorKind.TRANSIENT

    def test_corrupt_result_is_caught_and_retried(self):
        plan = FaultPlan(rates=(("corrupt", 1.0),))
        outcome = run_with_retry(run_spec(), POLICY, faults=plan)
        assert outcome.result == execute_run(run_spec()).result
        assert "checksum" in outcome.retry_history[0].error

    def test_poison_exhausts_the_budget(self):
        plan = FaultPlan(rates=(("poison", 1.0),))
        error = run_with_retry(run_spec(), POLICY, faults=plan)
        assert isinstance(error, RunError)
        assert error.kind is ErrorKind.POISONED
        assert error.n_attempts == POLICY.max_attempts

    def test_permanent_error_fails_fast(self):
        spec = run_spec()
        object.__setattr__(spec, "config", None)  # breaks the port call
        error = run_with_retry(spec, POLICY)
        assert isinstance(error, RunError)
        assert error.kind is ErrorKind.PERMANENT
        assert error.n_attempts == 1
        assert error.traceback  # carries the real stack

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.5)
        key = run_spec().content_key()
        delays = [policy.backoff(key, a) for a in range(6)]
        assert delays == [policy.backoff(key, a) for a in range(6)]
        assert all(0 < d <= 0.5 for d in delays)

    def test_sleep_is_injectable(self):
        slept = []
        plan = FaultPlan(rates=(("crash", 1.0),), attempts=2)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.01)
        outcome = run_with_retry(run_spec(), policy, faults=plan, sleep=slept.append)
        assert outcome.attempts == 3
        assert len(slept) == 2
        assert slept == [h.backoff_seconds for h in outcome.retry_history]


class TestExecuteUnderInjection:
    """The executor-level invariant: injected transients never change
    the numbers, only the counters."""

    def assert_bit_identical(self, faults, n=6, **kwargs):
        clean, _ = execute(spec_matrix(n), use_cache=False)
        out, stats = execute(
            spec_matrix(n),
            use_cache=False,
            policy=kwargs.pop("policy", POLICY),
            faults=faults,
            **kwargs,
        )
        assert [o.result for o in out] == [o.result for o in clean]
        return stats

    def test_serial_crash_storm_is_bit_identical(self):
        stats = self.assert_bit_identical(FaultPlan(rates=(("crash", 1.0),)))
        assert stats.retries == 6
        assert not stats.failures

    def test_mixed_transients_are_bit_identical(self):
        plan = parse_fault_plan("crash:0.5,timeout:0.3,corrupt:0.3", seed=1)
        stats = self.assert_bit_identical(plan)
        assert stats.retries > 0
        assert not stats.failures

    def test_poison_quarantines_without_aborting(self):
        plan = FaultPlan(seed=2, rates=(("poison", 1.0),))
        specs = spec_matrix(4)
        out, stats = execute(specs, use_cache=False, policy=POLICY, faults=plan)
        assert all(o is None for o in out)
        assert len(stats.failures) == 4
        assert stats.quarantined == 4
        assert all(f.kind is ErrorKind.POISONED for f in stats.failures)
        assert {f.key for f in stats.failures} == {s.content_key() for s in specs}

    def test_partial_quarantine_keeps_survivors(self):
        plan = FaultPlan(seed=7, rates=(("poison", 0.5),))
        specs = spec_matrix(8)
        poisoned = {s.content_key() for s in specs if plan.drawn("poison", s.content_key())}
        assert 0 < len(poisoned) < 8  # seed chosen to split the matrix
        clean, _ = execute(specs, use_cache=False)
        out, stats = execute(specs, use_cache=False, policy=POLICY, faults=plan)
        for spec, outcome, reference in zip(specs, out, clean):
            if spec.content_key() in poisoned:
                assert outcome is None
            else:
                assert outcome.result == reference.result
        assert {f.key for f in stats.failures} == poisoned

    def test_stats_summary_reports_fault_tolerance(self):
        plan = FaultPlan(rates=(("crash", 1.0),))
        _, stats = execute(spec_matrix(2), use_cache=False, policy=POLICY, faults=plan)
        summary = stats.summary()
        assert "fault tolerance" in summary
        assert "2 retries" in summary


class TestPropertyInjection:
    def test_random_transient_plans_never_change_results(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        specs = spec_matrix(4)
        clean, _ = execute(specs, use_cache=False)
        reference = [o.result for o in clean]

        @given(
            seed=st.integers(min_value=0, max_value=2**16),
            crash=st.floats(min_value=0.0, max_value=1.0),
            timeout=st.floats(min_value=0.0, max_value=1.0),
            corrupt=st.floats(min_value=0.0, max_value=1.0),
            attempts=st.integers(min_value=1, max_value=2),
        )
        @settings(
            max_examples=15,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def check(seed, crash, timeout, corrupt, attempts):
            plan = FaultPlan(
                seed=seed,
                rates=(("corrupt", corrupt), ("crash", crash), ("timeout", timeout)),
                attempts=attempts,
            )
            out, stats = execute(
                specs,
                use_cache=False,
                policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
                faults=plan,
            )
            assert [o.result for o in out] == reference
            assert not stats.failures

        check()


class TestFaultKindCoverage:
    def test_every_kind_is_exercised_somewhere(self):
        # Guard against adding a kind without a behaviour: apply() or
        # the executor must consume every declared kind.
        assert set(FAULT_KINDS) == {
            "crash", "timeout", "corrupt", "poison", "interrupt",
        }
