"""Study execution with result memoization.

The paper's artifacts are dense run matrices (Figures 7-10).  This
package turns those matrices into flat lists of independent
:class:`~repro.exec.plan.RunSpec` descriptors, deduplicates them by
content, prices projection cells one schedule group per call, runs the
rest one at a time under a retry ladder, and backs all kernel pricing
with the content-addressed memo cache of :mod:`repro.engine.memo` —
so shared baselines and repeated kernels are priced exactly once and
results stay bit-identical to pricing each run alone.
"""

from ..engine.memo import (
    KERNEL_CACHE,
    SETUP_CACHE,
    MemoCache,
    MemoStats,
    SetupMemoCache,
    cache_disabled,
    cached_simulate_kernel,
    cached_time_gpu_kernel,
    clear_caches,
    memoized_setup,
    set_cache_enabled,
)
from .checkpoint import CheckpointJournal
from .executor import (
    ExecStats,
    ExecutionInterrupted,
    RunOutcome,
    execute,
    execute_run,
)
from .faults import (
    ErrorKind,
    FaultAttempt,
    FaultPlan,
    RunError,
    fault_plan_from_env,
    parse_fault_plan,
)
from .plan import APU, DGPU, RunSpec, study_runs, sweep_runs
from .retry import RetryPolicy, classify, run_with_retry, validate_result

__all__ = [
    "APU",
    "CheckpointJournal",
    "DGPU",
    "ErrorKind",
    "ExecStats",
    "ExecutionInterrupted",
    "FaultAttempt",
    "FaultPlan",
    "RetryPolicy",
    "RunError",
    "classify",
    "fault_plan_from_env",
    "parse_fault_plan",
    "run_with_retry",
    "validate_result",
    "KERNEL_CACHE",
    "MemoCache",
    "MemoStats",
    "RunOutcome",
    "RunSpec",
    "SETUP_CACHE",
    "SetupMemoCache",
    "cache_disabled",
    "cached_simulate_kernel",
    "cached_time_gpu_kernel",
    "clear_caches",
    "execute",
    "execute_run",
    "memoized_setup",
    "set_cache_enabled",
    "study_runs",
    "sweep_runs",
]
