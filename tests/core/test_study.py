"""Comparison-study framework tests (functional, small sizes)."""

import pytest

from repro.apps import APPS_BY_NAME
from repro.apps.readmem import ReadMemConfig
from repro.core.study import GPU_MODELS, StudyEntry, StudyResult, run_port, run_study
from repro.hardware.specs import Precision

READMEM = APPS_BY_NAME["read-benchmark"]


def small_study():
    return run_study(
        (READMEM,),
        paper_scale=False,
        configs={"read-benchmark": ReadMemConfig(size=1 << 16)},
        precisions=(Precision.SINGLE,),
    )


class TestRunPort:
    def test_projection_flag(self):
        config = ReadMemConfig(size=1 << 16)
        functional = run_port(READMEM, "OpenCL", False, Precision.SINGLE, config, projection=False)
        projected = run_port(READMEM, "OpenCL", False, Precision.SINGLE, config, projection=True)
        assert functional.seconds == pytest.approx(projected.seconds, rel=1e-12)


class TestStudyResult:
    def test_entries_cover_grid(self):
        study = small_study()
        # 1 app x 3 models x 2 platforms x 1 precision
        assert len(study.entries) == 6

    def test_lookup(self):
        study = small_study()
        entry = study.get("read-benchmark", "OpenCL", apu=True, precision=Precision.SINGLE)
        assert isinstance(entry, StudyEntry)
        assert entry.speedup > 0

    def test_missing_entry_raises(self):
        with pytest.raises(KeyError):
            small_study().get("nope", "OpenCL", apu=True, precision=Precision.SINGLE)

    def test_speedups_per_subplot(self):
        study = small_study()
        speedups = study.speedups("read-benchmark", apu=False, precision=Precision.SINGLE)
        assert set(speedups) == set(GPU_MODELS)
        assert all(v > 0 for v in speedups.values())

    def test_kernel_speedup_differs_from_total_on_dgpu(self):
        study = small_study()
        entry = study.get("read-benchmark", "OpenCL", apu=False, precision=Precision.SINGLE)
        assert entry.kernel_speedup > entry.speedup  # transfers hurt totals

    def test_config_override_used(self):
        study = run_study(
            (READMEM,),
            paper_scale=False,
            configs={"read-benchmark": ReadMemConfig(size=1 << 14)},
            precisions=(Precision.SINGLE,),
            apu_values=(False,),
        )
        assert len(study.entries) == 3


class TestStudyFaultTolerance:
    def test_transient_injection_is_bit_identical(self):
        from repro.exec import RetryPolicy, parse_fault_plan

        clean = small_study()
        chaotic = run_study(
            (READMEM,),
            paper_scale=False,
            configs={"read-benchmark": ReadMemConfig(size=1 << 16)},
            precisions=(Precision.SINGLE,),
            policy=RetryPolicy(backoff_base=0.0),
            faults=parse_fault_plan("crash:0.5,corrupt:0.3", seed=4),
        )
        assert chaotic.entries == clean.entries
        assert chaotic.complete
        assert chaotic.stats.retries > 0

    def test_quarantined_cells_drop_entries_not_the_study(self):
        from repro.exec import RetryPolicy, parse_fault_plan

        study = run_study(
            (READMEM,),
            paper_scale=False,
            configs={"read-benchmark": ReadMemConfig(size=1 << 16)},
            precisions=(Precision.SINGLE,),
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
            faults=parse_fault_plan("poison:0.4", seed=1),
        )
        assert not study.complete
        assert study.failures
        clean = small_study()
        # Surviving entries are unchanged; lost ones are just absent.
        assert len(study.entries) < len(clean.entries)
        surviving = {(e.app, e.model, e.apu, e.precision) for e in study.entries}
        for entry in clean.entries:
            if (entry.app, entry.model, entry.apu, entry.precision) in surviving:
                assert entry in study.entries

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        clean = small_study()
        path = tmp_path / "study.ck"
        first = run_study(
            (READMEM,),
            paper_scale=False,
            configs={"read-benchmark": ReadMemConfig(size=1 << 16)},
            precisions=(Precision.SINGLE,),
            checkpoint=path,
        )
        resumed = run_study(
            (READMEM,),
            paper_scale=False,
            configs={"read-benchmark": ReadMemConfig(size=1 << 16)},
            precisions=(Precision.SINGLE,),
            checkpoint=path,
        )
        assert first.entries == clean.entries == resumed.entries
        assert resumed.stats.resumed_runs == resumed.stats.unique_runs


def test_max_workers_accepts_only_one_process():
    """The benchmark harness passes ``max_workers=1``; every study runs
    in one process, so any other count is refused, not ignored."""
    config = {"read-benchmark": ReadMemConfig(size=1 << 16)}
    kept = run_study((READMEM,), configs=config, precisions=(Precision.SINGLE,), max_workers=1)
    assert kept.entries
    for workers in (0, 2):
        with pytest.raises(ValueError, match="max_workers must be 1"):
            run_study((READMEM,), configs=config, max_workers=workers)
