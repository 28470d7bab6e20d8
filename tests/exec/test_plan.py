"""Run-descriptor flattening and content addressing."""

import hashlib

import pytest

from repro.apps.readmem import ReadMemConfig
from repro.exec.plan import APU, DGPU, RunSpec, study_runs, sweep_runs
from repro.hardware.specs import Precision

CONFIG = ReadMemConfig(size=1024)


def spec(**overrides):
    base = dict(
        app="read-benchmark",
        model="OpenCL",
        platform=APU,
        precision=Precision.SINGLE,
        config=CONFIG,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpec:
    def test_rejects_unknown_platform(self):
        with pytest.raises(ValueError):
            spec(platform="fpga")

    def test_apu_property(self):
        assert spec(platform=APU).apu
        assert not spec(platform=DGPU).apu

    def test_label_mentions_identity(self):
        label = spec().label
        assert "read-benchmark" in label
        assert "OpenCL" in label
        assert "single" in label

    def test_label_includes_clock_overrides(self):
        assert "@800/1375MHz" in spec(core_mhz=800.0, memory_mhz=1375.0).label

    def test_label_marks_a_missing_clock(self):
        assert "@800/-MHz" in spec(core_mhz=800.0).label
        assert "@-/1375MHz" in spec(memory_mhz=1375.0).label

    def test_content_key_is_content_not_identity(self):
        # Distinct but equal-content config objects collide by design.
        other = spec(config=ReadMemConfig(size=1024))
        assert spec().content_key() == other.content_key()

    def test_content_key_distinguishes_every_field(self):
        base = spec()
        for changed in (
            spec(app="XSBench"),
            spec(model="OpenACC"),
            spec(platform=DGPU),
            spec(precision=Precision.DOUBLE),
            spec(config=ReadMemConfig(size=2048)),
            spec(projection=False),
            spec(core_mhz=900.0),
            spec(memory_mhz=1100.0),
        ):
            assert changed.content_key() != base.content_key(), changed

    @pytest.mark.parametrize("clocks", [(None, None), (800.0, None), (None, 1375.5)])
    def test_keys_are_the_field_tuple(self, clocks):
        """Both keys are built once, sharing one config repr; the
        content key stays the digest of the whole field tuple's repr
        (persistent stores are keyed by it)."""
        s = spec(projection=False, core_mhz=clocks[0], memory_mhz=clocks[1])
        fields = (s.app, s.model, s.platform, s.precision.value, s.config,
                  s.projection, s.core_mhz, s.memory_mhz)
        assert s.content_key() == hashlib.sha256(repr(fields).encode()).hexdigest()
        assert s.schedule_key() == (*fields[:4], repr(s.config), s.projection)


class TestValidation:
    """Bad descriptors fail at construction with a nameable message,
    not as a KeyError deep inside a pool worker."""

    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError, match="unknown app"):
            spec(app="HPL")

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="no 'CUDA' port"):
            spec(model="CUDA")

    def test_rejects_nonpositive_size(self):
        class DuckConfig:  # the net catches duck-typed configs too
            size = 0

        with pytest.raises(ValueError, match="size=0 must be positive"):
            spec(config=DuckConfig())

    def test_rejects_negative_reps(self):
        class FakeConfig:
            size = 64
            reps = -3

        with pytest.raises(ValueError, match="reps=-3"):
            spec(config=FakeConfig())

    def test_rejects_nonpositive_clocks(self):
        with pytest.raises(ValueError, match="core_mhz"):
            spec(core_mhz=0.0)
        with pytest.raises(ValueError, match="memory_mhz"):
            spec(memory_mhz=-200.0)

    def test_bool_config_fields_are_not_counts(self):
        class FlaggedConfig:
            size = 64
            steps = False  # a flag, not a count

        spec(config=FlaggedConfig())  # does not raise


class TestStudyRuns:
    def test_canonical_order_baseline_first(self):
        runs = study_runs(
            app_names=["read-benchmark"],
            configs={"read-benchmark": CONFIG},
            apu_values=(True, False),
            precisions=(Precision.SINGLE,),
            models=("OpenCL", "OpenACC"),
            baseline="OpenMP",
            projection=True,
        )
        assert [r.model for r in runs] == ["OpenMP", "OpenCL", "OpenACC"] * 2
        assert [r.platform for r in runs] == [APU] * 3 + [DGPU] * 3

    def test_cell_count(self):
        runs = study_runs(
            app_names=["XSBench", "CoMD"],
            configs={"XSBench": CONFIG, "CoMD": CONFIG},
            apu_values=(True, False),
            precisions=(Precision.SINGLE, Precision.DOUBLE),
            models=("OpenCL", "C++ AMP", "OpenACC"),
            baseline="OpenMP",
            projection=True,
        )
        assert len(runs) == 2 * 2 * 2 * (1 + 3)


class TestSweepRuns:
    def test_memory_major_grid(self):
        runs = sweep_runs(
            "read-benchmark",
            CONFIG,
            Precision.SINGLE,
            core_grid=(700.0, 800.0),
            memory_grid=(1000.0, 1200.0),
            model="OpenCL",
        )
        assert [(r.memory_mhz, r.core_mhz) for r in runs] == [
            (1000.0, 700.0),
            (1000.0, 800.0),
            (1200.0, 700.0),
            (1200.0, 800.0),
        ]
        assert all(r.platform == DGPU and r.projection for r in runs)
