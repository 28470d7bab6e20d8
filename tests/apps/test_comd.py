"""CoMD tests: lattice, link cells, forces, energy conservation."""

import numpy as np
import pytest

from repro.apps.comd import (
    APP,
    LATTICE_A0,
    LJ_CUTOFF,
    CoMDConfig,
    bin_atoms,
    build_neighbor_map,
    compute_forces,
    make_state,
    needs_rebin,
    run_reference,
)
from repro.hardware.device import make_apu_platform, make_dgpu_platform
from repro.hardware.specs import Precision

GPU_MODELS = ("OpenCL", "C++ AMP", "OpenACC")


def small_config(steps=3):
    return CoMDConfig(nx=6, ny=6, nz=6, steps=steps)


class TestConfig:
    def test_atom_count(self):
        assert small_config().n_atoms == 4 * 6**3

    def test_paper_config(self):
        config = APP.paper_config()
        assert (config.nx, config.ny, config.nz) == (60, 60, 60)
        assert config.n_atoms == 864_000

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            CoMDConfig(nx=7, ny=6, nz=6)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            CoMDConfig(nx=4, ny=6, nz=6)

    def test_cell_edge_exceeds_cutoff(self):
        config = small_config()
        edges = config.box / np.array(config.cells_per_dim)
        assert (edges > LJ_CUTOFF).all()


class TestLattice:
    def test_fcc_nearest_neighbour_distance(self):
        state = make_state(small_config(), Precision.DOUBLE)
        # FCC nearest-neighbour distance is a0/sqrt(2) = 2^(1/6) sigma.
        p0 = state.positions[0]
        d = np.linalg.norm(state.positions[1:200] - p0, axis=1)
        assert d.min() == pytest.approx(LATTICE_A0 / np.sqrt(2), rel=1e-6)

    def test_zero_net_momentum(self):
        state = make_state(small_config(), Precision.DOUBLE)
        np.testing.assert_allclose(state.velocities.sum(axis=0), 0.0, atol=1e-9)

    def test_positions_inside_box(self):
        state = make_state(small_config(), Precision.DOUBLE)
        assert (state.positions >= 0).all()
        assert (state.positions < state.config.box).all()


class TestLinkCells:
    def test_every_atom_in_exactly_one_cell(self):
        state = make_state(small_config(), Precision.DOUBLE)
        members = state.cell_atoms[state.cell_atoms >= 0]
        assert len(members) == state.config.n_atoms
        assert len(np.unique(members)) == state.config.n_atoms

    def test_counts_match_table(self):
        state = make_state(small_config(), Precision.DOUBLE)
        assert state.cell_count.sum() == state.config.n_atoms

    def test_neighbor_map_has_27_entries(self):
        neighbors = build_neighbor_map(small_config())
        assert neighbors.shape[1] == 27
        # All 27 neighbours of a given cell are distinct (grid >= 3 wide).
        assert all(len(np.unique(row)) == 27 for row in neighbors[:10])

    def test_neighbor_map_symmetric(self):
        neighbors = build_neighbor_map(small_config())
        for cell in (0, 5, 11):
            for other in neighbors[cell]:
                assert cell in neighbors[other]

    def test_rebin_after_motion(self):
        state = make_state(small_config(), Precision.DOUBLE)
        assert not needs_rebin(state)
        state.positions += 1.0
        assert needs_rebin(state)
        bin_atoms(state)
        assert not needs_rebin(state)


class TestForces:
    def test_perfect_lattice_has_near_zero_forces(self):
        """On the ideal FCC lattice every atom's environment is
        symmetric, so forces cancel."""
        config = small_config()
        state = make_state(config, Precision.DOUBLE)
        state.velocities[:] = 0.0
        compute_forces(state)
        assert np.abs(state.forces).max() < 1e-9

    def test_newtons_third_law_net_force(self):
        state = make_state(small_config(), Precision.DOUBLE)
        rng = np.random.default_rng(3)
        state.positions += 0.05 * rng.standard_normal(state.positions.shape)
        bin_atoms(state)
        compute_forces(state)
        np.testing.assert_allclose(state.forces.sum(axis=0), 0.0, atol=1e-8)

    def test_potential_negative_in_crystal(self):
        state = make_state(small_config(), Precision.DOUBLE)
        compute_forces(state)
        assert state.potential_energy() < 0

    def test_forces_invariant_under_rebinning(self):
        state = make_state(small_config(), Precision.DOUBLE)
        rng = np.random.default_rng(4)
        state.positions += 0.05 * rng.standard_normal(state.positions.shape)
        bin_atoms(state)
        compute_forces(state)
        before = state.forces.copy()
        bin_atoms(state)
        compute_forces(state)
        np.testing.assert_allclose(state.forces, before, rtol=1e-10)


class TestIntegration:
    def test_energy_conservation(self):
        config = CoMDConfig(nx=6, ny=6, nz=6, steps=20)
        state = run_reference(config, Precision.DOUBLE)
        one = run_reference(CoMDConfig(nx=6, ny=6, nz=6, steps=1), Precision.DOUBLE)
        drift = abs(state.total_energy() - one.total_energy()) / abs(one.total_energy())
        assert drift < 1e-4

    def test_temperature_stays_finite(self):
        state = run_reference(CoMDConfig(nx=6, ny=6, nz=6, steps=15), Precision.DOUBLE)
        assert np.isfinite(state.kinetic_energy())
        assert state.kinetic_energy() > 0


class TestPortAgreement:
    @pytest.mark.parametrize("apu", [True, False])
    def test_all_ports_match_reference(self, apu):
        config = small_config(steps=2)
        reference = run_reference(config, Precision.SINGLE)
        platform_fn = make_apu_platform if apu else make_dgpu_platform
        for model in ("Serial", "OpenMP") + GPU_MODELS:
            result = APP.run(model, platform_fn(), Precision.SINGLE, config)
            assert result.checksum == pytest.approx(reference.checksum(), rel=1e-4), model


class TestPaperShape:
    @staticmethod
    def _project(model, platform, precision, config):
        from repro.engine.study_vec import priced_run
        from repro.models.base import ExecutionContext

        ctx = ExecutionContext(platform=platform, precision=precision, execute_kernels=False)
        return priced_run(APP.ports[model], ctx, config)

    def test_openacc_worst_everywhere(self):
        """Fig. 8c/9c: 'OpenACC demonstrated the worst performance on
        both architectures' (at device-saturating sizes)."""
        config = CoMDConfig(nx=24, ny=24, nz=24, steps=3)
        for platform_fn in (make_apu_platform, make_dgpu_platform):
            results = {
                m: self._project(m, platform_fn(), Precision.SINGLE, config)
                for m in GPU_MODELS
            }
            assert results["OpenACC"].seconds > results["OpenCL"].seconds
            assert results["OpenACC"].seconds > results["C++ AMP"].seconds

    def test_dp_collapse_on_apu(self):
        """Fig. 8c: Kaveri's 1/16 DP rate erases the GPU advantage."""
        config = CoMDConfig(nx=24, ny=24, nz=24, steps=3)
        sp = self._project("OpenCL", make_apu_platform(), Precision.SINGLE, config)
        dp = self._project("OpenCL", make_apu_platform(), Precision.DOUBLE, config)
        assert dp.seconds > 4 * sp.seconds
