"""CoMD: Lennard-Jones molecular dynamics reference implementation.

Section IV-B: "CoMD is a molecular dynamics proxy application which
performs atomic-scale simulation by solving the Newton's laws between
particles ... every particle interacts with all other particles
within a set cutoff distance ... Computation of forces accounts for
more than 90% of total execution time."

The reproduction implements the LJ variant (Table I counts "3 (LJ)"
kernels): an FCC lattice in reduced Lennard-Jones units, a link-cell
neighbour search (cell edge >= cutoff, 27-cell stencil), truncated
and shifted LJ forces with periodic boundaries, and velocity-Verlet
integration.  Atoms are re-binned into cells whenever any displacement
exceeds half the cell margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...engine.memo import memoized_setup, projection_stub, projection_stubs
from ...hardware.specs import Precision
from ...models.base import placeholder

#: Reduced LJ units: epsilon = sigma = mass = 1.
LJ_CUTOFF = 2.5
#: FCC lattice constant at the zero-pressure LJ minimum.
LATTICE_A0 = 2.0 ** (1.0 / 6.0) * np.sqrt(2.0)
#: FCC basis, in lattice-constant units.
FCC_BASIS = np.array(
    [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
)


@dataclass(frozen=True)
class CoMDConfig:
    """Problem definition: ``./CoMD -x NX -y NY -z NZ``."""

    nx: int
    ny: int
    nz: int
    steps: int = 10
    dt: float = 0.002
    temperature: float = 0.1  # initial reduced temperature

    def __post_init__(self) -> None:
        for name in ("nx", "ny", "nz"):
            v = getattr(self, name)
            if v < 6 or v % 2:
                raise ValueError(
                    f"{name} must be an even number >= 6: link cells span two "
                    "unit cells and the periodic 27-stencil needs at least "
                    "three distinct cells per dimension"
                )
        if self.steps < 1:
            raise ValueError("need at least one step")

    @property
    def n_atoms(self) -> int:
        return 4 * self.nx * self.ny * self.nz

    @property
    def box(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz], dtype=float) * LATTICE_A0

    @property
    def cells_per_dim(self) -> tuple[int, int, int]:
        # One link cell spans two unit cells: edge 2*a0 = 3.17 > cutoff.
        return (self.nx // 2, self.ny // 2, self.nz // 2)


def default_config() -> CoMDConfig:
    """CI-sized run (12^3 unit cells = 6912 atoms)."""
    return CoMDConfig(nx=12, ny=12, nz=12, steps=5)


def paper_config() -> CoMDConfig:
    """Paper-sized run (Table I: ``./CoMD -x 60 -y 60 -z 60``)."""
    return CoMDConfig(nx=60, ny=60, nz=60, steps=100)


@dataclass
class CoMDState:
    """Atom arrays plus the link-cell structure."""

    config: CoMDConfig
    positions: np.ndarray  # (n, 3)
    velocities: np.ndarray  # (n, 3)
    forces: np.ndarray  # (n, 3)
    pe_per_atom: np.ndarray  # (n,)
    #: Link cells: padded atom-index table, shape (n_cells, max_occupancy).
    cell_atoms: np.ndarray
    cell_count: np.ndarray  # (n_cells,)
    #: Precomputed 27-neighbour cell ids, shape (n_cells, 27).
    neighbor_cells: np.ndarray
    #: Atom positions at the last re-binning (displacement check).
    rebin_positions: np.ndarray
    #: Set only on projection stubs, whose read-only arrays never
    #: change: the initial-state checksum, computed once at build.
    frozen_checksum: float | None = None

    def kinetic_energy(self) -> float:
        return 0.5 * float((self.velocities**2).sum())

    def potential_energy(self) -> float:
        return float(self.pe_per_atom.sum())

    def total_energy(self) -> float:
        return self.kinetic_energy() + self.potential_energy()

    def checksum(self) -> float:
        if self.frozen_checksum is not None:
            return self.frozen_checksum
        return self.total_energy()


def _initial_velocities(config: CoMDConfig, dtype: np.dtype, seed: int) -> np.ndarray:
    """Maxwellian velocities at the configured temperature."""
    rng = np.random.default_rng(seed)
    velocities = rng.normal(0.0, np.sqrt(config.temperature), size=(config.n_atoms, 3))
    velocities -= velocities.mean(axis=0)  # zero net momentum
    return velocities.astype(dtype)


@memoized_setup
def make_state(config: CoMDConfig, precision: Precision, seed: int = 11) -> CoMDState:
    """FCC lattice with a small Maxwellian velocity perturbation."""
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    cells = np.stack(
        np.meshgrid(
            np.arange(config.nx), np.arange(config.ny), np.arange(config.nz), indexing="ij"
        ),
        axis=-1,
    ).reshape(-1, 3)
    positions = (cells[:, None, :] + FCC_BASIS[None, :, :]).reshape(-1, 3) * LATTICE_A0
    positions = positions.astype(dtype)

    n = config.n_atoms
    state = CoMDState(
        config=config,
        positions=positions,
        velocities=_initial_velocities(config, dtype, seed),
        forces=np.zeros((n, 3), dtype=dtype),
        pe_per_atom=np.zeros(n, dtype=dtype),
        cell_atoms=np.empty(0, dtype=np.int64),
        cell_count=np.empty(0, dtype=np.int64),
        neighbor_cells=np.empty(0, dtype=np.int64),
        rebin_positions=positions.copy(),
    )
    bin_atoms(state)
    state.neighbor_cells = build_neighbor_map(config)
    return state


@projection_stub(make_state)
def _projection_state(config: CoMDConfig, precision: Precision, seed: int = 11) -> CoMDState:
    """Frozen, shape-only stand-in for schedule capture.

    Buffer sizes are all the ports' schedules read, so the atom arrays
    and both link-cell tables are read-only placeholders.  Two values
    are exact: the cell occupancy (its maximum sizes ``cell_atoms``),
    counted from the lattice without building it, and the checksum,
    whose kinetic term needs the real velocity draw.  Positions never
    move, so ``bin_atoms`` keeps this table as is.

    Both precisions cast one float64 draw, so the single-precision stub
    casts the double-precision stub's velocities (served from the stub
    cache when enabled) instead of drawing them again.
    """
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    n = config.n_atoms
    counts = _lattice_cell_counts(config, dtype)
    if precision is Precision.SINGLE:
        with projection_stubs():
            double = make_state(config, Precision.DOUBLE, seed)
        velocities = double.velocities.astype(dtype)
    else:
        velocities = _initial_velocities(config, dtype, seed)
    velocities.flags.writeable = False
    counts.flags.writeable = False
    positions = placeholder((n, 3), dtype)
    state = CoMDState(
        config=config,
        positions=positions,
        velocities=velocities,
        forces=placeholder((n, 3), dtype),
        pe_per_atom=placeholder(n, dtype),
        cell_atoms=placeholder((len(counts), int(counts.max())), np.int64),
        cell_count=counts,
        neighbor_cells=placeholder((len(counts), 27), np.int64),
        rebin_positions=positions,
    )
    state.frozen_checksum = state.total_energy()
    return state


def _cell_index(positions: np.ndarray, config: CoMDConfig) -> np.ndarray:
    """Per-axis link-cell index of every coordinate (last axis x, y, z)."""
    dims = np.array(config.cells_per_dim)
    box = config.box
    wrapped = np.mod(positions, box.astype(positions.dtype))
    return np.minimum((wrapped / (box / dims).astype(wrapped.dtype)).astype(np.int64), dims - 1)


def _lattice_cell_counts(config: CoMDConfig, dtype: np.dtype) -> np.ndarray:
    """Atoms per link cell of the unmoved lattice, without the lattice.

    A site's cell index along an axis depends only on its unit-cell
    index and basis offset along that axis, so the 3-D occupancy is a
    sum over the four basis vectors of outer products of per-axis
    counts: the same counts :func:`bin_atoms` finds in ``make_state``.
    """
    dims = config.cells_per_dim
    units = np.arange(max(config.nx, config.ny, config.nz))
    # Row i, basis b, axis d holds the axis-d coordinate of unit cell i.
    sites = ((units[:, None, None] + FCC_BASIS) * LATTICE_A0).astype(dtype)
    index = _cell_index(sites, config)
    counts = np.zeros(dims, dtype=np.int64)
    for b in range(len(FCC_BASIS)):
        per_axis = [
            np.bincount(index[:n, b, d], minlength=nc)
            for d, (n, nc) in enumerate(zip((config.nx, config.ny, config.nz), dims))
        ]
        counts += np.einsum("i,j,k->ijk", *per_axis)
    return counts.reshape(-1)


def bin_atoms(state: CoMDState) -> None:
    """(Re)build the padded link-cell table from current positions."""
    if state.rebin_positions is state.positions and not state.positions.flags.writeable:
        # A frozen projection stub: its positions cannot have moved.
        return
    if state.cell_atoms.size and np.array_equal(state.positions, state.rebin_positions):
        # No atom has moved since the last binning: the table is a pure
        # function of positions, so recomputing would reproduce it
        # bit-for-bit.  Ports rebin unconditionally between epochs; in
        # scalar projection runs positions never change, making this
        # the common case there.
        return
    config = state.config
    ncx, ncy, ncz = config.cells_per_dim
    idx3 = _cell_index(state.positions, config)
    cell_ids = (idx3[:, 0] * ncy + idx3[:, 1]) * ncz + idx3[:, 2]
    n_cells = ncx * ncy * ncz
    order = np.argsort(cell_ids, kind="stable")
    sorted_cells = cell_ids[order]
    counts = np.bincount(sorted_cells, minlength=n_cells)
    max_occ = int(counts.max())
    table = np.full((n_cells, max_occ), -1, dtype=np.int64)
    offsets = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Scatter each atom into its cell's next free slot: the stable sort
    # keeps members of one cell consecutive in `order`, so an atom's
    # slot is its rank within the cell's run.
    slot = np.arange(len(order), dtype=np.int64) - offsets[sorted_cells]
    table[sorted_cells, slot] = order
    state.cell_atoms = table
    state.cell_count = counts.astype(np.int64)
    state.rebin_positions = state.positions.copy()


def needs_rebin(state: CoMDState) -> bool:
    """True when some atom moved more than half the cell safety margin."""
    config = state.config
    cell_edge = float(min(config.box / np.array(config.cells_per_dim)))
    margin = 0.5 * (cell_edge - LJ_CUTOFF)
    displacement = np.abs(state.positions - state.rebin_positions).max()
    return bool(displacement > max(margin, 1e-6))


def build_neighbor_map(config: CoMDConfig) -> np.ndarray:
    """27 periodic neighbour cell ids for every link cell."""
    ncx, ncy, ncz = config.cells_per_dim
    ids = np.arange(ncx * ncy * ncz)
    ix = ids // (ncy * ncz)
    iy = (ids // ncz) % ncy
    iz = ids % ncz
    neighbors = np.empty((len(ids), 27), dtype=np.int64)
    col = 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                jx = (ix + dx) % ncx
                jy = (iy + dy) % ncy
                jz = (iz + dz) % ncz
                neighbors[:, col] = (jx * ncy + jy) * ncz + jz
                col += 1
    return neighbors
