"""XSBench: macroscopic neutron cross-section lookup (reference).

Section IV-C: "XSBench computes the intensive macroscopic neutron
cross-section lookup ... works with the Hoogenboom-Martin reactor
material properties data-set and creates a random set of energy and
material pairs representing particle or material interactions.  The
pairs are then used to lookup cross-section probability."

The reproduction implements the unionized-energy-grid algorithm of the
real XSBench: per-nuclide pointwise cross-section tables, a unionized
grid over all nuclide energies with per-nuclide lower-bound indices,
the 12-material Hoogenboom-Martin composition, and lookups that
binary-search the unionized grid then interpolate and accumulate the
five macroscopic cross sections over the material's nuclides.

The paper ran ``-s small`` whose 240 MB unionized table was chosen to
fit the discrete GPU's 3 GB ("the next step in the lookup-table size
was 5 GB").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...engine.memo import memoized_setup, projection_stub
from ...hardware.specs import Precision

#: Five cross-section channels per grid point.
N_XS = 5  # total, elastic, absorption, fission, nu-fission

#: Hoogenboom-Martin: 12 materials; number of nuclides each contains
#: (the "small" problem's composition) and the lookup probability of
#: each material, as in XSBench's ``pick_mat``.
MATERIAL_NUCLIDE_COUNTS = (34, 5, 4, 4, 27, 21, 21, 12, 11, 9, 16, 3)
MATERIAL_PROBABILITIES = (
    0.140, 0.052, 0.275, 0.134, 0.154, 0.064, 0.066, 0.055, 0.008, 0.015, 0.025, 0.012,
)


@dataclass(frozen=True)
class XSBenchConfig:
    """Problem definition: ``./XSBench -s small``."""

    n_nuclides: int
    n_gridpoints: int  # per nuclide
    n_lookups: int

    def __post_init__(self) -> None:
        if self.n_nuclides < max(MATERIAL_NUCLIDE_COUNTS):
            raise ValueError(
                f"need at least {max(MATERIAL_NUCLIDE_COUNTS)} nuclides for the "
                "Hoogenboom-Martin fuel composition"
            )
        if self.n_gridpoints < 2:
            raise ValueError("each nuclide grid needs at least 2 points")
        if self.n_lookups < 1:
            raise ValueError("need at least one lookup")

    @property
    def n_union(self) -> int:
        return self.n_nuclides * self.n_gridpoints

    def table_bytes(self, precision: Precision) -> int:
        """Size of the unionized grid + index matrix + nuclide tables."""
        eb = precision.bytes_per_element
        nuclide_tables = self.n_nuclides * self.n_gridpoints * (1 + N_XS) * eb
        union = self.n_union * eb
        index_matrix = self.n_union * self.n_nuclides * 4
        return nuclide_tables + union + index_matrix


def default_config() -> XSBenchConfig:
    """CI-sized run."""
    return XSBenchConfig(n_nuclides=34, n_gridpoints=200, n_lookups=20_000)


def paper_config() -> XSBenchConfig:
    """Paper-sized run (``-s small``: 68 nuclides, 11303 gridpoints,
    whose index matrix gives the 240 MB table the paper cites)."""
    return XSBenchConfig(n_nuclides=68, n_gridpoints=11_303, n_lookups=15_000_000)


@dataclass
class XSBenchData:
    """The generated reactor data set plus the lookup stream."""

    config: XSBenchConfig
    #: Per-nuclide energy grids, (n_nuclides, n_gridpoints), ascending.
    nuclide_energy: np.ndarray
    #: Per-nuclide cross sections, (n_nuclides, n_gridpoints, N_XS).
    nuclide_xs: np.ndarray
    #: Unionized ascending energy grid, (n_union,).
    union_energy: np.ndarray
    #: For each union point, the lower-bound index into every nuclide's
    #: grid, (n_union, n_nuclides), int32.
    union_index: np.ndarray
    #: Materials: padded nuclide-id table and per-nuclide densities.
    material_nuclides: np.ndarray  # (12, max_nuclides) int32, -1 padded
    material_density: np.ndarray  # (12, max_nuclides)
    material_n: np.ndarray  # (12,) int32
    #: The lookup stream.
    lookup_energy: np.ndarray  # (n_lookups,)
    lookup_material: np.ndarray  # (n_lookups,) int32

    def checksum_reference(self) -> float:
        """Oracle checksum via the plain per-nuclide search (no union)."""
        macro = compute_macro_xs_direct(self)
        return float(np.abs(macro).sum())


@memoized_setup
def make_data(config: XSBenchConfig, precision: Precision, seed: int = 23) -> XSBenchData:
    """Generate the synthetic Hoogenboom-Martin-like data set.

    The real XSBench also generates random cross sections; what matters
    to the workload is the *structure* (sorted grids, unionized index,
    material composition, lookup distribution), which is reproduced
    exactly.
    """
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    rng = np.random.default_rng(seed)
    nn, ng = config.n_nuclides, config.n_gridpoints

    nuclide_energy = np.sort(rng.random((nn, ng)), axis=1).astype(dtype)
    # Guarantee strictly increasing grids and full [0, 1] coverage.
    nuclide_energy[:, 0] = 0.0
    nuclide_energy[:, -1] = 1.0
    nuclide_xs = rng.random((nn, ng, N_XS)).astype(dtype)

    union_energy = np.sort(nuclide_energy.reshape(-1)).astype(dtype)
    union_index = np.empty((config.n_union, nn), dtype=np.int32)
    for nuclide in range(nn):
        # Lower-bound index of each union energy in this nuclide's grid.
        idx = np.searchsorted(nuclide_energy[nuclide], union_energy, side="right") - 1
        union_index[:, nuclide] = np.clip(idx, 0, ng - 2)

    n_mats = len(MATERIAL_NUCLIDE_COUNTS)
    max_n = max(MATERIAL_NUCLIDE_COUNTS)
    material_nuclides = np.full((n_mats, max_n), -1, dtype=np.int32)
    material_density = np.zeros((n_mats, max_n), dtype=dtype)
    for m, count in enumerate(MATERIAL_NUCLIDE_COUNTS):
        material_nuclides[m, :count] = rng.choice(nn, size=count, replace=False)
        material_density[m, :count] = rng.random(count).astype(dtype) + 0.1

    probabilities = np.array(MATERIAL_PROBABILITIES)
    probabilities = probabilities / probabilities.sum()
    lookup_material = rng.choice(n_mats, size=config.n_lookups, p=probabilities).astype(np.int32)
    lookup_energy = rng.random(config.n_lookups).astype(dtype)

    return XSBenchData(
        config=config,
        nuclide_energy=nuclide_energy,
        nuclide_xs=nuclide_xs,
        union_energy=union_energy,
        union_index=union_index,
        material_nuclides=material_nuclides,
        material_density=material_density,
        material_n=np.array(MATERIAL_NUCLIDE_COUNTS, dtype=np.int32),
        lookup_energy=lookup_energy,
        lookup_material=lookup_material,
    )


@projection_stub(make_data)
def _projection_data(config: XSBenchConfig, precision: Precision, seed: int = 23) -> XSBenchData:
    """Shape-faithful stand-in for schedule capture.

    Every quantity the ports' schedules read is structural — buffer
    sizes from ``.nbytes``, chunk trip counts from ``array_split`` over
    the lookup stream, kernel specs from the config — so zeroed arrays
    with the real shapes/dtypes capture the identical schedule without
    generating (or deep-copying) the 240 MB data set.  Every array is
    read-only.
    """
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    nn, ng = config.n_nuclides, config.n_gridpoints
    n_mats = len(MATERIAL_NUCLIDE_COUNTS)
    max_n = max(MATERIAL_NUCLIDE_COUNTS)
    data = XSBenchData(
        config=config,
        nuclide_energy=np.zeros((nn, ng), dtype=dtype),
        nuclide_xs=np.zeros((nn, ng, N_XS), dtype=dtype),
        union_energy=np.zeros(config.n_union, dtype=dtype),
        union_index=np.zeros((config.n_union, nn), dtype=np.int32),
        material_nuclides=np.full((n_mats, max_n), -1, dtype=np.int32),
        material_density=np.zeros((n_mats, max_n), dtype=dtype),
        material_n=np.array(MATERIAL_NUCLIDE_COUNTS, dtype=np.int32),
        lookup_energy=np.zeros(config.n_lookups, dtype=dtype),
        lookup_material=np.zeros(config.n_lookups, dtype=np.int32),
    )
    for array in vars(data).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return data


def compute_macro_xs_direct(data: XSBenchData) -> np.ndarray:
    """Oracle: macroscopic XS via direct per-nuclide binary searches.

    Slower than the unionized-grid kernel but independent of it, so it
    validates the union construction.
    """
    config = data.config
    dtype = data.lookup_energy.dtype
    macro = np.zeros((config.n_lookups, N_XS), dtype=dtype)
    for m in range(len(MATERIAL_NUCLIDE_COUNTS)):
        sel = data.lookup_material == m
        if not sel.any():
            continue
        energy = data.lookup_energy[sel]
        acc = np.zeros((len(energy), N_XS), dtype=dtype)
        for slot in range(int(data.material_n[m])):
            nuclide = int(data.material_nuclides[m, slot])
            density = data.material_density[m, slot]
            grid = data.nuclide_energy[nuclide]
            lo = np.clip(np.searchsorted(grid, energy, side="right") - 1, 0, len(grid) - 2)
            e_lo, e_hi = grid[lo], grid[lo + 1]
            frac = (energy - e_lo) / np.maximum(e_hi - e_lo, 1e-30)
            xs_lo = data.nuclide_xs[nuclide, lo]
            xs_hi = data.nuclide_xs[nuclide, lo + 1]
            acc += density * (xs_lo + frac[:, None] * (xs_hi - xs_lo))
        macro[sel] = acc
    return macro
