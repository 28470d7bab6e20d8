"""LULESH physics: simplified Lagrangian shock hydrodynamics.

Solves the spherical Sedov blast problem on a structured hexahedral
mesh with Lagrange hydrodynamics, following the phase structure of
LLNL's LULESH proxy app (Sec. IV-A): advance node quantities (stress
and hourglass forces -> acceleration -> velocity -> position), advance
element quantities (kinematics -> artificial viscosity -> equation of
state -> volume update), then compute the Courant and hydro time
constraints.

The implementation is deliberately decomposed into the paper's
**28 kernels** — each a standalone vectorized function over the state
arrays — so that every programming-model port launches the same kernel
schedule the GPU ports in the paper did.

Simplifications relative to LLNL LULESH (documented in DESIGN.md):
single material/region, parallelepiped volume/face geometry (exact for
the undeformed mesh, first-order for deformed hexes), a viscous
hourglass damper instead of the four-mode stiffness form, and a
simplified monotonic-Q limiter.  The conserved-energy and
shock-propagation behaviour of the Sedov problem is retained and
tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Equation-of-state and algorithm constants (LULESH defaults where
#: applicable).
GAMMA = 5.0 / 3.0
RHO_REF = 1.0
E_ZERO = 3.948746e7  # Sedov energy deposit
CFL = 0.5
HGCOEF = 3.0
QLC = 0.06  # linear artificial-viscosity coefficient
QQC = 2.0  # quadratic artificial-viscosity coefficient
QSTOP = 1.0e12
E_MIN = -1.0e15
P_MIN = 0.0
V_CUT = 1.0e-10
U_CUT = 1.0e-7
DVOVMAX = 0.1
DT_MAX_SCALE = 1.1
DT_COURANT_SCALE = 0.45
DT_HYDRO_SCALE = 0.9
MESH_EDGE = 1.125  # physical edge length of the cube

#: Element-corner offsets in (i, j, k), LULESH node ordering.
CORNERS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)

#: The six element faces: (orientation, axis, 4 corner offsets).
#: ``orientation`` is +1 when the diagonal cross product of the listed
#: corner ordering already points outward on a right-handed mesh, and
#: -1 when it must be flipped (verified analytically per face).
FACES = (
    (+1, 0, ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1))),  # +x
    (-1, 0, ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1))),  # -x
    (-1, 1, ((0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1))),  # +y
    (+1, 1, ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1))),  # -y
    (+1, 2, ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))),  # +z
    (-1, 2, ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))),  # -z
)


class QStopError(RuntimeError):
    """Artificial viscosity exceeded QSTOP (the run went unstable)."""


@dataclass(frozen=True)
class LuleshConfig:
    """Problem definition: ``./LULESH -s <size> -i <iterations>``."""

    size: int  # elements per cube edge (-s)
    iterations: int  # time steps (-i)

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("mesh must be at least 2 elements per edge")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")

    @property
    def n_elems(self) -> int:
        return self.size**3

    @property
    def n_nodes(self) -> int:
        return (self.size + 1) ** 3

    @property
    def spacing(self) -> float:
        return MESH_EDGE / self.size


def default_config() -> LuleshConfig:
    """CI-sized run (-s 16 -i 8)."""
    return LuleshConfig(size=16, iterations=8)


def paper_config() -> LuleshConfig:
    """Paper-sized run (Table I: ``./LULESH -s 100 -i 100``)."""
    return LuleshConfig(size=100, iterations=100)


@dataclass
class LuleshState:
    """All mesh-resident arrays, named as in LULESH."""

    config: LuleshConfig
    dtype: np.dtype
    # Nodal quantities, shape (s+1, s+1, s+1).
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    z: np.ndarray = field(init=False)
    xd: np.ndarray = field(init=False)
    yd: np.ndarray = field(init=False)
    zd: np.ndarray = field(init=False)
    xdd: np.ndarray = field(init=False)
    ydd: np.ndarray = field(init=False)
    zdd: np.ndarray = field(init=False)
    fx: np.ndarray = field(init=False)
    fy: np.ndarray = field(init=False)
    fz: np.ndarray = field(init=False)
    nodal_mass: np.ndarray = field(init=False)
    # Element quantities, shape (s, s, s).
    e: np.ndarray = field(init=False)
    p: np.ndarray = field(init=False)
    q: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    volo: np.ndarray = field(init=False)
    delv: np.ndarray = field(init=False)
    vdov: np.ndarray = field(init=False)
    arealg: np.ndarray = field(init=False)
    ss: np.ndarray = field(init=False)
    elem_mass: np.ndarray = field(init=False)
    sig: np.ndarray = field(init=False)
    # Scratch element arrays.
    face_normals: np.ndarray = field(init=False)  # (6, 3, s, s, s)
    vel_mean: np.ndarray = field(init=False)  # (3, s, s, s)
    vel_grad: np.ndarray = field(init=False)  # (3, s, s, s)
    compression: np.ndarray = field(init=False)
    e_pred: np.ndarray = field(init=False)
    p_half: np.ndarray = field(init=False)
    dt_courant_elem: np.ndarray = field(init=False)
    dt_hydro_elem: np.ndarray = field(init=False)
    # Scalar reduction results (workgroup tree + atomic on the GPU).
    dt_courant_min: np.ndarray = field(init=False)
    dt_hydro_min: np.ndarray = field(init=False)
    q_max: np.ndarray = field(init=False)
    # Time-integration scalars (host state).
    time: float = 0.0
    dt: float = 0.0
    #: Set only on projection stubs, whose read-only arrays never
    #: change: the initial-state checksum, computed once at build.
    frozen_checksum: float | None = None

    def __post_init__(self) -> None:
        s = self.config.size
        n = s + 1
        dtype = self.dtype
        h = self.config.spacing

        coords = np.arange(n, dtype=dtype) * dtype.type(h)
        self.x, self.y, self.z = np.meshgrid(coords, coords, coords, indexing="ij")
        self.x = np.ascontiguousarray(self.x)
        self.y = np.ascontiguousarray(self.y)
        self.z = np.ascontiguousarray(self.z)
        for name in ("xd", "yd", "zd", "xdd", "ydd", "zdd", "fx", "fy", "fz"):
            setattr(self, name, np.zeros((n, n, n), dtype=dtype))

        for name in ("e", "p", "q", "delv", "vdov", "ss", "sig", "compression", "e_pred", "p_half"):
            setattr(self, name, np.zeros((s, s, s), dtype=dtype))
        self.v = np.ones((s, s, s), dtype=dtype)
        self.volo = np.full((s, s, s), h**3, dtype=dtype)
        self.arealg = np.full((s, s, s), h, dtype=dtype)
        self.elem_mass = (RHO_REF * self.volo).astype(dtype)
        self.face_normals = np.zeros((6, 3, s, s, s), dtype=dtype)
        self.vel_mean = np.zeros((3, s, s, s), dtype=dtype)
        self.vel_grad = np.zeros((3, s, s, s), dtype=dtype)
        self.dt_courant_elem = np.zeros((s, s, s), dtype=dtype)
        self.dt_hydro_elem = np.zeros((s, s, s), dtype=dtype)
        self.dt_courant_min = np.full(1, np.inf, dtype=dtype)
        self.dt_hydro_min = np.full(1, np.inf, dtype=dtype)
        self.q_max = np.zeros(1, dtype=dtype)

        # Nodal mass: each element contributes 1/8 of its mass per corner.
        self.nodal_mass = np.zeros((n, n, n), dtype=dtype)
        contribution = self.elem_mass / 8.0
        for di, dj, dk in CORNERS:
            self.nodal_mass[di : s + di, dj : s + dj, dk : s + dk] += contribution

        # Sedov initialisation: deposit the blast energy in the origin
        # element (energy density, matching LULESH's e(0) setup).
        self.e[0, 0, 0] = E_ZERO
        initial_pressure = (GAMMA - 1.0) * RHO_REF * E_ZERO
        self.p[0, 0, 0] = initial_pressure
        self.ss[0, 0, 0] = np.sqrt(GAMMA * initial_pressure / RHO_REF)

        # Initial time step from the Courant condition of the hot cell.
        self.dt = float(CFL * h / self.ss[0, 0, 0] * DT_COURANT_SCALE)

    def arrays(self) -> dict[str, np.ndarray]:
        """All state arrays by name (ports wrap these in buffers/views)."""
        names = (
            "x", "y", "z", "xd", "yd", "zd", "xdd", "ydd", "zdd",
            "fx", "fy", "fz", "nodal_mass",
            "e", "p", "q", "v", "volo", "delv", "vdov", "arealg", "ss",
            "elem_mass", "sig", "face_normals", "vel_mean", "vel_grad",
            "compression", "e_pred", "p_half",
            "dt_courant_elem", "dt_hydro_elem",
            "dt_courant_min", "dt_hydro_min", "q_max",
        )
        return {name: getattr(self, name) for name in names}

    def total_energy(self) -> float:
        """Internal + kinetic energy (conserved by the Lagrange step)."""
        internal = float((self.e * self.elem_mass).sum())
        kinetic = 0.5 * float(
            (self.nodal_mass * (self.xd**2 + self.yd**2 + self.zd**2)).sum()
        )
        return internal + kinetic

    def checksum(self) -> float:
        """Scalar used to compare ports: origin energy + mean |v|."""
        if self.frozen_checksum is not None:
            return self.frozen_checksum
        return float(self.e[0, 0, 0]) + float(np.abs(self.v).mean()) * 1e3


# ----------------------------------------------------------------------
# Geometry helpers (shared by several kernels).
# ----------------------------------------------------------------------

def _corner(a: np.ndarray, offset: tuple[int, int, int], s: int) -> np.ndarray:
    di, dj, dk = offset
    return a[di : s + di, dj : s + dj, dk : s + dk]


def element_volumes(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Element volumes from the mean-edge parallelepiped determinant."""
    s = x.shape[0] - 1
    edges = []
    for axis in range(3):
        plus = [c for c in CORNERS if c[axis] == 1]
        minus = [c for c in CORNERS if c[axis] == 0]
        comps = []
        for coord in (x, y, z):
            acc = sum(_corner(coord, c, s) for c in plus) - sum(
                _corner(coord, c, s) for c in minus
            )
            comps.append(acc / 4.0)
        edges.append(comps)
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = edges
    det = (
        ax * (by * cz - bz * cy)
        - ay * (bx * cz - bz * cx)
        + az * (bx * cy - by * cx)
    )
    return det
