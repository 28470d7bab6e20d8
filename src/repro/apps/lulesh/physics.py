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

from dataclasses import dataclass, field, fields

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


#: Initial pressure of the Sedov origin element.
INITIAL_PRESSURE = (GAMMA - 1.0) * RHO_REF * E_ZERO


def _mesh(kind: str):
    """A state array field of the given shape class (see :func:`array_shapes`)."""
    return field(metadata={"shape": kind})


@dataclass
class LuleshState:
    """All mesh-resident arrays, named as in LULESH.

    :meth:`initial` builds the Sedov problem.  Array fields are declared
    in the order ports stage them, with a shape class that
    :func:`array_shapes` resolves for a config.
    """

    config: LuleshConfig
    dtype: np.dtype
    # Nodal quantities, shape (s+1, s+1, s+1).
    x: np.ndarray = _mesh("node")
    y: np.ndarray = _mesh("node")
    z: np.ndarray = _mesh("node")
    xd: np.ndarray = _mesh("node")
    yd: np.ndarray = _mesh("node")
    zd: np.ndarray = _mesh("node")
    xdd: np.ndarray = _mesh("node")
    ydd: np.ndarray = _mesh("node")
    zdd: np.ndarray = _mesh("node")
    fx: np.ndarray = _mesh("node")
    fy: np.ndarray = _mesh("node")
    fz: np.ndarray = _mesh("node")
    nodal_mass: np.ndarray = _mesh("node")
    # Element quantities, shape (s, s, s).
    e: np.ndarray = _mesh("elem")
    p: np.ndarray = _mesh("elem")
    q: np.ndarray = _mesh("elem")
    v: np.ndarray = _mesh("elem")
    volo: np.ndarray = _mesh("elem")
    delv: np.ndarray = _mesh("elem")
    vdov: np.ndarray = _mesh("elem")
    arealg: np.ndarray = _mesh("elem")
    ss: np.ndarray = _mesh("elem")
    elem_mass: np.ndarray = _mesh("elem")
    sig: np.ndarray = _mesh("elem")
    # Scratch element arrays.
    face_normals: np.ndarray = _mesh("faces")  # (6, 3, s, s, s)
    vel_mean: np.ndarray = _mesh("vector")  # (3, s, s, s)
    vel_grad: np.ndarray = _mesh("vector")  # (3, s, s, s)
    compression: np.ndarray = _mesh("elem")
    e_pred: np.ndarray = _mesh("elem")
    p_half: np.ndarray = _mesh("elem")
    dt_courant_elem: np.ndarray = _mesh("elem")
    dt_hydro_elem: np.ndarray = _mesh("elem")
    # Scalar reduction results (workgroup tree + atomic on the GPU).
    dt_courant_min: np.ndarray = _mesh("scalar")
    dt_hydro_min: np.ndarray = _mesh("scalar")
    q_max: np.ndarray = _mesh("scalar")
    # Time-integration scalars (host state).
    time: float = 0.0
    dt: float = 0.0
    #: Set only on projection stubs, whose read-only arrays never
    #: change: the initial-state checksum, computed once at build.
    frozen_checksum: float | None = None

    @classmethod
    def initial(cls, config: LuleshConfig, dtype: np.dtype) -> "LuleshState":
        """The Sedov problem at time zero."""
        s = config.size
        h = config.spacing
        arrays = {
            name: np.zeros(shape, dtype=dtype)
            for name, shape in array_shapes(config).items()
        }
        arrays.update(initial_reductions(dtype))

        coords = np.arange(s + 1, dtype=dtype) * dtype.type(h)
        for name, grid in zip("xyz", np.meshgrid(coords, coords, coords, indexing="ij")):
            arrays[name] = np.ascontiguousarray(grid)
        arrays["v"][...] = 1.0
        arrays["volo"][...] = h**3
        arrays["arealg"][...] = h
        arrays["elem_mass"] = (RHO_REF * arrays["volo"]).astype(dtype)

        # Nodal mass: each element contributes 1/8 of its mass per corner.
        contribution = arrays["elem_mass"] / 8.0
        for di, dj, dk in CORNERS:
            arrays["nodal_mass"][di : s + di, dj : s + dj, dk : s + dk] += contribution

        # Sedov initialisation: deposit the blast energy in the origin
        # element (energy density, matching LULESH's e(0) setup).
        arrays["e"][0, 0, 0] = E_ZERO
        arrays["p"][0, 0, 0] = INITIAL_PRESSURE
        arrays["ss"][0, 0, 0] = origin_sound_speed(dtype)
        return cls(config=config, dtype=dtype, dt=initial_dt(config, dtype), **arrays)

    def arrays(self) -> dict[str, np.ndarray]:
        """All state arrays by name (ports wrap these in buffers/views)."""
        return {name: getattr(self, name) for name in ARRAY_KINDS}

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


#: The shape class of every array field of :class:`LuleshState`, by
#: name, in staging order.
ARRAY_KINDS = {f.name: f.metadata["shape"] for f in fields(LuleshState) if f.metadata}


def array_shapes(config: LuleshConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every state array, by name, in staging order."""
    s = config.size
    n = s + 1
    shapes = {
        "node": (n, n, n),
        "elem": (s, s, s),
        "faces": (6, 3, s, s, s),
        "vector": (3, s, s, s),
        "scalar": (1,),
    }
    return {name: shapes[kind] for name, kind in ARRAY_KINDS.items()}


def initial_reductions(dtype: np.dtype) -> dict[str, np.ndarray]:
    """The three one-element reduction arrays before the first step."""
    return {
        "dt_courant_min": np.full(1, np.inf, dtype=dtype),
        "dt_hydro_min": np.full(1, np.inf, dtype=dtype),
        "q_max": np.zeros(1, dtype=dtype),
    }


def origin_sound_speed(dtype: np.dtype) -> np.floating:
    """Sound speed of the hot origin element, rounded to ``dtype``."""
    return dtype.type(np.sqrt(GAMMA * INITIAL_PRESSURE / RHO_REF))


def initial_dt(config: LuleshConfig, dtype: np.dtype) -> float:
    """The first time step: the Courant condition of the hot cell."""
    return float(CFL * config.spacing / origin_sound_speed(dtype) * DT_COURANT_SCALE)


def initial_checksum(dtype: np.dtype) -> float:
    """:meth:`LuleshState.checksum` at time zero, without the mesh: the
    origin energy plus 1e3 times the mean |v|, which is exactly 1
    (every relative volume starts at 1)."""
    return float(dtype.type(E_ZERO)) + 1e3


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
