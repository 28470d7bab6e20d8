"""miniFE: finite-element conjugate-gradient solver (reference).

Section IV-D: "miniFE is a finite element proxy application that
solves a sparse linear-system using a simple un-preconditioned
conjugate-gradient (CG) algorithm.  Once the element-operators are
generated and assembled into a sparse matrix and vector, miniFE
executes the following kernels until the solution converges: sparse
matrix-vector multiplication (SpMV), axpy and dot product."

The reproduction performs the real pipeline: trilinear hexahedral
element stiffness matrices for the Poisson operator (2x2x2 Gauss
quadrature), assembly into CSR, Dirichlet boundary conditions, and an
unpreconditioned CG solve.  The SpMV uses the CSR format priced as the
CSR-Adaptive algorithm of Greathouse & Daga [15] in the OpenCL port.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ...engine.memo import memoized_setup, projection_stub
from ...hardware.specs import Precision


@dataclass(frozen=True)
class MiniFEConfig:
    """Problem definition: ``./miniFE -nx NX -ny NY -nz NZ``."""

    nx: int
    ny: int
    nz: int
    cg_iterations: int = 50
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("nx", "ny", "nz"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2 elements")
        if self.cg_iterations < 1:
            raise ValueError("need at least one CG iteration")

    @property
    def n_rows(self) -> int:
        return (self.nx + 1) * (self.ny + 1) * (self.nz + 1)

    @property
    def n_elems(self) -> int:
        return self.nx * self.ny * self.nz


def default_config() -> MiniFEConfig:
    """CI-sized run (20^3 elements, 9261 rows)."""
    return MiniFEConfig(nx=20, ny=20, nz=20, cg_iterations=40)


def paper_config() -> MiniFEConfig:
    """Paper-sized run (Table I: ``./miniFE -nx 100 -ny 100 -nz 100``)."""
    return MiniFEConfig(nx=100, ny=100, nz=100, cg_iterations=200)


def hex8_stiffness() -> np.ndarray:
    """8x8 element stiffness matrix for the Poisson operator on the
    unit hexahedron, via 2x2x2 Gauss quadrature of grad(Ni).grad(Nj).

    Trilinear shape functions on [-1, 1]^3; the result is scaled by the
    element Jacobian at assembly (uniform mesh: a constant).
    """
    g = 1.0 / np.sqrt(3.0)
    gauss = np.array(
        [[sx * g, sy * g, sz * g] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    # Node local coordinates, standard hex ordering.
    nodes = np.array(
        [[sx, sy, sz] for sz in (-1, 1) for sy in (-1, 1) for sx in (-1, 1)], dtype=float
    )
    K = np.zeros((8, 8))
    for xi, eta, zeta in gauss:
        # grad of Ni = 1/8 (1 + xi xi_i)(1 + eta eta_i)(1 + zeta zeta_i)
        grads = np.empty((8, 3))
        for i, (xi_i, eta_i, zeta_i) in enumerate(nodes):
            grads[i, 0] = 0.125 * xi_i * (1 + eta * eta_i) * (1 + zeta * zeta_i)
            grads[i, 1] = 0.125 * eta_i * (1 + xi * xi_i) * (1 + zeta * zeta_i)
            grads[i, 2] = 0.125 * zeta_i * (1 + xi * xi_i) * (1 + eta * eta_i)
        K += grads @ grads.T  # unit Gauss weights for 2-point rule
    return K


@memoized_setup
def assemble(config: MiniFEConfig, precision: Precision) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the global CSR Poisson system with Dirichlet walls.

    Returns ``(data, indices, indptr, rhs)`` — the CSR arrays every
    port shares (assembly is host-side setup in miniFE's GPU ports
    too; the timed kernels are SpMV/axpy/dot).
    """
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    nx, ny, nz = config.nx, config.ny, config.nz
    nnx, nny, nnz_ = nx + 1, ny + 1, nz + 1
    K = hex8_stiffness()

    # Global node ids of each element's 8 corners.
    ex, ey, ez = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    base = (ex * nny + ey) * nnz_ + ez  # node (i, j, k) -> id
    corner_offsets = [
        ((dx * nny) + dy) * nnz_ + dz
        for dz in (0, 1)
        for dy in (0, 1)
        for dx in (0, 1)
    ]
    elem_nodes = np.stack([base.reshape(-1) + off for off in corner_offsets], axis=1)

    n_elems = elem_nodes.shape[0]
    rows = np.repeat(elem_nodes, 8, axis=1).reshape(-1)
    cols = np.tile(elem_nodes, (1, 8)).reshape(-1)
    vals = np.tile(K.reshape(-1), n_elems)

    n = config.n_rows
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    # Dirichlet u = 0 on all boundary faces: identity rows/cols.
    node_i = np.arange(n) // (nny * nnz_)
    node_j = (np.arange(n) // nnz_) % nny
    node_k = np.arange(n) % nnz_
    boundary = (
        (node_i == 0) | (node_i == nx) | (node_j == 0) | (node_j == ny)
        | (node_k == 0) | (node_k == nz)
    )
    interior = ~boundary
    diag = sp.diags(interior.astype(float))
    matrix = diag @ matrix @ diag + sp.diags(boundary.astype(float))
    matrix = sp.csr_matrix(matrix)
    matrix.sort_indices()

    rhs = np.where(boundary, 0.0, 1.0).astype(dtype)
    return (
        matrix.data.astype(dtype),
        matrix.indices.astype(np.int32),
        matrix.indptr.astype(np.int64),
        rhs,
    )


def system_nnz(config: MiniFEConfig) -> int:
    """Stored nonzeros of the assembled Dirichlet system, in closed form.

    Boundary rows are identity (1 nonzero); an interior node couples to
    the 27-point cube clipped to interior columns, giving
    ``prod(3n - 5)`` interior-block entries over the
    ``prod(n - 1)`` interior nodes of an ``nx x ny x nz`` element mesh.
    """
    nx, ny, nz = config.nx, config.ny, config.nz
    interior = (nx - 1) * (ny - 1) * (nz - 1)
    interior_block = (3 * nx - 5) * (3 * ny - 5) * (3 * nz - 5)
    return config.n_rows - interior + interior_block


@projection_stub(assemble)
def _projection_system(
    config: MiniFEConfig, precision: Precision
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shape-faithful stand-in for schedule capture: CSR arrays with
    the real lengths/dtypes (buffer sizes are all that the ports'
    schedules read) without assembling the matrix; all read-only."""
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    nnz = system_nnz(config)
    n = config.n_rows
    system = (
        np.zeros(nnz, dtype=dtype),
        np.zeros(nnz, dtype=np.int32),
        np.zeros(n + 1, dtype=np.int64),
        np.zeros(n, dtype=dtype),
    )
    for array in system:
        array.flags.writeable = False
    return system


def reference_solve(config: MiniFEConfig, precision: Precision) -> tuple[np.ndarray, list[float]]:
    """Plain NumPy CG, the correctness oracle; returns (x, residuals)."""
    data, indices, indptr, b = assemble(config, precision)
    n = config.n_rows
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    x = np.zeros(n, dtype=b.dtype)
    r = b - matrix @ x
    p = r.copy()
    rr = float(r @ r)
    residuals = [np.sqrt(rr)]
    for _ in range(config.cg_iterations):
        ap = matrix @ p
        alpha = rr / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rr_new = float(r @ r)
        residuals.append(np.sqrt(rr_new))
        if residuals[-1] < config.tolerance * residuals[0]:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, residuals
